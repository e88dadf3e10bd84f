"""Profile-guided Expander — the paper's §6 "Code Profiling" future work,
implemented.

The heuristic Expander sometimes guesses wrong (§5.2.2: "To really
benefit from Expander, WARio would need code profiling information").
This module provides that loop: compile the program uninstrumented, run
the workload on the emulator collecting per-callee dynamic call counts,
then drive the Expander with the measured hotness instead of the static
innermost-loop heuristic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Union

from ..backend import Program
from ..emulator import Machine
from ..frontend import compile_sources
from ..ir import Module, verify_module
from ..ir.instructions import Call
from ..transforms.inline import can_inline, inline_call
from .expander import MAX_EXPAND_SIZE, _is_candidate_function
from .pipeline import EnvironmentConfig, environment, lower, run_middle_end


def collect_call_profile(
    sources: Union[str, List[str]],
    max_instructions: int = 30_000_000,
    name: str = "profile",
) -> Dict[str, int]:
    """Run the uninstrumented build once and return dynamic call counts
    per callee (the paper's missing profiler)."""
    from .pipeline import iclang

    program = iclang(sources, "plain", name=name)
    machine = Machine(program, war_check=False)
    machine.run(max_instructions=max_instructions)
    return dict(machine.stats.call_counts)


def profile_guided_expand(
    module: Module,
    call_profile: Dict[str, int],
    min_calls: int = 2,
) -> int:
    """Inline candidate (pointer-handling) functions whose *measured*
    call count reaches ``min_calls``, hottest call sites first.

    Unlike the static Expander, loop structure is ignored: the profile
    already says what is hot.  Returns the number of sites inlined.
    """
    hot = {
        name
        for name, count in call_profile.items()
        if count >= min_calls
        and name in module.functions
        and _is_candidate_function(module.functions[name])
    }
    inlined = 0
    for function in list(module.defined_functions()):
        sites: List[Call] = []
        for block in function.blocks:
            for instr in block.instructions:
                if not isinstance(instr, Call):
                    continue
                if instr.callee.name not in hot or not can_inline(instr):
                    continue
                size = sum(len(b) for b in instr.callee.blocks)
                if size > MAX_EXPAND_SIZE:
                    continue
                sites.append(instr)
        sites.sort(key=lambda c: -call_profile.get(c.callee.name, 0))
        for call in sites:
            if call.parent is None:
                continue
            inline_call(call)
            inlined += 1
    return inlined


def iclang_pgo(
    sources: Union[str, List[str]],
    env: Union[str, EnvironmentConfig] = "wario",
    min_calls: int = 2,
    name: str = "program",
    unroll_factor: Optional[int] = None,
) -> Program:
    """Two-phase profile-guided compilation: profile the plain build,
    then compile ``env`` with the profile-guided Expander (callees called
    at least ``min_calls`` times) replacing the heuristic one."""
    profile = collect_call_profile(sources, name=f"{name}.profile")
    hot = {callee: count for callee, count in profile.items()
           if count >= min_calls}
    config = environment(env)
    if unroll_factor is not None:
        config = replace(config, unroll_factor=unroll_factor)
    if isinstance(sources, str):
        sources = [sources]
    module = compile_sources(sources, name)
    verify_module(module)
    summaries = run_middle_end(module, config, call_profile=hot)
    return lower(module, config, summaries).encode()
