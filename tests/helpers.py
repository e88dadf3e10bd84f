"""Shared helpers for the test suite."""

from __future__ import annotations

import importlib.util
import os
from typing import Dict, Optional

from repro import Machine, iclang
from repro.emulator import PowerSupply


def _load_golden_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate",
        os.path.join(os.path.dirname(__file__), "golden", "generate.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``tests/golden/generate.py``, the golden fixtures' generator, loaded
#: once for every test module that recomputes a fixture
GEN = _load_golden_generator()


def compile_and_run(
    source: str,
    env: str = "plain",
    power: Optional[PowerSupply] = None,
    war_check: bool = False,
    unroll_factor: Optional[int] = None,
    max_instructions: int = 5_000_000,
):
    """Compile mini-C, run to completion, return the machine."""
    program = iclang(source, env, unroll_factor=unroll_factor)
    machine = Machine(program, war_check=war_check)
    machine.run(power=power, max_instructions=max_instructions)
    return machine


def run_main(source: str, env: str = "plain", **globals_spec) -> Dict[str, object]:
    """Compile + run and read back the requested globals.

    ``globals_spec`` maps a global name to either ``1`` (scalar) or a
    ``(count, size)`` tuple.
    """
    machine = compile_and_run(source, env)
    out = {}
    for name, spec in globals_spec.items():
        if spec == 1:
            out[name] = machine.read_global(name)
        else:
            count, size = spec
            out[name] = machine.read_global(name, count, size)
    return out


def expr_program(expression: str, declarations: str = "") -> str:
    """A program computing one integer expression into @result."""
    return f"""
    unsigned int result;
    {declarations}
    int main(void) {{
        result = (unsigned int)({expression});
        return 0;
    }}
    """


def eval_expr(expression: str, declarations: str = "", env: str = "plain") -> int:
    """Compile-and-run a single expression, returning @result."""
    machine = compile_and_run(expr_program(expression, declarations), env)
    return machine.read_global("result")


ALL_ENVIRONMENTS = (
    "plain",
    "ratchet",
    "r-pdg",
    "epilog-optimizer",
    "write-clusterer",
    "loop-write-clusterer",
    "wario",
    "wario-expander",
    "wario-summaries",
    "ratchet-summaries",
    "wario-opt",
    "ratchet-opt",
)

INSTRUMENTED = tuple(e for e in ALL_ENVIRONMENTS if e != "plain")
