"""The progress summariser's loop forest agrees with the middle end's.

:func:`repro.analysis.progress.loop_forest` finds the loops that both
the machine-level progress certificate and the IR estimate
(:class:`~repro.analysis.progress.IRProgress`) collapse: the shared
finder's loops, once its reducibility check passes.  On middle-end IR
it must find exactly the loops :func:`repro.analysis.loops.loop_info`
finds — the same headers, block sets and nesting — for every function
of the suite after the middle end, and for a deep chain of ``if``s.
"""

import pytest

from repro.analysis.loops import loop_info
from repro.analysis.progress import IrreducibleCFG, loop_forest
from repro.benchsuite import BENCHMARKS, get_benchmark
from repro.core import environment, run_middle_end
from repro.frontend import compile_sources

from .test_transforms import TestDeepCFG as _DeepCFG
from .test_transforms import _recursion_headroom

PROGRAMS = tuple(sorted(BENCHMARKS)) + ("xcall",)


def forest_shape(function):
    """header -> (block names, parent header) from ``loop_forest``."""
    return {
        loop.header.name: (
            {block.name for block in loop.blocks},
            loop.parent.header.name if loop.parent else None,
        )
        for loop in loop_forest(function.entry, lambda block: block.successors)
    }


def loop_info_shape(function):
    """header -> (block names, parent header) from ``loop_info``."""
    return {
        loop.header.name: (
            {block.name for block in loop.blocks},
            loop.parent.header.name if loop.parent else None,
        )
        for loop in loop_info(function).loops
    }


def middle_end(source, env, name):
    module = compile_sources([source], name)
    run_middle_end(module, environment(env))
    return module


@pytest.mark.parametrize("env", ["wario", "ratchet", "wario-opt"])
def test_suite_loops_match_loop_info(env):
    loops = 0
    for program in PROGRAMS:
        module = middle_end(get_benchmark(program).source, env, program)
        for function in module.defined_functions():
            shape = loop_info_shape(function)
            assert forest_shape(function) == shape, (program, function.name)
            loops += len(shape)
    assert loops > 0


def test_deep_chain_matches_loop_info():
    module = middle_end(_DeepCFG.chain(_DeepCFG.SHORT_IFS), "wario", "deep")
    for function in module.defined_functions():
        with _recursion_headroom(60):
            shape = forest_shape(function)
        assert shape == loop_info_shape(function)


class _Block:
    def __init__(self, name):
        self.name = name
        self.succs = []


def test_a_cycle_with_two_entries_is_irreducible():
    entry, a, b, exit_ = (_Block(name) for name in ("entry", "a", "b", "exit"))
    entry.succs, a.succs, b.succs = [a, b], [b], [a, exit_]
    with pytest.raises(IrreducibleCFG, match="retreating edge b → a"):
        loop_forest(entry, lambda block: block.succs)
