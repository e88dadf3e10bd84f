"""Benchmark plumbing: declaration, compilation cache, run + verify."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..backend import Program
from ..core import iclang
from ..emulator import Machine, PowerSupply


@dataclass(frozen=True)
class Output:
    """One checked output: a global scalar or array."""

    name: str
    count: int = 1
    size: int = 4      # element size in bytes
    signed: bool = False


@dataclass
class Benchmark:
    """A benchmark program plus its pure-Python reference results."""

    name: str
    source: str
    outputs: List[Output]
    reference: Callable[[], Dict[str, Union[int, List[int]]]]
    description: str = ""
    max_instructions: int = 30_000_000

    def expected(self) -> Dict[str, Union[int, List[int]]]:
        return self.reference()


class VerificationError(AssertionError):
    pass


_PROGRAM_CACHE: Dict[Tuple[str, str, int], Program] = {}


def clear_program_memo() -> None:
    """Drop the in-process compiled-program memo (benchmarking aid: the
    ``repro bench`` cold runs must not inherit warm programs)."""
    _PROGRAM_CACHE.clear()


def compile_benchmark(
    bench: Benchmark, env: str, unroll_factor: Optional[int] = None, cache=None
) -> Program:
    """Compile (with caching — programs are immutable across runs).

    Two layers: an in-process memo keyed on (benchmark, environment,
    unroll), and — through ``iclang`` — the content-addressed on-disk
    :mod:`repro.cache` shared across processes.  Compilation is
    deterministic, so a memoised program serves every ``cache`` policy;
    :func:`clear_program_memo` forces a cold compile.  ``cache`` follows
    the :func:`repro.cache.resolve_cache` convention.
    """
    key = (bench.name, env, unroll_factor or 0)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = iclang(bench.source, env, unroll_factor=unroll_factor,
                         name=bench.name, cache=cache)
        _PROGRAM_CACHE[key] = program
    return program


def run_benchmark(
    bench: Benchmark,
    env: str,
    power: Optional[PowerSupply] = None,
    unroll_factor: Optional[int] = None,
    war_check: bool = True,
    cost_model=None,
    verify: bool = True,
    program: Optional[Program] = None,
):
    """Compile, execute, and (optionally) verify one benchmark run.

    Pass ``program`` to reuse an already compiled image (the evaluation
    runner compiles each grid cell exactly once and feeds the same
    program to both emulation and the code-size statistics).

    Returns ``(machine, stats)``.
    """
    if program is None:
        program = compile_benchmark(bench, env, unroll_factor)
    machine = Machine(program, cost_model=cost_model, war_check=war_check)
    stats = machine.run(power=power, max_instructions=bench.max_instructions)
    if verify:
        verify_outputs(bench, machine)
        if machine.war is not None and env != "plain" and not machine.war.clean:
            first = machine.war.violations[0]
            raise VerificationError(f"{bench.name}/{env}: {first}")
    return machine, stats


def verify_outputs(bench: Benchmark, machine: Machine) -> None:
    """Compare every declared output global against the reference."""
    expected = bench.expected()
    for output in bench.outputs:
        got = machine.read_global(output.name, output.count, output.size, output.signed)
        want = expected[output.name]
        if got != want:
            raise VerificationError(
                f"{bench.name}: output @{output.name} mismatch:\n"
                f"  expected {want!r}\n  got      {got!r}"
            )
