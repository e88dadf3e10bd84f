"""Shared experiment runner: parallel execution with deterministic merge.

Several figures consume the same (benchmark x environment x unroll x
power) grid.  The runner treats each combination as a :class:`Cell`,
executes every cell at most once, and hands out the recorded statistics.
Cells are independent — compilation and emulation are both deterministic
functions of the cell — so :meth:`ExperimentRunner.prefetch` fans a batch
of cells out over a :class:`~concurrent.futures.ProcessPoolExecutor` and
merges the results back **in submission order**, which makes every
figure and table byte-identical to a serial run.

Worker count: the ``jobs`` argument, else the ``REPRO_JOBS`` environment
variable, else ``os.cpu_count()``.  ``jobs=1`` runs serially in-process
(no executor, no pickling) — the reference behaviour.

Results are also shared *across* processes and invocations through the
content-addressed :mod:`repro.cache`: each worker looks up compiled
programs under their ``program-`` key and finished emulations under a
``run-`` key derived from it, so a warm cache turns a full evaluation
into a read-mostly sweep.  A payload carries the resolved store, which
a worker unpickles as its own instance for the same directory.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

from ..backend import Program
from ..benchsuite import BENCHMARKS, compile_benchmark, run_benchmark
from ..cache import cached, resolve_cache, run_key
from ..emulator import (
    DEFAULT_COSTS,
    ExecutionStats,
    FixedPeriodPower,
    PowerSupply,
    trace_a,
    trace_b,
)

#: evaluation environments, in the paper's Figure 4 order
FIGURE4_ENVIRONMENTS = (
    "ratchet",
    "r-pdg",
    "epilog-optimizer",
    "write-clusterer",
    "loop-write-clusterer",
    "wario",
    "wario-expander",
)


class Cell(NamedTuple):
    """One point of the experiment grid."""

    bench: str
    env: str
    unroll: int = 0          #: 0 = the environment's default factor
    power_key: str = "continuous"


def power_from_key(power_key: Optional[str]) -> Optional[PowerSupply]:
    """Reconstruct a power supply from its canonical key: ``continuous``,
    ``trace-a``, ``trace-b`` or ``fixed-<cycles>``.

    Supplies are deterministic (seeded), so the key fully identifies the
    on-duration sequence — this is what makes emulation results disk-
    cacheable and lets pool workers build their own supply instances.
    """
    if power_key is None or power_key == "continuous":
        return None
    if power_key == "trace-a":
        return trace_a()
    if power_key == "trace-b":
        return trace_b()
    try:
        if power_key.startswith("fixed-"):
            return FixedPeriodPower(int(power_key[len("fixed-"):]))
    except ValueError as exc:
        raise ValueError(f"malformed power key {power_key!r}: {exc}") from None
    raise ValueError(
        f"unknown power key {power_key!r}; expected 'continuous', "
        f"'fixed-<cycles>', 'trace-a' or 'trace-b'"
    )


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the CPU count."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


@dataclass
class RunResult:
    stats: ExecutionStats
    program: Program
    outputs_ok: bool = True


# ---------------------------------------------------------------------------
# Cell execution (module-level so pool workers can pickle it)
# ---------------------------------------------------------------------------


def execute_cell(cell: Cell, war_check: bool, cache=None) -> RunResult:
    """Compile (once) and emulate one grid cell, honouring the disk cache.

    The program is compiled a single time and fed to the emulator; the
    same object lands in ``RunResult.program`` for the code-size tables.
    Emulation results are cached under a ``run-`` key derived from the
    program's own content address, the power key, and the WAR-check flag.
    :class:`ExperimentRunner` calls it from ``run`` and, through
    :func:`map_ordered`, from ``prefetch``.
    """
    bench = BENCHMARKS[cell.bench]
    unroll = cell.unroll or None
    war = war_check and cell.env != "plain"
    program = compile_benchmark(bench, cell.env, unroll, cache=cache)

    def emulate() -> ExecutionStats:
        _, stats = run_benchmark(
            bench,
            cell.env,
            power=power_from_key(cell.power_key),
            unroll_factor=unroll,
            war_check=war,
            verify=True,
            program=program,
        )
        return stats

    key = run_key(program.cache_key, cell.power_key, war,
                  bench.max_instructions, repr(DEFAULT_COSTS))
    return RunResult(stats=cached(resolve_cache(cache), key, emulate),
                     program=program)


def _pool_worker(payload) -> RunResult:
    cell, war_check, cache = payload
    return execute_cell(cell, war_check, cache)


def map_ordered(
    worker: Callable,
    payloads: Sequence,
    jobs: Optional[int] = None,
) -> List:
    """Run picklable payloads through a module-level worker function.

    Results come back **in submission order** regardless of completion
    order, so consumers are byte-identical across ``jobs`` settings.
    ``jobs=1`` (or a single payload) runs serially in-process — no
    executor, no pickling.  This is the one fan-out primitive shared by
    the figure runner and the fault-injection campaign engine.
    """
    payloads = list(payloads)
    if not payloads:
        return []
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(jobs, len(payloads)))
    if jobs == 1:
        return [worker(payload) for payload in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # executor.map preserves submission order: deterministic merge
        return list(pool.map(worker, payloads))


class ExperimentRunner:
    """Runs and caches (benchmark, environment, unroll, power) cells.

    ``jobs`` fixes the parallelism of :meth:`prefetch` (default: resolved
    per call from ``REPRO_JOBS`` / CPU count).  ``cache`` follows the
    :func:`repro.cache.resolve_cache` convention: ``None`` uses the
    process-wide disk cache (honouring ``REPRO_CACHE``), ``False``
    disables disk caching, a :class:`CompileCache` pins a directory.
    """

    def __init__(
        self,
        war_check: bool = False,
        jobs: Optional[int] = None,
        cache=None,
    ):
        # WAR checking costs dict traffic per memory access; the
        # correctness suite verifies WAR freedom separately, so the
        # performance harness defaults it off (like the paper's separate
        # verification runs).
        self.war_check = war_check
        self.jobs = jobs
        self._cache_arg = cache
        self._results: Dict[Cell, RunResult] = {}

    # -- execution -------------------------------------------------------

    def run(
        self,
        bench_name: str,
        env: str,
        unroll_factor: Optional[int] = None,
        power_key: Optional[str] = None,
    ) -> RunResult:
        cell = Cell(bench_name, env, unroll_factor or 0,
                    power_key or "continuous")
        result = self._results.get(cell)
        if result is None:
            result = execute_cell(cell, self.war_check, self._cache_arg)
            self._results[cell] = result
        return result

    def prefetch(self, cells: Iterable[Cell], jobs: Optional[int] = None) -> None:
        """Execute a batch of cells, fanning out over worker processes.

        Results merge into the in-process memo **in the order given**, so
        a subsequent serial walk of the same cells (what every figure
        does) observes exactly what a serial run would have computed.
        """
        ordered = [cell for cell in dict.fromkeys(cells)
                   if cell not in self._results]
        # payloads carry the resolved store; False, not None, so that a
        # worker does not resolve a default store of its own
        cache = resolve_cache(self._cache_arg) or False
        payloads = [(cell, self.war_check, cache) for cell in ordered]
        results = map_ordered(_pool_worker, payloads,
                              self.jobs if jobs is None else jobs)
        self._results.update(zip(ordered, results))

    # -- convenience -----------------------------------------------------
    def cycles(self, bench_name: str, env: str) -> int:
        return self.run(bench_name, env).stats.cycles

    def normalized_time(self, bench_name: str, env: str) -> float:
        plain = self.cycles(bench_name, "plain")
        return self.cycles(bench_name, env) / plain

    def checkpoint_overhead(self, bench_name: str, env: str) -> int:
        """Extra cycles over the uninstrumented build."""
        return self.cycles(bench_name, env) - self.cycles(bench_name, "plain")

    def executed_checkpoints(self, bench_name: str, env: str) -> int:
        return self.run(bench_name, env).stats.checkpoints

    def checkpoint_causes(self, bench_name: str, env: str) -> Dict[str, int]:
        return dict(self.run(bench_name, env).stats.checkpoint_causes)
