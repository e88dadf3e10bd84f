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
into a read-mostly sweep.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..backend import Program
from ..benchsuite import BENCHMARKS, compile_benchmark, run_benchmark
from ..cache import CompileCache, resolve_cache, run_key
from ..emulator import (
    DEFAULT_COSTS,
    ContinuousPower,
    ExecutionStats,
    FixedPeriodPower,
    PowerSupply,
    SchedulePower,
    SuddenDropPower,
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


#: canonical power keys understood by :func:`power_from_key`; the
#: parameterised families are ``fixed-<cycles>``,
#: ``sudden-drop-<base>-<every>-<drop>`` and ``schedule-<d1>-<d2>-...``
POWER_KEYS = ("continuous", "trace-a", "trace-b")


def power_from_key(power_key: Optional[str]) -> Optional[PowerSupply]:
    """Reconstruct a power supply from its canonical key.

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
        if power_key.startswith("sudden-drop-"):
            base, every, drop = (
                int(p) for p in power_key[len("sudden-drop-"):].split("-")
            )
            return SuddenDropPower(base, drop_every=every, drop_cycles=drop)
        if power_key.startswith("schedule-"):
            durations = [int(p) for p in power_key[len("schedule-"):].split("-")]
            return SchedulePower(durations)
    except ValueError as exc:
        raise ValueError(f"malformed power key {power_key!r}: {exc}") from None
    raise ValueError(
        f"unknown power key {power_key!r}; expected 'continuous', "
        f"'fixed-<cycles>', 'trace-a', 'trace-b', "
        f"'sudden-drop-<base>-<every>-<drop>' or 'schedule-<d1>-<d2>-...'"
    )


def supply_key(power: PowerSupply) -> str:
    """A stable cell key for an arbitrary supply object.

    Supplies whose ``name`` is a canonical key (every built-in model)
    key under it, so results unify with key-addressed cells.  Anonymous
    custom supplies get a content hash of their class and constructor
    state — two *distinct* custom supplies can never collide, while two
    identically-parameterised instances share one key (they produce the
    same deterministic on-duration sequence).
    """
    name = getattr(power, "name", "")
    if name:
        try:
            rebuilt = power_from_key(name)
        except ValueError:
            rebuilt = None
        # Only trust the name when it genuinely round-trips: same class,
        # same constructor state (a subclass inheriting a canonical name
        # must not alias the built-in supply's results).
        if (
            rebuilt is not None
            and type(rebuilt) is type(power)
            and vars(rebuilt) == vars(power)
        ):
            return name
        if name == "continuous" and type(power) is ContinuousPower:
            return name
    state = ",".join(
        f"{attr}={value!r}"
        for attr, value in sorted(vars(power).items())
        if attr != "name"
    )
    blob = f"{type(power).__qualname__}({state})"
    return "custom-" + hashlib.sha256(blob.encode()).hexdigest()[:16]


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
    :class:`ExperimentRunner` calls it in process from ``run`` and a
    serial ``prefetch``, and in pool workers from a parallel one.
    """
    bench = BENCHMARKS[cell.bench]
    unroll = cell.unroll or None
    war = war_check and cell.env != "plain"
    program = compile_benchmark(bench, cell.env, unroll, cache=cache)
    store = resolve_cache(cache)
    rkey = None
    if store is not None and program.cache_key:
        rkey = run_key(
            program.cache_key,
            cell.power_key,
            war,
            bench.max_instructions,
            repr(DEFAULT_COSTS),
        )
        stats = store.get(rkey)
        if stats is not None:
            return RunResult(stats=stats, program=program)
    _, stats = run_benchmark(
        bench,
        cell.env,
        power=power_from_key(cell.power_key),
        unroll_factor=unroll,
        war_check=war,
        verify=True,
        program=program,
    )
    if rkey is not None:
        store.put(rkey, stats)
    return RunResult(stats=stats, program=program)


#: pool workers keep one cache instance per directory so the in-memory
#: layer persists across the cells each worker executes
_worker_caches: Dict[Optional[str], CompileCache] = {}


def worker_cache(cache_dir: Optional[str], use_disk: bool):
    """Resolve a pool worker's cache policy (shared per directory).

    Returns ``False`` (caching disabled) or a :class:`CompileCache`
    pinned to ``cache_dir``; the instance persists in the worker process
    so its in-memory layer serves every payload the worker executes.
    Also used by the fault-injection campaign workers
    (:mod:`repro.faultinject.campaign`).
    """
    if not use_disk:
        return False
    cache = _worker_caches.get(cache_dir)
    if cache is None:
        cache = CompileCache(cache_dir)
        _worker_caches[cache_dir] = cache
    return cache


def _pool_worker(payload: Tuple[Cell, bool, Optional[str], bool]) -> RunResult:
    cell, war_check, cache_dir, use_disk = payload
    return execute_cell(cell, war_check, worker_cache(cache_dir, use_disk))


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


CellLike = Union[Cell, Sequence]


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

    # -- keying ----------------------------------------------------------

    def _cell(
        self,
        bench_name: str,
        env: str,
        unroll_factor: Optional[int] = None,
        power_key: Optional[str] = None,
    ) -> Cell:
        return Cell(bench_name, env, unroll_factor or 0, power_key or "continuous")

    def _normalize(self, cell: CellLike) -> Cell:
        if isinstance(cell, Cell):
            return cell
        return self._cell(*cell)

    # -- execution -------------------------------------------------------

    def run(
        self,
        bench_name: str,
        env: str,
        unroll_factor: Optional[int] = None,
        power: Optional[PowerSupply] = None,
        power_key: Optional[str] = None,
    ) -> RunResult:
        if power is not None and power_key is None:
            # derive the memo key from the supply's class + parameters
            # (:func:`supply_key`): canonical supplies unify with their
            # key-addressed cells, anonymous custom supplies get a
            # content hash — two distinct supplies never collide
            power_key = supply_key(power)
        cell = self._cell(bench_name, env, unroll_factor, power_key)
        result = self._results.get(cell)
        if result is not None:
            return result
        if power is not None:
            # caller-supplied supply object: its state is unknown (it may
            # be mid-iteration or a custom model), so run it directly and
            # skip the disk run-cache
            bench = BENCHMARKS[bench_name]
            war = self.war_check and env != "plain"
            program = compile_benchmark(
                bench, env, unroll_factor, cache=self._cache_arg
            )
            _, stats = run_benchmark(
                bench,
                env,
                power=power,
                unroll_factor=unroll_factor,
                war_check=war,
                verify=True,
                program=program,
            )
            result = RunResult(stats=stats, program=program)
        else:
            result = execute_cell(cell, self.war_check, self._cache_arg)
        self._results[cell] = result
        return result

    def prefetch(
        self, cells: Iterable[CellLike], jobs: Optional[int] = None
    ) -> None:
        """Execute a batch of cells, fanning out over worker processes.

        Results merge into the in-process memo **in the order given**, so
        a subsequent serial walk of the same cells (what every figure
        does) observes exactly what a serial run would have computed.
        """
        ordered = []
        seen = set()
        for cell in map(self._normalize, cells):
            if cell not in seen and cell not in self._results:
                seen.add(cell)
                ordered.append(cell)
        if not ordered:
            return
        if jobs is None:
            jobs = self.jobs if self.jobs is not None else default_jobs()
        jobs = max(1, min(jobs, len(ordered)))
        if jobs == 1:
            for cell in ordered:
                self._results[cell] = execute_cell(
                    cell, self.war_check, self._cache_arg
                )
            return
        store = resolve_cache(self._cache_arg)
        use_disk = store is not None
        cache_dir = store.directory if use_disk else None
        payloads = [(cell, self.war_check, cache_dir, use_disk) for cell in ordered]
        for cell, result in zip(ordered, map_ordered(_pool_worker, payloads, jobs)):
            self._results[cell] = result

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
