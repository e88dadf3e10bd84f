"""Campaign execution: harvest → plan → replay → certify → shrink.

A *campaign* sweeps (benchmark × environment) pairs.  For each pair it
runs the compiled program once under continuous power — the **oracle** —
recording the final NVM image digest, the declared benchmark outputs,
the dynamic WAR verdict, and the event map; plans a deterministic
schedule set (:mod:`repro.faultinject.plan`); replays every schedule via
:class:`~repro.emulator.power.SchedulePower`; and certifies each replay
**differentially**: final memory, outputs, and WAR verdict must match
the oracle.  Any failing schedule is shrunk to a minimal failure-point
subsequence before it is reported.  A pair's replays run in order of
first failure off one shared continuous run, which each forks at its
pause point instead of re-running its own prefix; a replay stops where
it provably rejoins the continuous run and takes the rest of its
outcome from the oracle (:func:`_fast_forward`).  The outcome is the
same as a replay to halt.

Execution reuses the parallel evaluation engine: pairs fan out over
:func:`repro.eval.runner.map_ordered` (``--jobs`` / ``REPRO_JOBS``),
every worker shares the content-addressed :mod:`repro.cache`, and both
oracle records and cell outcomes are persisted under ``inject-`` keys,
one per cell — so campaigns are resumable (an interrupted campaign
replays completed cells from disk) and deterministic across repetition
and worker counts (results merge in submission order; planning never
depends on execution).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from ..benchsuite import BENCHMARKS, compile_benchmark, get_benchmark
from ..cache import cached, inject_key, resolve_cache
from ..core.pipeline import EnvironmentConfig, environment
from ..emulator import (
    DEFAULT_COSTS,
    CommitLog,
    EmulationError,
    EventTrace,
    Machine,
    NoForwardProgress,
    SchedulePower,
)
from ..eval.runner import map_ordered
from .plan import PlanConfig, Schedule, plan_schedules

Env = Union[str, EnvironmentConfig]


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: which pairs to sweep and how hard to try."""

    benches: Tuple[str, ...]
    envs: Tuple[Env, ...]
    seed: int = 0
    event_cap: int = 6
    interior_points: int = 8
    post_restore: int = 2
    max_schedules: int = 0          #: per-pair cap (0 = unlimited)
    jobs: Optional[int] = None      #: worker processes (None = default)
    #: fire a timer interrupt every N cycles (hardware stacking through
    #: the WAR checker).  ``None`` — no interrupt load (the historical
    #: campaign).  Differential campaigns use a small interval so seeded
    #: epilogue bugs (exposed frame releases) are observable dynamically.
    interrupt_interval: Optional[int] = None


def full_config(**overrides) -> CampaignConfig:
    """The six-benchmark suite under ``wario``, ``ratchet`` and their
    elision-optimised counterparts."""
    defaults = dict(
        benches=tuple(BENCHMARKS),
        envs=("wario", "ratchet", "wario-opt", "ratchet-opt"),
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def quick_config(**overrides) -> CampaignConfig:
    """The CI-sized smoke campaign: two benchmarks, tiny budgets.

    ``wario-opt`` rides along so every elided build is exercised against
    the continuous-power oracle on each CI run."""
    defaults = dict(
        benches=("crc", "sha"),
        envs=("wario", "ratchet", "wario-opt"),
        event_cap=2,
        interior_points=2,
        post_restore=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def env_name(env: Env) -> str:
    return env if isinstance(env, str) else env.name


def _pair_seed(seed: int, bench: str, env: Env) -> int:
    """A stable per-pair RNG seed (sha256, not the randomised hash())."""
    blob = f"{seed}:{bench}:{env_name(env)}:{environment(env)!r}"
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "big")


#: Memory bytes below this bound hold the globals (data section); the
#: top of the address space is the stack.  Campaigns under an interrupt
#: load digest only the data section: hardware exception stacking leaves
#: residue in dead stack bytes that differs with interrupt timing but is
#: architecturally invisible to the program.
DATA_DIGEST_LIMIT = 0xF0000


def _digest_memory(machine: Machine,
                   interrupt_interval: Optional[int]) -> str:
    view = machine.memory
    if interrupt_interval is not None:
        view = view[:DATA_DIGEST_LIMIT]
    return hashlib.sha256(view).hexdigest()


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class OracleTotals(NamedTuple):
    """What a replay needs of its oracle: the final state's digest and
    verdicts, the run's totals and its commit log (not its event map)."""

    memory_digest: str
    outputs_ok: bool
    war_clean: bool
    instructions: int
    cycles: int
    checkpoints: int
    log: CommitLog


@dataclass
class OracleRecord:
    """The continuous-power ground truth of one (bench, env) pair."""

    memory_digest: str
    outputs_ok: bool
    war_clean: bool
    instructions: int
    cycles: int
    checkpoints: int
    #: harvested event map, ``(kind, cycle, pc, detail)`` tuples
    events: List[Tuple[str, int, int, str]] = field(default_factory=list)
    #: every store and commit of the run
    log: CommitLog = field(default_factory=CommitLog)

    @property
    def totals(self) -> OracleTotals:
        return OracleTotals(self.memory_digest, self.outputs_ok,
                            self.war_clean, self.instructions, self.cycles,
                            self.checkpoints, self.log)


@dataclass
class CellOutcome:
    """One schedule replay, before differential judgment."""

    schedule: Schedule
    memory_digest: str = ""
    outputs_ok: bool = False
    war_violations: int = 0
    halted: bool = False
    error: str = ""                  #: emulator abort, "" on completion
    instructions: int = 0
    cycles: int = 0
    checkpoints: int = 0
    power_failures: int = 0
    boot_cycles: int = 0
    reexecuted_cycles: int = 0


#: cell verdicts, in decreasing severity order
VERDICTS = ("error", "starved", "war", "divergent-memory",
            "divergent-output", "pass")


@dataclass
class Judged:
    """A cell outcome plus its differential verdict."""

    outcome: CellOutcome
    verdict: str
    reason: str = ""
    #: minimal failing subsequence (failing cells only)
    shrunk: Optional[Schedule] = None


@dataclass
class PairResult:
    """Everything the campaign learned about one (bench, env) pair."""

    bench: str
    env: str
    oracle: OracleRecord
    judged: List[Judged] = field(default_factory=list)

    @property
    def findings(self) -> List[Judged]:
        return [j for j in self.judged if j.verdict != "pass"]

    @property
    def oracle_clean(self) -> bool:
        return self.oracle.outputs_ok and self.oracle.war_clean

    @property
    def certified(self) -> bool:
        return self.oracle_clean and not self.findings


# ---------------------------------------------------------------------------
# Cell execution (module-level so pool workers can pickle it)
# ---------------------------------------------------------------------------


def _outputs_match(bench, machine: Machine) -> bool:
    expected = bench.expected()
    for output in bench.outputs:
        got = machine.read_global(
            output.name, output.count, output.size, output.signed
        )
        if got != expected[output.name]:
            return False
    return True


def _execute_oracle(
    bench_name: str, env: Env, cache=None,
    interrupt_interval: Optional[int] = None,
) -> OracleRecord:
    """One continuous-power run with event tracing (disk-cached)."""
    bench = get_benchmark(bench_name)
    program = compile_benchmark(bench, env, None, cache=cache)

    def harvest() -> OracleRecord:
        trace = EventTrace()
        machine = Machine(program, war_check=True, trace=trace,
                          interrupt_interval=interrupt_interval)
        stats = machine.run(max_instructions=bench.max_instructions)
        return OracleRecord(
            memory_digest=_digest_memory(machine, interrupt_interval),
            outputs_ok=_outputs_match(bench, machine),
            war_clean=machine.war.clean,
            instructions=stats.instructions,
            cycles=stats.cycles,
            checkpoints=stats.checkpoints,
            events=trace.as_tuples(),
            log=trace.log,
        )

    key = inject_key(program.cache_key, (), True, bench.max_instructions,
                     repr(DEFAULT_COSTS),
                     interrupt_interval=interrupt_interval)
    return cached(resolve_cache(cache), key, harvest)


def _outcome(bench, machine: Machine, schedule: Schedule, error: str,
             interrupt_interval: Optional[int]) -> CellOutcome:
    """A cell's outcome from the machine that replayed it to the end."""
    stats = machine.stats
    return CellOutcome(
        schedule=tuple(schedule),
        memory_digest=(
            "" if error else _digest_memory(machine, interrupt_interval)
        ),
        outputs_ok=False if error else _outputs_match(bench, machine),
        war_violations=len(machine.war.violations),
        halted=stats.halted,
        error=error,
        instructions=stats.instructions,
        cycles=stats.cycles,
        checkpoints=stats.checkpoints,
        power_failures=stats.power_failures,
        boot_cycles=stats.boot_cycles,
        reexecuted_cycles=stats.reexecuted_cycles,
    )


def _replay(bench, program, schedule: Schedule,
            interrupt_interval: Optional[int]) -> CellOutcome:
    """Replay one failure schedule from reset to halt."""
    machine = Machine(program, war_check=True,
                      interrupt_interval=interrupt_interval)
    error = ""
    try:
        machine.run(
            power=SchedulePower(schedule),
            max_instructions=bench.max_instructions,
        )
    except NoForwardProgress as exc:
        error = f"NoForwardProgress: {exc}"
    except EmulationError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return _outcome(bench, machine, schedule, error, interrupt_interval)


class _ContinuousRun:
    """One pair's continuous-power run, shared by its cells in order of
    first failure.

    ``pause`` only moves forward: it pauses just before each cell's
    first failure in turn, and the cell's replay forks it there.  It
    jumps along the oracle's commit ``log`` instead of emulating what
    the oracle already ran.  The machine is created on first use, and
    one whose run raised is dropped rather than resumed.  ``committed``
    is the run materialised at the last commit a replay was compared
    at.
    """

    def __init__(self, program, limit: int, log: CommitLog):
        self.program = program
        self.limit = limit
        self.log = log
        self.pause: Optional[Machine] = None
        self.committed: Optional[Machine] = None

    def paused_before(self, first: int) -> Machine:
        """The run paused just before a failure due after ``first``
        cycles of power-on time (or halted before it).  ``first`` must
        not fall below an earlier call's.

        The run first jumps to the last commit that completes at or
        before ``first``, if that commit lies ahead, and emulates only
        the rest.  A supply's first period ends where ``period_used +
        cost`` exceeds it, and this machine has never failed, so
        ``SchedulePower((first,))`` pauses it where a fresh machine
        under any schedule starting at ``first`` pauses."""
        machine, self.pause = self.pause, None
        if machine is None:
            machine = Machine(self.program, war_check=True)
        # a commit logged at cycle c completes at c + checkpoint_cycles
        commits = bisect_right(self.log.commit_cycles,
                               first - machine.costs.checkpoint_cycles)
        if machine.stats.checkpoints < commits:
            self.log.materialize(machine, commits)
        machine.run(SchedulePower((first,)), self.limit,
                    pause_before_failure=True)
        self.pause = machine
        return machine

    def at_commit(self, commits: int) -> Machine:
        """The run right after its ``commits``-th commit, which must lie
        past the pause point and within the log.

        ``committed`` is materialised further when it stands at or
        behind that commit, and the pause cursor is forked again when it
        is past it.  Keeping one copy saves a 1 MB memory image per
        comparison, and the page faults of growing the heap for it."""
        machine, self.committed = self.committed, None
        if machine is None or machine.stats.checkpoints > commits:
            machine = None  # free its memory image before the fork below
            machine = self.pause.fork()
        self.log.materialize(machine, commits)
        self.committed = machine
        return machine


def _rejoins(replay: Machine, cursor: Machine) -> bool:
    """True when ``replay`` stands where the continuous ``cursor`` does:
    the same machine state and the same WAR first accesses, so that the
    rest of the replay is the rest of the cursor's run."""
    return replay.same_state(cursor) and replay.war.first == cursor.war.first


def _fast_forward(bench, schedule: Schedule, oracle: OracleTotals,
                  run: _ContinuousRun) -> Optional[CellOutcome]:
    """The outcome of replaying ``schedule`` without emulating the part
    of the replay that repeats the continuous run, or ``None`` when the
    replay has to run to halt.

    The continuous ``run`` is paused just before the schedule's first
    failure and forked; the fork replays the schedule up to the restore
    after its last failure.  If that restored the pause cursor's last
    commit, the fork re-executes the instructions the cursor executed
    after that commit and is compared with the cursor at its failure
    point.  Otherwise, or if they differ, the fork runs on to its next
    commit and is compared with the continuous run materialised at the
    same commit count.  If the two machines are in the same state, the rest
    of the replay is the rest of the continuous run, so the final
    memory, outputs and the remaining instructions, cycles and commits
    are the oracle's.  The caller guarantees a WAR-clean oracle and no
    interrupt timer.
    """
    limit = bench.max_instructions
    power = SchedulePower(schedule)
    try:
        paused = run.paused_before(schedule[0])
        if paused.stats.halted:
            # the program ends before the first failure: a whole replay
            return _outcome(bench, paused, schedule, "", None)
        replay = paused.fork()
        stats = replay.stats
        replay.run(power, limit, stop_after_failures=len(schedule))
        restored = stats.checkpoints
        continuous = None
        if restored == paused.stats.checkpoints and not stats.halted:
            since = paused.stats.instructions - paused.commit_instructions
            if since:
                replay.run(power, limit, stop_after_commits=restored + 1,
                           stop_at_instructions=stats.instructions + since)
            if (stats.checkpoints == restored and not stats.halted
                    and _rejoins(replay, paused)):
                continuous = paused
        if continuous is None:
            if stats.checkpoints == restored:
                replay.run(power, limit, stop_after_commits=restored + 1)
            if stats.halted:
                return _outcome(bench, replay, schedule, "", None)
            if stats.checkpoints > run.log.commits:
                return None  # past the oracle's last commit
            continuous = run.at_commit(stats.checkpoints)
            if not _rejoins(replay, continuous):
                return None
    except EmulationError:
        return None
    rejoined = continuous.stats
    instructions = stats.instructions + oracle.instructions - rejoined.instructions
    if instructions >= limit:
        return None
    return CellOutcome(
        schedule=tuple(schedule),
        memory_digest=oracle.memory_digest,
        outputs_ok=oracle.outputs_ok,
        war_violations=len(replay.war.violations),
        halted=True,
        instructions=instructions,
        cycles=stats.cycles + oracle.cycles - rejoined.cycles,
        checkpoints=stats.checkpoints + oracle.checkpoints - rejoined.checkpoints,
        power_failures=stats.power_failures,
        boot_cycles=stats.boot_cycles,
        reexecuted_cycles=stats.reexecuted_cycles,
    )


def _execute_pair(
    bench_name: str, env: Env, schedules: Sequence[Schedule], cache=None,
    interrupt_interval: Optional[int] = None,
    oracle: Union[OracleRecord, OracleTotals, None] = None,
) -> List[CellOutcome]:
    """Replay a pair's failure schedules; outcomes in ``schedules`` order.

    Each cell is looked up and stored under its own inject key, so a
    partly cached pair emulates only its missing cells.  Given the
    pair's WAR-clean ``oracle`` and no interrupt timer, the missing
    cells run in order of first failure, each fast-forwarded off one
    shared continuous run (:func:`_fast_forward`); the outcomes are the
    same as replays to halt.
    """
    bench = get_benchmark(bench_name)
    program = compile_benchmark(bench, env, None, cache=cache)
    store = resolve_cache(cache)
    run = None
    if oracle is not None and oracle.war_clean and interrupt_interval is None:
        run = _ContinuousRun(program, bench.max_instructions, oracle.log)

    def replay(schedule: Schedule) -> CellOutcome:
        outcome = None
        if run is not None:
            outcome = _fast_forward(bench, schedule, oracle, run)
        if outcome is None:
            outcome = _replay(bench, program, schedule, interrupt_interval)
        return outcome

    outcomes: List[Optional[CellOutcome]] = [None] * len(schedules)
    for index in sorted(range(len(schedules)), key=lambda i: schedules[i][0]):
        schedule = schedules[index]
        key = inject_key(program.cache_key, schedule, True,
                         bench.max_instructions, repr(DEFAULT_COSTS),
                         interrupt_interval=interrupt_interval)
        outcomes[index] = cached(store, key, lambda: replay(schedule))
    return outcomes


def _execute_schedule(
    bench_name: str, env: Env, schedule: Schedule, cache=None,
    interrupt_interval: Optional[int] = None,
    oracle: Union[OracleRecord, OracleTotals, None] = None,
) -> CellOutcome:
    """Replay one failure schedule: the one-cell case of
    :func:`_execute_pair`."""
    (outcome,) = _execute_pair(bench_name, env, (schedule,), cache,
                               interrupt_interval=interrupt_interval,
                               oracle=oracle)
    return outcome


def _oracle_worker(payload) -> OracleRecord:
    bench_name, env, cache, interrupt_interval = payload
    return _execute_oracle(bench_name, env, cache,
                           interrupt_interval=interrupt_interval)


def _pair_worker(payload) -> List[CellOutcome]:
    bench_name, env, schedules, cache, interrupt_interval, oracle = payload
    return _execute_pair(bench_name, env, schedules, cache,
                         interrupt_interval=interrupt_interval, oracle=oracle)


# ---------------------------------------------------------------------------
# Differential certification + shrinking
# ---------------------------------------------------------------------------


def certify_outcome(
    outcome: CellOutcome, oracle: Union[OracleRecord, OracleTotals]
) -> Tuple[str, str]:
    """Judge one replay against the oracle → ``(verdict, reason)``."""
    if outcome.error:
        if outcome.error.startswith("NoForwardProgress"):
            return "starved", outcome.error
        return "error", outcome.error
    if outcome.war_violations and oracle.war_clean:
        return (
            "war",
            f"{outcome.war_violations} dynamic WAR violations "
            f"(the continuous-power oracle is clean)",
        )
    if outcome.memory_digest != oracle.memory_digest:
        return (
            "divergent-memory",
            "final NVM image diverges from the continuous-power oracle",
        )
    if not outcome.outputs_ok:
        return (
            "divergent-output",
            "declared outputs diverge from the reference results",
        )
    return "pass", ""


def shrink_schedule(
    bench_name: str,
    env: Env,
    schedule: Schedule,
    oracle: Union[OracleRecord, OracleTotals],
    cache=None,
    interrupt_interval: Optional[int] = None,
) -> Schedule:
    """Minimise a failing schedule to a smallest failing subsequence.

    Tries every proper subsequence in increasing size (lexicographic
    within a size — deterministic), re-replaying each through the cell
    cache, and returns the first one that still fails; planned schedules
    have at most a handful of points, so this exhaustive ddmin is cheap.
    The empty subsequence is the oracle itself and passes by definition.
    """
    if len(schedule) <= 1:
        return tuple(schedule)
    for size in range(1, len(schedule)):
        for picked in combinations(range(len(schedule)), size):
            candidate = tuple(schedule[i] for i in picked)
            outcome = _execute_schedule(
                bench_name, env, candidate, cache,
                interrupt_interval=interrupt_interval, oracle=oracle,
            )
            if certify_outcome(outcome, oracle)[0] != "pass":
                return candidate
    return tuple(schedule)


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------


def run_campaign(config: CampaignConfig, cache=None):
    """Run a full campaign; returns a
    :class:`~repro.faultinject.report.CampaignReport`.

    ``cache`` follows :func:`repro.cache.resolve_cache` (``None`` —
    process-wide disk cache, ``False`` — no caching, instance — pinned
    directory).  All phases are deterministic functions of ``config``
    and the toolchain, so repeated invocations — including after an
    interruption, or with a different ``jobs`` — produce identical
    reports, with completed cells replayed from the cache.
    """
    from .report import CampaignReport

    # payloads carry the resolved store; False, not None, so that a
    # worker does not resolve a default store of its own
    cache = resolve_cache(cache) or False
    pairs = [(bench, env) for bench in config.benches for env in config.envs]

    # Phase 1 — continuous-power oracles + event maps, in parallel.
    oracles = map_ordered(
        _oracle_worker,
        [(bench, env, cache, config.interrupt_interval)
         for bench, env in pairs],
        config.jobs,
    )

    # Phase 2 — plan every pair's schedule set (pure, deterministic).
    plans: List[List[Schedule]] = []
    for (bench, env), oracle in zip(pairs, oracles):
        plan = plan_schedules(
            oracle.events,
            oracle.cycles,
            DEFAULT_COSTS,
            PlanConfig(
                seed=_pair_seed(config.seed, bench, env),
                event_cap=config.event_cap,
                interior_points=config.interior_points,
                post_restore=config.post_restore,
                max_schedules=config.max_schedules,
            ),
        )
        plans.append(plan)

    # Phase 3 — replay every pair's cells, one payload per pair.
    outcomes = map_ordered(
        _pair_worker,
        [(bench, env, plan, cache, config.interrupt_interval, oracle.totals)
         for (bench, env), oracle, plan in zip(pairs, oracles, plans)],
        config.jobs,
    )

    # Phase 4 — certify differentially, shrink the failures.
    results: List[PairResult] = []
    for (bench, env), oracle, pair_outcomes in zip(pairs, oracles, outcomes):
        judged: List[Judged] = []
        for outcome in pair_outcomes:
            verdict, reason = certify_outcome(outcome, oracle)
            entry = Judged(outcome, verdict, reason)
            if verdict != "pass":
                entry.shrunk = shrink_schedule(
                    bench, env, outcome.schedule, oracle.totals, cache,
                    interrupt_interval=config.interrupt_interval,
                )
            judged.append(entry)
        results.append(
            PairResult(bench=bench, env=env_name(env), oracle=oracle,
                       judged=judged)
        )
    return CampaignReport(config=config, pairs=results)


__all__ = [
    "CampaignConfig", "CellOutcome", "Judged", "OracleRecord",
    "OracleTotals", "PairResult", "VERDICTS", "certify_outcome", "env_name",
    "full_config", "quick_config", "run_campaign", "shrink_schedule",
]
