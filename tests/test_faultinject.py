"""The fault-injection campaign engine (repro.faultinject)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.benchsuite import BENCHMARKS, compile_benchmark
from repro.cache import CompileCache
from repro.core.pipeline import ENVIRONMENTS
from repro.emulator import (
    DEFAULT_COSTS,
    EVENT_KINDS,
    CommitLog,
    EventTrace,
    Machine,
    SchedulePower,
)
from repro.eval.runner import power_from_key
from repro.faultinject import (
    CampaignConfig,
    PlanConfig,
    plan_schedules,
    run_campaign,
)
from repro.faultinject import campaign
from repro.faultinject.campaign import _execute_oracle, _execute_schedule


# ---------------------------------------------------------------------------
# SchedulePower
# ---------------------------------------------------------------------------


def test_schedule_power_replays_then_goes_continuous():
    supply = SchedulePower([100, 2000])
    it = supply.on_durations()
    assert next(it) == 100
    assert next(it) == 2000
    assert next(it) > 10**9      # effectively continuous tail
    assert next(it) > 10**9
    assert supply.name == "schedule-100-2000"


def test_schedule_power_rejects_bad_durations():
    with pytest.raises(ValueError):
        SchedulePower([])
    with pytest.raises(ValueError):
        SchedulePower([100, 0])
    with pytest.raises(ValueError):
        SchedulePower([-5])


# ---------------------------------------------------------------------------
# Power keys
# ---------------------------------------------------------------------------


def test_malformed_parameterised_keys_rejected():
    for bad in ("sudden-drop-50000-3", "sudden-drop-a-b-c", "schedule-",
                "schedule-10-x"):
        with pytest.raises(ValueError):
            power_from_key(bad)


# ---------------------------------------------------------------------------
# Event harvesting
# ---------------------------------------------------------------------------


def _traced_run(fast_interp, power=None):
    program = compile_benchmark(BENCHMARKS["crc"], "wario", None, cache=False)
    trace = EventTrace()
    machine = Machine(program, war_check=True, trace=trace,
                      fast_interp=fast_interp)
    stats = machine.run(power=power,
                        max_instructions=BENCHMARKS["crc"].max_instructions)
    return trace, stats


def test_event_trace_requires_war_check():
    program = compile_benchmark(BENCHMARKS["crc"], "wario", None, cache=False)
    with pytest.raises(ValueError):
        Machine(program, war_check=False, trace=EventTrace())


def test_oracle_harvest_records_checkpoints_and_windows():
    trace, stats = _traced_run(fast_interp=True)
    kinds = {e.kind for e in trace.events}
    assert kinds <= set(EVENT_KINDS)
    checkpoints = trace.of_kind("checkpoint")
    assert len(checkpoints) == stats.checkpoints
    assert not trace.of_kind("restore")        # continuous power: no restores
    assert trace.of_kind("war-write")          # each region's first NVM store
    # events arrive in execution order
    cycles = [e.cycle for e in trace.events]
    assert cycles == sorted(cycles)


@pytest.mark.parametrize("durations", [
    pytest.param(None, id="None"),
    pytest.param((5000, 2000, 3000), id="schedule-5000-2000-3000"),
])
def test_event_trace_is_interpreter_independent(durations):
    power = SchedulePower(durations) if durations else None
    fast, fast_stats = _traced_run(True, power)
    power = SchedulePower(durations) if durations else None
    ref, ref_stats = _traced_run(False, power)
    assert fast.as_tuples() == ref.as_tuples()
    assert fast_stats.cycles == ref_stats.cycles
    if durations:
        assert fast.of_kind("restore")         # the schedule really fired


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


_EVENTS = [
    ("checkpoint", 1000, 4, "explicit"),
    ("checkpoint", 5000, 8, "explicit"),
    ("war-write", 1500, 12, ""),
    ("mask", 7000, 16, ""),
    ("unmask", 7040, 20, ""),
]


def test_planner_is_deterministic_and_sorted():
    config = PlanConfig(seed=7, event_cap=4, interior_points=6)
    a = plan_schedules(_EVENTS, 20_000, DEFAULT_COSTS, config)
    b = plan_schedules(_EVENTS, 20_000, DEFAULT_COSTS, config)
    assert a == b
    assert a == sorted(a, key=lambda s: (len(s), s))
    assert len(a) == len(set(a))                       # deduplicated
    assert all(d > 0 for s in a for d in s)
    # the seed only moves the interior points, never the targeted ones
    c = plan_schedules(_EVENTS, 20_000, DEFAULT_COSTS, replace(config, seed=8))
    assert c != a
    targeted = {s for s in a if len(s) > 1}
    assert targeted <= set(c)


def test_planner_targets_every_event_kind():
    plans = plan_schedules(_EVENTS, 20_000, DEFAULT_COSTS, PlanConfig())
    singles = {s[0] for s in plans if len(s) == 1}
    # ±ε around each harvested event cycle
    for _, cycle, _, _ in _EVENTS:
        assert any(abs(point - cycle) <= 60 for point in singles), cycle
    doubles = [s for s in plans if len(s) == 2]
    assert doubles                                     # post-restore failures
    boot = DEFAULT_COSTS.boot_cycles + DEFAULT_COSTS.restore_cycles
    assert all(s[1] > boot for s in doubles)


def test_planner_honours_budget_cap():
    capped = plan_schedules(
        _EVENTS, 20_000, DEFAULT_COSTS, PlanConfig(max_schedules=5)
    )
    assert len(capped) == 5


# ---------------------------------------------------------------------------
# Campaign end to end
# ---------------------------------------------------------------------------


_QUICK = dict(event_cap=2, interior_points=2, post_restore=1, jobs=1)


def test_campaign_certifies_a_war_free_pair():
    config = CampaignConfig(benches=("crc",), envs=("wario",), **_QUICK)
    report = run_campaign(config, cache=False)
    assert report.certified
    assert report.cells > 10
    (pair,) = report.pairs
    assert pair.oracle.war_clean and pair.oracle.outputs_ok
    assert all(j.verdict == "pass" for j in pair.judged)
    # every replay recovered: it failed, rebooted, and re-executed
    for judged in pair.judged:
        assert judged.outcome.power_failures >= len(judged.outcome.schedule)
        assert judged.outcome.instructions >= pair.oracle.instructions


def test_campaign_report_is_deterministic_across_jobs(tmp_path):
    # two pairs: the pair is the unit of fan-out, so jobs=2 reaches the pool
    config = CampaignConfig(benches=("crc",), envs=("wario", "ratchet"),
                            **_QUICK)
    serial = run_campaign(config, cache=CompileCache(str(tmp_path / "a")))
    pooled = run_campaign(
        replace(config, jobs=2), cache=CompileCache(str(tmp_path / "b"))
    )
    assert serial.to_json() == pooled.to_json()


def test_campaign_resumes_from_the_cell_cache(tmp_path):
    config = CampaignConfig(benches=("crc",), envs=("wario",), **_QUICK)
    first = CompileCache(str(tmp_path))
    cold = run_campaign(config, cache=first)
    assert first.stores > 0
    second = CompileCache(str(tmp_path))     # fresh instance, same directory
    warm = run_campaign(config, cache=second)
    assert second.stores == 0                # every cell replayed from disk
    assert second.hits > 0
    assert cold.to_json() == warm.to_json()


def test_campaign_resumes_a_partly_cached_pair(tmp_path):
    config = CampaignConfig(benches=("crc",), envs=("wario",), **_QUICK)
    cold = run_campaign(config, cache=False)
    # a capped plan is a prefix of the full one, under the same keys
    first = 5
    partial = run_campaign(replace(config, max_schedules=first),
                           cache=CompileCache(str(tmp_path)))
    assert partial.cells == first < cold.cells
    resumed = CompileCache(str(tmp_path))
    warm = run_campaign(config, cache=resumed)
    assert resumed.stores == cold.cells - first   # only the missing cells
    assert warm.to_json() == cold.to_json()


def test_a_cached_oracle_keeps_its_commit_log(tmp_path, monkeypatch):
    """An oracle read back from the cache carries its commit log: a
    campaign whose oracle entry is warm and whose cells are all missing
    writes the same report, and its pause cursor still jumps."""
    config = CampaignConfig(benches=("crc",), envs=("wario",), **_QUICK)
    cold = run_campaign(config, cache=False)
    harvested = _execute_oracle("crc", "wario", cache=CompileCache(str(tmp_path)))
    assert harvested.log.commits == harvested.checkpoints
    cached = _execute_oracle("crc", "wario", cache=CompileCache(str(tmp_path)))
    assert cached.log == harvested.log and cached.log is not harvested.log
    jumps = []
    materialize = CommitLog.materialize

    def counting(log, machine, k):
        jumps.append(k)
        return materialize(log, machine, k)

    monkeypatch.setattr(CommitLog, "materialize", counting)
    resumed = CompileCache(str(tmp_path))
    warm = run_campaign(config, cache=resumed)
    assert resumed.stores == cold.cells       # the cells, not the oracle
    assert warm.to_json() == cold.to_json()
    assert jumps


@pytest.mark.parametrize("bench,env", [("crc", "wario"), ("sha", "wario-opt")])
def test_a_campaign_builds_two_machines_per_pair(bench, env, monkeypatch):
    """The oracle and the shared continuous run are a pair's only
    machines: every replay and every commit copy is a fork."""
    built = 0
    init = Machine.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "__init__", counting)
    config = CampaignConfig(benches=(bench,), envs=(env,), **_QUICK)
    report = run_campaign(config, cache=False)
    assert report.certified and report.cells > 10
    assert built == 2


# ---------------------------------------------------------------------------
# Mutation: a seeded consistency bug must be caught and shrunk
# ---------------------------------------------------------------------------


def _mutant_env():
    return replace(ENVIRONMENTS["wario"], name="wario-mutant",
                   drop_checkpoint=0)


def test_drop_checkpoint_rejects_out_of_range_index():
    env = replace(ENVIRONMENTS["wario"], name="wario-mutant",
                  drop_checkpoint=10_000)
    with pytest.raises(ValueError, match="drop_checkpoint"):
        compile_benchmark(BENCHMARKS["crc"], env, None, cache=False)


@pytest.fixture
def full_replays_only(monkeypatch):
    """Fail the test if any cell is fast-forwarded."""
    def refuse(*args):
        raise AssertionError("this cell must be replayed to halt")

    monkeypatch.setattr(campaign, "_fast_forward", refuse)


def test_campaign_catches_and_shrinks_a_dropped_checkpoint(full_replays_only):
    # a WAR-dirty oracle: every cell, shrink candidates included, is
    # replayed to halt
    env = _mutant_env()
    oracle = _execute_oracle("crc", env, cache=False)
    # the dynamic checker already sees the bug under continuous power ...
    assert not oracle.war_clean
    assert any(kind == "war-violation" for kind, _, _, _ in oracle.events)

    config = CampaignConfig(
        benches=("crc",), envs=(env,), event_cap=3, interior_points=2,
        post_restore=1, jobs=1,
    )
    report = run_campaign(config, cache=False)
    # ... and the campaign produces *concrete* divergent executions
    assert not report.certified
    findings = report.findings
    assert findings
    assert {j.verdict for j in findings} == {"divergent-memory"}
    for judged in findings:
        assert judged.shrunk is not None
        assert 1 <= len(judged.shrunk) <= 2
        # the shrunk schedule still fails on its own
        outcome = _execute_schedule("crc", env, judged.shrunk, cache=False)
        assert outcome.memory_digest != oracle.memory_digest
    # at least one two-point schedule shrank to a single failure point
    assert any(len(j.outcome.schedule) == 2 and len(j.shrunk) == 1
               for j in findings)


# ---------------------------------------------------------------------------
# Fast-forwarded replays
# ---------------------------------------------------------------------------


_FAST_FORWARD_PAIRS = [
    (bench, env) for bench in ("crc", "sha")
    for env in ("wario", "ratchet", "wario-opt", "ratchet-opt")
] + [("tiny-aes", "wario-opt")]


@pytest.fixture(scope="module")
def full_replays():
    """(bench, env) -> (oracle, plan, each schedule of the plan replayed
    to halt), for every pair of ``_FAST_FORWARD_PAIRS``: the reference
    both fast-forward tests compare against, replayed once."""
    out = {}
    for bench, env in _FAST_FORWARD_PAIRS:
        oracle = _execute_oracle(bench, env, cache=False)
        plan = plan_schedules(
            oracle.events, oracle.cycles, DEFAULT_COSTS,
            PlanConfig(event_cap=2, interior_points=2, post_restore=1),
        )
        program = compile_benchmark(BENCHMARKS[bench], env, None, cache=False)
        out[bench, env] = (oracle, plan, [
            campaign._replay(BENCHMARKS[bench], program, schedule, None)
            for schedule in plan
        ])
    return out


@pytest.mark.parametrize("bench,env", _FAST_FORWARD_PAIRS)
def test_fast_forward_equals_the_full_replay(bench, env, monkeypatch,
                                             full_replays):
    rejoined = []
    fast_forward = campaign._fast_forward

    def counting(*args):
        outcome = fast_forward(*args)
        rejoined.append(outcome is not None)
        return outcome

    monkeypatch.setattr(campaign, "_fast_forward", counting)
    oracle, plan, full = full_replays[bench, env]
    for schedule, replayed in zip(plan, full):
        fast = _execute_schedule(bench, env, schedule, cache=False,
                                 oracle=oracle.totals)
        assert fast == replayed, schedule
    # every planned replay of these WAR-free builds rejoined the
    # continuous run, so the comparison above covered the shortcut
    assert rejoined == [True] * len(plan)


@pytest.fixture
def rejoins(monkeypatch):
    """Watches the fast-forwarded cells.  ``cells`` maps each schedule to
    ``(point, cause, materialised)``: the point is ``"failure"`` when
    the replay rejoined the pause cursor at its failure point,
    ``"commit"`` when it rejoined the run materialised at a commit, and
    ``None`` when it rejoined nowhere (replayed to halt, or halted on
    its own); the cause of a commit rejoin is ``"differs"`` when the
    replay was compared at its failure point and differed there, and
    ``"committed"`` when it committed after the fork before it could be
    compared; ``materialised`` says whether a commit state was
    materialised for the cell.  ``jumps`` counts the pause cursor's
    jumps along the oracle's log, and ``copies`` collects what
    ``at_commit`` found: no copy yet (``"first"``), one at or behind
    the commit (``"kept"``) or one past it (``"past"``)."""
    log = {"cells": {}, "jumps": 0, "copies": set()}
    fast_forward = campaign._fast_forward
    same = campaign._rejoins
    at_commit = campaign._ContinuousRun.at_commit
    paused_before = campaign._ContinuousRun.paused_before
    materialize = CommitLog.materialize
    cell = {}

    def watching(bench, schedule, oracle, run):
        cell.update(run=run, point=None, compared=False,
                    materialised=False, pausing=False)
        outcome = fast_forward(bench, schedule, oracle, run)
        point = cell["point"] if outcome is not None else None
        cause = None
        if point == "commit":
            cause = "differs" if cell["compared"] else "committed"
        log["cells"][tuple(schedule)] = (point, cause, cell["materialised"])
        return outcome

    def comparing(replay, cursor):
        at_failure = cursor is cell["run"].pause
        cell["compared"] |= at_failure
        result = same(replay, cursor)
        if result:
            cell["point"] = "failure" if at_failure else "commit"
        return result

    def pausing(run, first):
        cell["pausing"] = True
        try:
            return paused_before(run, first)
        finally:
            cell["pausing"] = False

    def committing(run, commits):
        copy = run.committed
        log["copies"].add("first" if copy is None else
                          "past" if copy.stats.checkpoints > commits else
                          "kept")
        return at_commit(run, commits)

    def materializing(self, machine, k):
        if cell["pausing"]:
            log["jumps"] += 1
        else:
            cell["materialised"] = True
        return materialize(self, machine, k)

    monkeypatch.setattr(campaign, "_fast_forward", watching)
    monkeypatch.setattr(campaign, "_rejoins", comparing)
    monkeypatch.setattr(campaign._ContinuousRun, "paused_before", pausing)
    monkeypatch.setattr(campaign._ContinuousRun, "at_commit", committing)
    monkeypatch.setattr(CommitLog, "materialize", materializing)
    return log


def _masked_windows(oracle):
    """``(mask, unmask, commits inside)`` cycle windows of the oracle's
    interrupt-masked epilogues."""
    windows, start, commits = [], None, 0
    for kind, cycle, _pc, _detail in oracle.events:
        if kind == "mask":
            start, commits = cycle, 0
        elif kind == "checkpoint" and start is not None:
            commits += 1
        elif kind == "unmask" and start is not None:
            windows.append((start, cycle, commits))
            start = None
    return windows


def test_pair_executor_equals_the_full_replays(rejoins, full_replays):
    """Over each whole plan, the pair executor's outcomes equal the
    replays to halt, in plan order, and every cell rejoins, at its
    failure point or at a commit.  The pause cursor jumps along the
    oracle's log; cells share a first failure (the pause point is
    reused).  Both causes of a commit rejoin occur: a replay that
    differs from the pause cursor at its failure point and one that
    committed after the fork.  The commit copy is made, kept and
    materialised further, and forked again when a replay's commit
    count falls below it.  A replay that commits past the log's last
    commit is replayed to halt."""
    plans = [(bench, env, oracle, plan, full)
             for (bench, env), (oracle, plan, full) in full_replays.items()]
    # planned commit counts never fall in order of first failure; here
    # the second failure puts the double's commit far past the commit
    # after the epilogue the two singles fail in.  Interrupts are masked
    # there, after a commit that a restore re-enables them at, so both
    # replays differ from the pause cursor at their failure points and
    # rejoin at the same next commit.
    oracle = _execute_oracle("crc", "wario", cache=False)
    first = oracle.cycles // 3
    unmask = next(end for start, end, commits in _masked_windows(oracle)
                  if start > first and commits)
    plan = [(first, 20_000), (first + 1,), (unmask - 1,), (unmask,)]
    program = compile_benchmark(BENCHMARKS["crc"], "wario", None, cache=False)
    full = [campaign._replay(BENCHMARKS["crc"], program, schedule, None)
            for schedule in plan]
    plans.append(("crc", "wario", oracle, plan, full))
    shared_first = 0
    for bench, env, oracle, plan, full in plans:
        rejoins["cells"].clear()
        outcomes = campaign._execute_pair(bench, env, plan, cache=False,
                                          oracle=oracle.totals)
        assert outcomes == full, (bench, env)
        points = rejoins["cells"]
        assert all(points[tuple(s)][0] in ("failure", "commit")
                   for s in plan), (bench, env, points)
        shared_first += len(plan) - len({schedule[0] for schedule in plan})
    assert shared_first
    assert rejoins["jumps"]
    assert [points[s] for s in plan] == [
        ("commit", "committed", True), ("failure", None, False),
        ("commit", "differs", True), ("commit", "differs", True)]
    assert rejoins["copies"] == {"first", "kept", "past"}

    # a log that ends at the epilogue's commit: the pause cursor still
    # jumps there, and every commit rejoin lies past it
    commits = sum(1 for kind, cycle, _pc, _detail in oracle.events
                  if kind == "checkpoint" and cycle < unmask)
    trace = EventTrace()
    Machine(program, trace=trace).run(
        max_instructions=BENCHMARKS["crc"].max_instructions,
        stop_after_commits=commits)
    rejoins["cells"].clear()
    rejoins["jumps"] = 0
    outcomes = campaign._execute_pair(
        "crc", "wario", plan, cache=False,
        oracle=oracle.totals._replace(log=trace.log))
    assert outcomes == full
    assert rejoins["jumps"]
    assert [rejoins["cells"][s] for s in plan] == [
        (None, None, False), ("failure", None, False),
        (None, None, False), (None, None, False)]


def test_single_failures_rejoin_at_the_failure_point(rejoins):
    """In a single-failure plan of crc under ``wario``, every cell whose
    failure lies outside the oracle's interrupt-masked epilogues rejoins
    the pause cursor at its failure point, without a commit state being
    materialised; the epilogues' cells also match the replays to halt."""
    bench = BENCHMARKS["crc"]
    oracle = _execute_oracle("crc", "wario", cache=False)
    windows = _masked_windows(oracle)
    plan = [(t,) for t in range(13, oracle.cycles, 41)]
    plan += [(t,) for start, end, _ in windows[:2]
             for t in range(start - 2, end + 3)]
    outcomes = campaign._execute_pair("crc", "wario", plan, cache=False,
                                      oracle=oracle.totals)
    outside = [s for s in plan
               if not any(start <= s[0] <= end for start, end, _ in windows)]
    assert len(outside) > 700
    for schedule in outside:
        assert rejoins["cells"][schedule] == ("failure", None, False), schedule
    inside = [s for s in plan if s not in outside]
    assert any(rejoins["cells"][s][0] == "commit" for s in inside)
    program = compile_benchmark(bench, "wario", None, cache=False)
    for schedule, outcome in zip(plan, outcomes):
        if schedule in inside:
            assert outcome == campaign._replay(bench, program, schedule, None)


def test_interrupt_load_replays_every_cell_to_halt(full_replays_only):
    config = CampaignConfig(benches=("crc",), envs=("wario",),
                            interrupt_interval=733, **_QUICK)
    report = run_campaign(config, cache=False)
    assert report.certified
    assert report.cells > 10


def test_fast_forward_falls_back_unless_the_replay_provably_rejoins(
        monkeypatch):
    bench = BENCHMARKS["crc"]
    program = compile_benchmark(bench, "wario", None, cache=False)
    oracle = _execute_oracle("crc", "wario", cache=False)
    schedule = (oracle.cycles // 2,)
    full = _execute_schedule("crc", "wario", schedule, cache=False)

    def run():
        return campaign._ContinuousRun(program, bench.max_instructions,
                                       oracle.log)

    assert campaign._fast_forward(bench, schedule, oracle.totals,
                                  run()) == full
    # a spliced total at the instruction limit
    at_limit = oracle.totals._replace(instructions=bench.max_instructions)
    assert campaign._fast_forward(bench, schedule, at_limit, run()) is None
    # machines that never reach the same state
    monkeypatch.setattr(Machine, "same_state", lambda self, other: False)
    assert campaign._fast_forward(bench, schedule, oracle.totals,
                                  run()) is None
    assert _execute_schedule("crc", "wario", schedule, cache=False,
                             oracle=oracle.totals) == full
