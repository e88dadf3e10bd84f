"""The block-granular emulator loop against the reference interpreter.

``Machine(..., fast_interp=True)`` executes a straight-line run with its
counters updated once and steps one instruction at a time only where a
boundary may fall inside the run: a power failure, a JIT checkpoint, a
timer interrupt, the instruction limit, a pause or a stop.  These tests
drive both interpreters through the same scenario and compare every
observable after every ``run`` call.

The first power-on period is aimed from a continuous reference trace
so that it expires at the first, a middle or the last instruction of a
run, or just after it.  The later periods, the timer interval, the JIT
threshold, the instruction limit and the sequence of pauses, stops
(after commits, after failures, at instruction counts) and forks are
drawn freely, and the middle of a run may be planted with an
out-of-bounds store, an instruction no interpreter can execute, or a
branch to the end of the program or past it.  A WAR-checked scenario
runs traced or untraced: the fast loop checks untraced stores inline
and routes traced ones through ``Machine.write_mem``.

The commit log of a traced continuous run is checked against the run
itself: a machine materialised at a commit equals the run stopped
there.
"""

import dataclasses
import functools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.mir import MInstr
from repro.benchsuite import BENCHMARKS, compile_benchmark, get_benchmark
from repro.core.pipeline import ENVIRONMENTS
from repro.emulator import (
    DEFAULT_COSTS,
    EmulationError,
    EmulationLimit,
    EventTrace,
    Machine,
    SchedulePower,
)

PROGRAMS = sorted(BENCHMARKS) + ["xcall"]
ENVS = ("wario", "ratchet", "wario-opt")

#: opcodes that end a straight-line run
TERMINATORS = {"b", "bcc", "bl", "bx_lr", "checkpoint", "cpsid", "cpsie"}

#: instructions of the continuous reference trace used for aiming
TRACE_WINDOW = 1500

#: ``(war_check, traced)``: unchecked, checked inline, checked and traced
CHECKS = ((False, False), (True, False), (True, True))


@functools.lru_cache(maxsize=None)
def program_of(name, env):
    return compile_benchmark(get_benchmark(name), env)


@functools.lru_cache(maxsize=None)
def reference_trace(name, env):
    """``(pc, cycles before it)`` of the first instructions of the
    continuous reference run, one limit-stepped instruction at a time."""
    machine = Machine(program_of(name, env), fast_interp=False)
    trace = []
    for count in range(1, TRACE_WINDOW + 1):
        trace.append((machine.pc, machine.stats.cycles))
        try:
            machine.run(max_instructions=count)
        except EmulationLimit:
            continue
        break  # halted
    return trace


def runs_of(program, trace):
    """``(first, last)`` trace indices of each executed run: a run starts
    after a terminator and ends at the next one."""
    spans, start = [], 0
    for index, (pc, _cycles) in enumerate(trace):
        if program.instrs[pc].opcode in TERMINATORS:
            spans.append((start, index))
            start = index + 1
    return spans


def plant(program, pc, what="store"):
    """A copy of ``program`` whose instruction at ``pc`` stores past the
    end of memory (``"store"``), has an opcode no interpreter knows
    (``"bogus"``), or branches to the end of the program (``"end"``) or
    past it (``"past"``)."""
    instrs = list(program.instrs)
    instrs[pc] = {
        "store": MInstr("str", ops=[7, "sp", 0x100000]),
        "bogus": MInstr("bogus"),
        "end": MInstr("b", ops=[len(instrs)]),
        "past": MInstr("b", ops=[len(instrs) + 3]),
    }[what]
    return dataclasses.replace(program, instrs=instrs)


def snapshot(machine):
    """Every observable of a machine, copied."""
    stats = machine.stats
    war = machine.war
    trace = machine._trace
    return (
        stats.copy(),
        list(stats.checkpoint_causes.items()),
        list(stats.call_counts.items()),
        bytes(machine.memory),
        list(machine.regs.items()),
        machine.pc,
        machine.last_cmp,
        machine.interrupts_enabled,
        machine.pending_interrupt,
        machine._next_interrupt,
        machine._period_used,
        machine._jit_fired,
        machine.region_cycles,
        machine._failures_since_checkpoint,
        machine._ckpt_active,
        machine.commit_instructions,
        None if war is None else (
            list(war.violations), list(war.first.items()), war.region_index),
        None if trace is None else (
            trace.as_tuples(), trace._war_armed, trace.log.copy()),
    )


def play(program, scenario, fast):
    """Run ``scenario`` on one interpreter; the snapshot after each call,
    and the exception that ended it, if any."""
    war = scenario["war"]
    machine = Machine(
        program, war_check=war, fast_interp=fast,
        interrupt_interval=scenario["interval"],
        jit_checkpoint_threshold=scenario["jit"],
        trace=EventTrace() if scenario["traced"] else None,
    )
    periods, limit = scenario["periods"], scenario["limit"]
    power = SchedulePower(periods) if periods else None
    states = []
    for action in scenario["calls"] + ["run"]:
        try:
            if action == "fork":
                machine = machine.fork()
            elif action == "pause":
                machine.run(power, limit, pause_before_failure=True)
            elif action.startswith("stop"):
                commits = machine.stats.checkpoints + int(action[4:])
                machine.run(power, limit, stop_after_commits=commits)
            elif action.startswith("fail"):
                failures = machine.stats.power_failures + int(action[4:])
                machine.run(power, limit, stop_after_failures=failures)
            elif action.startswith("count"):
                count = machine.stats.instructions + int(action[5:])
                machine.run(power, limit, stop_at_instructions=count)
            else:
                machine.run(power, limit)
        except EmulationError as exc:
            states.append(snapshot(machine))
            return states, (type(exc), str(exc))
        states.append(snapshot(machine))
    return states, None


@st.composite
def scenarios(draw):
    name = draw(st.sampled_from(PROGRAMS))
    env = draw(st.sampled_from(ENVS))
    program = program_of(name, env)
    trace = reference_trace(name, env)
    spans = runs_of(program, trace)
    first, last = draw(st.sampled_from(spans))
    aim = draw(st.sampled_from((first, (first + last) // 2, last)))
    pc, before = trace[aim]
    # the period expires at the aimed instruction, or just after it
    cost = DEFAULT_COSTS.cost_of(program.instrs[pc])
    expiry = max(1, before + cost - draw(st.sampled_from((0, 1))))
    later = draw(st.lists(st.integers(1, 20_000), max_size=2))
    periods = draw(st.sampled_from(([expiry] + later, [expiry], None)))
    planted = None
    if draw(st.booleans()):
        # a faulting instruction in the middle of an executed run
        first, last = draw(st.sampled_from(
            [span for span in spans if span[1] - span[0] >= 2] or spans))
        planted = (trace[(first + last) // 2][0],
                   draw(st.sampled_from(("store", "bogus", "end", "past"))))
    bench = get_benchmark(name)
    limit = draw(st.sampled_from((bench.max_instructions, None)))
    if limit is None:
        limit = draw(st.integers(1, 2 * len(trace)))
    war = draw(st.booleans())
    return {
        "program": (name, env),
        "planted": planted,
        "war": war,
        "traced": war and draw(st.booleans()),
        "interval": draw(st.none() | st.integers(40, 4000)),
        "jit": draw(st.none() | st.integers(0, 2500)),
        "periods": periods,
        "limit": limit,
        "calls": draw(st.lists(
            st.sampled_from(("pause", "stop1", "stop3", "fail1", "fail2",
                             "count1", "count40", "run", "fork")),
            max_size=4)),
    }


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_runs_match_the_reference_interpreter(scenario):
    program = program_of(*scenario["program"])
    if scenario["planted"] is not None:
        program = plant(program, *scenario["planted"])
    fast = play(program, scenario, fast=True)
    reference = play(program, scenario, fast=False)
    assert fast == reference


def test_aimed_periods_cover_every_run_position():
    """The aiming trace holds runs of three or more instructions, so a
    period can expire at a run's first, a middle and its last one."""
    program = program_of("crc", "wario")
    spans = runs_of(program, reference_trace("crc", "wario"))
    assert any(last - first >= 2 for first, last in spans)


def test_a_planted_store_faults_identically():
    """An out-of-bounds store inside a run: both interpreters raise the
    same error with the same counters, with and without WAR checking
    and tracing."""
    program = program_of("sha", "wario")
    trace = reference_trace("sha", "wario")
    first, last = next(span for span in runs_of(program, trace)
                       if span[1] - span[0] >= 4)
    planted = plant(program, trace[first + 2][0])
    for war, traced in CHECKS:
        scenario = {"war": war, "traced": traced, "interval": None,
                    "jit": None, "periods": None, "limit": 1_000_000,
                    "calls": []}
        fast = play(planted, scenario, fast=True)
        assert fast[1][0] is EmulationError
        assert fast[1][1].startswith("store out of bounds: 0x")
        assert fast[0][-1][0].instructions == first + 3
        assert fast == play(planted, scenario, fast=False)


def test_a_malformed_program_fails_identically():
    """An instruction no interpreter can execute and a branch to the end
    of the program or past it: both interpreters raise the same
    ``EmulationError`` with the same counters, with and without WAR
    checking and tracing, and under a supply that fails inside the
    run."""
    program = program_of("sha", "wario")
    trace = reference_trace("sha", "wario")
    first, last = next(span for span in runs_of(program, trace)
                       if span[1] - span[0] >= 4)
    pc = trace[first + 2][0]
    end = len(program.instrs)
    messages = {
        "bogus": "cannot execute bogus",
        "end": "cannot execute 'the end of the program'",
        "past": f"no instruction at pc {end + 3}",
    }
    for what, message in messages.items():
        planted = plant(program, pc, what)
        for war, traced in CHECKS:
            for periods in (None, [trace[first + 1][1] + 1, 5000]):
                scenario = {"war": war, "traced": traced, "interval": None,
                            "jit": None, "periods": periods,
                            "limit": 1_000_000,
                            "calls": ["fail1"] if periods else []}
                fast = play(planted, scenario, fast=True)
                assert fast[1][0] is EmulationError, (what, fast[1])
                assert fast[1][1].startswith(message), (what, fast[1])
                assert fast == play(planted, scenario, fast=False), what


def test_a_run_program_pickles_without_emulator_caches():
    program = compile_benchmark(BENCHMARKS["crc"], "wario", cache=False)
    machine = Machine(program)
    machine.run()
    assert hasattr(program, "_decoded_cache")
    clone = pickle.loads(pickle.dumps(program))
    assert not hasattr(clone, "_decoded_cache")
    again = Machine(clone)
    again.run()
    assert snapshot(again) == snapshot(machine)


@functools.lru_cache(maxsize=None)
def crc_mutant():
    """crc with its first checkpoint dropped: WAR-dirty on purpose."""
    env = dataclasses.replace(ENVIRONMENTS["wario"], name="wario-mutant",
                              drop_checkpoint=0)
    return compile_benchmark(get_benchmark("crc"), env, cache=False)


def test_untraced_war_checks_record_the_reference_violations():
    """The ``drop_checkpoint=0`` crc mutant, WAR-checked and untraced:
    the fast loop's inline store checks record the reference
    interpreter's violations and first accesses."""
    program = crc_mutant()
    limit = get_benchmark("crc").max_instructions
    fast, reference = (Machine(program, war_check=True, fast_interp=fast)
                       for fast in (True, False))
    fast.run(max_instructions=limit)
    reference.run(max_instructions=limit)
    assert fast.war.violations
    assert fast.war.violations == reference.war.violations
    assert list(fast.war.first.items()) == list(reference.war.first.items())


#: oracles whose commit logs are materialised at every commit
LOGGED = (("crc", "wario"), ("sha", "wario-opt"), ("tiny-aes", "ratchet"))


@functools.lru_cache(maxsize=None)
def commit_log(name, env):
    """The commit log of the traced continuous run (the oracle's)."""
    trace = EventTrace()
    Machine(program_of(name, env), trace=trace).run(
        max_instructions=get_benchmark(name).max_instructions)
    return trace.log


@pytest.mark.parametrize("name,env", LOGGED)
def test_a_materialised_commit_equals_the_run_stopped_there(name, env):
    """At every commit ``k``, a fresh machine materialised at ``k`` and
    a cursor materialised from commit ``k - 1`` equal the run stopped
    after its ``k``-th commit; at every other commit the cursor first
    runs into the region before ``k``.  From the first, a middle and
    the last commit, the fresh machine and the stopped run go on to the
    same halted state."""
    program = program_of(name, env)
    limit = get_benchmark(name).max_instructions
    log = commit_log(name, env)
    assert log.commits > 50
    pristine = Machine(program)
    stopped, cursor = Machine(program), Machine(program)
    for k in range(1, log.commits + 1):
        stopped.run(None, limit, stop_after_commits=k)
        expected = snapshot(stopped)
        fresh = pristine.fork()
        log.materialize(fresh, k)
        assert snapshot(fresh) == expected, k
        before = log.commit_instructions[k - 2] if k > 1 else 0
        inside = (before + log.commit_instructions[k - 1]) // 2
        if k % 2 and inside > cursor.stats.instructions:
            cursor.run(None, limit, stop_at_instructions=inside)
            assert cursor.stats.checkpoints == k - 1
        log.materialize(cursor, k)
        assert snapshot(cursor) == expected, k
        if k in (1, log.commits // 2, log.commits):
            rest = stopped.fork()
            rest.run(None, limit)
            fresh.run(None, limit)
            assert rest.stats.halted
            assert snapshot(fresh) == snapshot(rest), k


def test_materialising_outside_the_contract_raises():
    """A commit the log does not hold, a machine past the commit, one
    that failed, is traced or has a timer or JIT threshold, and a log
    whose run had WAR violations the machine has not: ``ValueError``."""
    program = program_of("crc", "wario")
    limit = get_benchmark("crc").max_instructions
    log = commit_log("crc", "wario")
    for k in (0, log.commits + 1):
        with pytest.raises(ValueError, match="is not one of the log's"):
            log.materialize(Machine(program), k)
    machine = Machine(program)
    machine.run(None, limit, stop_after_commits=5)
    for k in (3, 4):
        with pytest.raises(ValueError, match="past commit"):
            log.materialize(machine.fork(), k)
    log.materialize(machine, 5)  # standing at the commit: nothing to do
    machine.run(None, limit, stop_at_instructions=machine.stats.instructions + 1)
    with pytest.raises(ValueError, match="past commit 5"):
        log.materialize(machine, 5)
    machine.run(None, limit)
    with pytest.raises(ValueError, match=f"past commit {log.commits}"):
        log.materialize(machine, log.commits)
    failed = Machine(program)
    failed.run(SchedulePower((2000,)), limit, stop_after_failures=1)
    traced = Machine(program, trace=EventTrace())
    for other in (failed, traced, Machine(program, interrupt_interval=500),
                  Machine(program, jit_checkpoint_threshold=100)):
        with pytest.raises(ValueError, match="never failed"):
            log.materialize(other, log.commits)
    # the violations themselves are not logged
    trace = EventTrace()
    Machine(crc_mutant(), trace=trace).run(max_instructions=limit)
    dirty = trace.log
    k = next(k for k in range(1, dirty.commits + 1)
             if dirty.commit_violations[k - 1])
    dirty.materialize(Machine(crc_mutant()), k - 1)
    with pytest.raises(ValueError, match="recorded WAR violations"):
        dirty.materialize(Machine(crc_mutant()), k)
