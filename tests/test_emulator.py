"""Emulator tests: WAR checker, power failures, checkpoint restore,
interrupts, cycle accounting, and emulation limits."""

from dataclasses import replace

import pytest

from helpers import compile_and_run

from repro import FixedPeriodPower, Machine, iclang, trace_a, trace_b
from repro.benchsuite import BENCHMARKS, compile_benchmark
from repro.core.pipeline import ENVIRONMENTS
from repro.emulator import (
    DEFAULT_COSTS,
    ContinuousPower,
    CostModel,
    EmulationLimit,
    EventTrace,
    NoForwardProgress,
    SchedulePower,
    WARChecker,
)

SRC_LOOP = """
unsigned int acc[16]; unsigned int total;
int main(void) {
    int i; unsigned int t = 0;
    for (i = 0; i < 16; i++) {
        acc[i] = acc[i] + (unsigned int)i;
        t = t + acc[i];
    }
    total = t;
    return 0;
}
"""

EXPECTED_ACC = list(range(16))
EXPECTED_TOTAL = sum(range(16))


class TestWARChecker:
    def test_read_then_write_flags(self):
        w = WARChecker()
        w.on_read(100, 4)
        w.on_write(100, 4)
        assert not w.clean
        assert w.violations[0].address == 100

    def test_write_then_read_ok(self):
        w = WARChecker()
        w.on_write(100, 4)
        w.on_read(100, 4)
        w.on_write(100, 4)
        assert w.clean

    def test_checkpoint_resets_region(self):
        w = WARChecker()
        w.on_read(100, 4)
        w.on_checkpoint()
        w.on_write(100, 4)
        assert w.clean
        assert w.region_index == 1

    def test_partial_overlap_detected(self):
        w = WARChecker()
        w.on_read(100, 4)
        w.on_write(102, 2)  # overlaps bytes 102-103
        assert not w.clean

    def test_disjoint_accesses_ok(self):
        w = WARChecker()
        w.on_read(100, 4)
        w.on_write(104, 4)
        assert w.clean

    def test_one_violation_per_region_address(self):
        w = WARChecker()
        w.on_read(100, 4)
        w.on_write(100, 4)
        w.on_write(100, 4)
        assert len(w.violations) == 4  # one per byte, not per repeat

    def test_restore_clears_tracking(self):
        w = WARChecker()
        w.on_read(100, 4)
        w.on_power_restore()
        w.on_write(100, 4)
        assert w.clean


class TestExecution:
    def test_plain_continuous(self):
        machine = compile_and_run(SRC_LOOP)
        assert machine.read_global("acc", 16) == EXPECTED_ACC
        assert machine.read_global("total") == EXPECTED_TOTAL
        assert machine.stats.halted

    def test_plain_flags_war_violations(self):
        machine = compile_and_run(SRC_LOOP, war_check=True)
        assert not machine.war.clean  # uninstrumented code has WARs

    def test_instrumented_war_free(self):
        machine = compile_and_run(SRC_LOOP, env="wario", war_check=True)
        assert machine.war.clean
        assert machine.read_global("total") == EXPECTED_TOTAL

    def test_cycles_monotone_with_instrumentation(self):
        plain = compile_and_run(SRC_LOOP).stats.cycles
        inst = compile_and_run(SRC_LOOP, env="ratchet").stats.cycles
        assert inst > plain

    @pytest.mark.parametrize("fast_interp", [True, False])
    def test_violations_name_their_function_and_line(self, fast_interp):
        # a dropped checkpoint leaves a WAR in crc_chunk, not in main
        env = replace(ENVIRONMENTS["wario"], name="wario-mutant",
                      drop_checkpoint=0)
        program = compile_benchmark(BENCHMARKS["crc"], env, None, cache=False)
        machine = Machine(program, war_check=True, fast_interp=fast_interp)
        machine.run()
        violations = machine.war.violations
        assert len(violations) == 128
        assert {(v.pc, v.function, str(v.loc)) for v in violations} == {
            (102, "crc_chunk", "crc.0:54")}
        assert str(violations[0]) == (
            "WAR violation: store to 0x1604 after a load in the same "
            "idempotent region (pc=102, fn=crc_chunk, region #1, crc.0:54)")

    def test_checkpoint_flags_preserved(self):
        # a checkpoint between cmp and the dependent branch must not
        # corrupt the comparison (flags are saved by the runtime)
        src = """
        unsigned int a; unsigned int out;
        int main(void) {
            unsigned int x = a;
            a = x + 1;  /* WAR: a checkpoint lands nearby */
            if (a > 0) { out = 7; } else { out = 9; }
            return 0;
        }
        """
        machine = compile_and_run(src, env="wario", war_check=True)
        assert machine.read_global("out") == 7

    def test_emulation_limit(self):
        src = "int main(void) { for (;;) { } return 0; }"
        program = iclang(src, "plain")
        machine = Machine(program)
        with pytest.raises(EmulationLimit):
            machine.run(max_instructions=1000)

    def test_region_sizes_recorded(self):
        machine = compile_and_run(SRC_LOOP, env="wario")
        stats = machine.stats
        assert stats.checkpoints == len(stats.region_sizes)
        assert stats.region_max >= stats.region_median


class TestIntermittentPower:
    def test_power_failures_and_recovery(self):
        program = iclang(SRC_LOOP, "wario")
        cm = CostModel(boot_cycles=50)
        machine = Machine(program, cost_model=cm, war_check=True)
        stats = machine.run(power=FixedPeriodPower(800))
        assert stats.power_failures > 0
        assert machine.read_global("acc", 16) == EXPECTED_ACC
        assert machine.read_global("total") == EXPECTED_TOTAL
        assert machine.war.clean

    def test_more_failures_with_shorter_periods(self):
        program = iclang(SRC_LOOP, "wario")
        cm = CostModel(boot_cycles=50)
        failures = []
        for period in (800, 1500, 6000):
            machine = Machine(iclang(SRC_LOOP, "wario"), cost_model=cm)
            stats = machine.run(power=FixedPeriodPower(period))
            failures.append(stats.power_failures)
        assert failures[0] >= failures[1] >= failures[2]

    def test_no_forward_progress_detected(self):
        program = iclang(SRC_LOOP, "plain")  # no checkpoints: restart loops
        cm = CostModel(boot_cycles=50)
        machine = Machine(program, cost_model=cm)
        with pytest.raises((NoForwardProgress, EmulationLimit)):
            machine.run(power=FixedPeriodPower(120), max_instructions=500_000)

    def test_power_starvation_raises_in_both_interpreters(self):
        # Every on-period shorter than boot + restore is a dead period:
        # the machine can never recover, and both interpreters must give
        # up identically (same exception, same stats at the raise).
        program = iclang(SRC_LOOP, "wario")
        boot = DEFAULT_COSTS.boot_cycles + DEFAULT_COSTS.restore_cycles
        outcomes = []
        for fast in (True, False):
            machine = Machine(program, fast_interp=fast)
            with pytest.raises(NoForwardProgress, match="boot"):
                machine.run(power=FixedPeriodPower(boot // 2))
            stats = machine.stats
            outcomes.append((stats.instructions, stats.cycles,
                             stats.power_failures, stats.checkpoints))
            assert stats.power_failures > 10_000   # the dead-period counter
        assert outcomes[0] == outcomes[1]

    def test_intermittent_costs_more_cycles(self):
        cm = CostModel(boot_cycles=50)
        m1 = Machine(iclang(SRC_LOOP, "wario"), cost_model=cm)
        continuous = m1.run().cycles
        m2 = Machine(iclang(SRC_LOOP, "wario"), cost_model=cm)
        intermittent = m2.run(power=FixedPeriodPower(800)).cycles
        assert intermittent > continuous

    def test_continuous_power_object(self):
        machine = Machine(iclang(SRC_LOOP, "wario"))
        stats = machine.run(power=ContinuousPower())
        assert stats.power_failures == 0

    def test_trace_power_deterministic(self):
        assert trace_a().sample(10) == trace_a().sample(10)
        assert trace_a().sample(5) != trace_b().sample(5)

    def test_memory_survives_registers_do_not(self):
        # after a failure, NVM keeps the partial array; execution resumes
        # from the checkpoint and still converges to the right answer
        program = iclang(SRC_LOOP, "wario")
        cm = CostModel(boot_cycles=50)
        machine = Machine(program, cost_model=cm)
        stats = machine.run(power=FixedPeriodPower(800))
        assert stats.power_failures >= 1
        assert stats.reexecuted_cycles > 0
        assert machine.read_global("total") == EXPECTED_TOTAL


class TestInterrupts:
    SRC_CALL = """
    unsigned int g;
    unsigned int work(unsigned int x) {
        int i;
        for (i = 0; i < 40; i++) { x = x * 3 + 1; x = x ^ (x >> 2); x = x + (unsigned int)i; }
        return x;
    }
    int main(void) {
        unsigned int r = 0; int k;
        for (k = 0; k < 6; k++) { r = r + work((unsigned int)k); }
        g = r;
        return 0;
    }
    """

    def _expected(self):
        M = 0xFFFFFFFF

        def work(x):
            for i in range(40):
                x = (x * 3 + 1) & M
                x = (x ^ (x >> 2)) & M
                x = (x + i) & M
            return x

        r = 0
        for k in range(6):
            r = (r + work(k)) & M
        return r

    def test_interrupts_do_not_change_results(self):
        program = iclang(self.SRC_CALL, "wario")
        machine = Machine(program, interrupt_interval=997)
        stats = machine.run()
        assert stats.interrupts > 0
        assert machine.read_global("g") == self._expected()

    def test_instrumented_code_war_free_under_interrupts(self):
        program = iclang(self.SRC_CALL, "wario")
        machine = Machine(program, war_check=True, interrupt_interval=733)
        machine.run()
        assert machine.war.clean

    def test_ratchet_also_war_free_under_interrupts(self):
        program = iclang(self.SRC_CALL, "ratchet")
        machine = Machine(program, war_check=True, interrupt_interval=733)
        machine.run()
        assert machine.war.clean

    def test_interrupts_masked_in_wario_epilogue(self):
        # cpsid defers interrupts; they fire after cpsie and never corrupt
        program = iclang(self.SRC_CALL, "wario")
        machine = Machine(program, war_check=True, interrupt_interval=101)
        stats = machine.run()
        assert machine.war.clean
        assert stats.interrupts > 0


class TestPauseStopFork:
    """Pausing before a power failure, stopping after a commit and
    forking: split runs must equal one uninterrupted run."""

    #: distinct periods, so a resume that skipped the wrong number of
    #: spent periods would show (crc's first region is about 10.8k cycles)
    POWER = SchedulePower((11_500, 4_000, 3_000, 5_000))
    LIMIT = 1_000_000

    @staticmethod
    def program(env):
        if env == "mutant":  # a dropped checkpoint: dynamic WAR violations
            env = replace(ENVIRONMENTS["wario"], name="wario-mutant",
                          drop_checkpoint=0)
        return compile_benchmark(BENCHMARKS["crc"], env, None, cache=False)

    @staticmethod
    def state(machine):
        war = machine.war
        return (machine.stats.copy(), bytes(machine.memory),
                dict(machine.regs), machine.pc, machine.last_cmp,
                machine._ckpt_active, machine.commit_instructions,
                list(war.violations), dict(war.first), war.region_index)

    def whole(self, program, power, fast_interp=True):
        machine = Machine(program, fast_interp=fast_interp)
        machine.run(power, self.LIMIT)
        return self.state(machine)

    @pytest.mark.parametrize("fast_interp", [True, False])
    @pytest.mark.parametrize("env", ["wario", "mutant"])
    def test_pause_then_resume_equals_one_run(self, env, fast_interp):
        program = self.program(env)
        split = Machine(program, fast_interp=fast_interp)
        stats = split.run(self.POWER, self.LIMIT, pause_before_failure=True)
        assert not stats.halted and stats.power_failures == 0
        split.run(self.POWER, self.LIMIT,
                  stop_after_commits=stats.checkpoints + 2)
        failures = stats.power_failures
        assert failures >= 1 and not stats.halted
        split.run(self.POWER, self.LIMIT, pause_before_failure=True)
        assert stats.power_failures == failures and not stats.halted
        split.run(self.POWER, self.LIMIT)
        assert stats.halted and stats.power_failures == 4
        whole = self.whole(program, self.POWER, fast_interp)
        assert self.state(split) == whole
        if env == "mutant":
            assert whole[-1]                   # the violations were compared

    @pytest.mark.parametrize("fast_interp", [True, False])
    @pytest.mark.parametrize("env", ["wario", "mutant"])
    def test_stop_then_resume_equals_one_run(self, env, fast_interp):
        program = self.program(env)
        split = Machine(program, fast_interp=fast_interp)
        for commits in (1, 3):
            stats = split.run(None, self.LIMIT, stop_after_commits=commits)
            assert stats.checkpoints == commits and not stats.halted
            assert program.instrs[split.pc - 1].opcode == "checkpoint"
        split.run(None, self.LIMIT)
        assert self.state(split) == self.whole(program, None, fast_interp)

    @pytest.mark.parametrize("env", ["wario", "mutant"])
    def test_a_fork_runs_apart_from_its_parent(self, env):
        program = self.program(env)
        parent = Machine(program, trace=EventTrace())
        parent.run(self.POWER, self.LIMIT, pause_before_failure=True)
        before = self.state(parent), parent._trace.as_tuples()
        child = parent.fork()
        assert child.same_state(parent)
        child.run(self.POWER, self.LIMIT)
        assert not child.same_state(parent)
        assert (self.state(parent), parent._trace.as_tuples()) == before
        trace = EventTrace()
        whole = Machine(program, trace=trace)
        whole.run(self.POWER, self.LIMIT)
        whole = self.state(whole), trace.as_tuples()
        assert (self.state(child), child._trace.as_tuples()) == whole
        parent.run(self.POWER, self.LIMIT)
        assert (self.state(parent), parent._trace.as_tuples()) == whole

    @pytest.mark.parametrize("fast_interp", [True, False])
    def test_a_halted_machine_stays_halted(self, fast_interp):
        machine = Machine(self.program("wario"), fast_interp=fast_interp)
        stats = machine.run(None, self.LIMIT)
        assert stats.halted
        halted = self.state(machine)
        for power in (None, self.POWER):
            assert machine.run(power, self.LIMIT) is stats
            assert machine.run(power, self.LIMIT,
                               pause_before_failure=True) is stats
            assert machine.run(power, self.LIMIT,
                               stop_after_commits=stats.checkpoints + 1) is stats
        assert self.state(machine) == halted

    @pytest.mark.parametrize("fast_interp", [True, False])
    def test_a_stale_commit_count_is_refused(self, fast_interp):
        machine = Machine(self.program("wario"), fast_interp=fast_interp)
        with pytest.raises(ValueError, match="stop_after_commits=0"):
            machine.run(None, self.LIMIT, stop_after_commits=0)
        stats = machine.run(None, self.LIMIT, stop_after_commits=3)
        stopped = self.state(machine)
        for commits in (3, 2):
            with pytest.raises(ValueError, match="3 commits already made"):
                machine.run(None, self.LIMIT, stop_after_commits=commits)
        assert self.state(machine) == stopped
        machine.run(None, self.LIMIT, stop_after_commits=4)
        assert stats.checkpoints == 4 and not stats.halted

    @pytest.mark.parametrize("fork", [False, True])
    @pytest.mark.parametrize("fast_interp", [True, False])
    @pytest.mark.parametrize("env", ["wario", "mutant"])
    def test_failure_and_count_stops_then_resume_equal_one_run(
            self, env, fast_interp, fork):
        """A run that returns right after a failure's restore, then at
        an instruction count, then after two more failures, and is then
        resumed (forked or not) equals one uninterrupted run."""
        program = self.program(env)
        split = Machine(program, fast_interp=fast_interp)
        stats = split.run(self.POWER, self.LIMIT, stop_after_failures=1)
        assert stats.power_failures == 1 and not stats.halted
        # right after the restore: the active checkpoint's registers and
        # pc, and a WAR region that starts afresh
        regs, pc, cmp_state = split._ckpt_active
        assert (split.regs, split.pc, split.last_cmp) == (regs, pc, cmp_state)
        assert not split.war.first and split._period_used == (
            DEFAULT_COSTS.boot_cycles + DEFAULT_COSTS.restore_cycles)
        count = stats.instructions + 777
        split.run(self.POWER, self.LIMIT, stop_at_instructions=count)
        assert stats.instructions == count and stats.power_failures == 1
        if fork:
            split = split.fork()
        stats = split.run(self.POWER, self.LIMIT, stop_after_failures=3)
        assert stats.power_failures == 3 and not stats.halted
        split.run(self.POWER, self.LIMIT)
        assert stats.halted and stats.power_failures == 4
        assert self.state(split) == self.whole(program, self.POWER, fast_interp)

    @pytest.mark.parametrize("fast_interp", [True, False])
    def test_a_dead_period_passes_a_failure_stop(self, fast_interp):
        """A period too short to boot counts as a failure of its own: a
        stop at the first failure returns after the restore that
        follows both."""
        program = self.program("wario")
        power = SchedulePower((11_500, 10, 4_000))
        split = Machine(program, fast_interp=fast_interp)
        stats = split.run(power, self.LIMIT, stop_after_failures=1)
        assert stats.power_failures == 2 and split.pc == split._ckpt_active[1]
        split.run(power, self.LIMIT)
        assert self.state(split) == self.whole(program, power, fast_interp)

    @pytest.mark.parametrize("fast_interp", [True, False])
    def test_a_count_stop_returns_only_below_the_limit(self, fast_interp):
        program = self.program("wario")
        machine = Machine(program, fast_interp=fast_interp)
        stats = machine.run(None, 500, stop_at_instructions=500)
        assert stats.instructions == 500 and not stats.halted
        with pytest.raises(EmulationLimit, match="exceeded 900"):
            machine.run(None, 900, stop_at_instructions=901)
        assert stats.instructions == 900
        machine.run(None, self.LIMIT, stop_after_commits=stats.checkpoints + 1,
                    stop_at_instructions=self.LIMIT)
        # the commit came first, and recorded its instruction count
        assert machine.commit_instructions == stats.instructions
        assert program.instrs[machine.pc - 1].opcode == "checkpoint"

    @pytest.mark.parametrize("fast_interp", [True, False])
    def test_stale_failure_and_instruction_counts_are_refused(
            self, fast_interp):
        machine = Machine(self.program("wario"), fast_interp=fast_interp)
        with pytest.raises(ValueError, match="stop_after_failures=0"):
            machine.run(self.POWER, self.LIMIT, stop_after_failures=0)
        stats = machine.run(self.POWER, self.LIMIT, stop_after_failures=2)
        stopped = self.state(machine)
        with pytest.raises(ValueError,
                           match="2 power failures already met"):
            machine.run(self.POWER, self.LIMIT, stop_after_failures=2)
        with pytest.raises(ValueError, match=(
                f"stop_at_instructions={stats.instructions} is not past "
                f"the {stats.instructions} instructions already executed")):
            machine.run(self.POWER, self.LIMIT,
                        stop_at_instructions=stats.instructions)
        assert self.state(machine) == stopped

    @pytest.mark.parametrize("fast_interp", [True, False])
    def test_successive_pauses_equal_fresh_pauses(self, fast_interp):
        """One machine paused in turn under one-point supplies, at
        non-decreasing failure points, stands where a fresh machine
        pauses under a schedule starting at each point, and a fork of
        it resumes that schedule as the fresh machine does."""
        program = self.program("wario")
        end = self.whole(program, None, fast_interp)[0].cycles
        shared = Machine(program, fast_interp=fast_interp)
        for first in (3_000, 3_000, 11_500, 20_000, end + 1, end + 1):
            stats = shared.run(SchedulePower((first,)), self.LIMIT,
                               pause_before_failure=True)
            power = SchedulePower((first, 4_000))
            fresh = Machine(program, fast_interp=fast_interp)
            fresh.run(power, self.LIMIT, pause_before_failure=True)
            assert shared.same_state(fresh) and stats == fresh.stats
            assert stats.halted == (first > end)
            replay = shared.fork()
            replay.run(power, self.LIMIT)
            fresh.run(power, self.LIMIT)
            assert self.state(replay) == self.state(fresh)
