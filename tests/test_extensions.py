"""Tests for the implemented §6 extensions: region-size bounding and
Just-In-Time checkpointing (with its failure mode)."""

from dataclasses import replace

import pytest

from repro import FixedPeriodPower, Machine, iclang
from repro.core import environment
from repro.core.region_bound import bound_region_sizes
from repro.emulator import CostModel, NoForwardProgress, SuddenDropPower
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.instructions import CKPT_REGION_BOUND

from .test_region_bound import LOOP_THEN_COPIES

LONG_LOOP = """
unsigned int a[400]; unsigned int out;
int main(void) {
    int i; unsigned int s = 0;
    for (i = 0; i < 400; i++) { a[i] = (unsigned int)(i * 7); }
    for (i = 0; i < 400; i++) { s = s + a[i]; }
    out = s;
    return 0;
}
"""
LONG_EXPECTED = sum(i * 7 for i in range(400)) & 0xFFFFFFFF


class TestRegionBounding:
    def _bounded_config(self, budget, env="wario"):
        return replace(
            environment(env), name=f"{env}-rb{budget}", max_region_cycles=budget
        )

    def test_pass_inserts_region_bound_checkpoints(self):
        module = compile_source(LONG_LOOP)
        from repro.transforms import optimize_module

        optimize_module(module)
        inserted = bound_region_sizes(module, 100)
        assert inserted > 0
        verify_module(module)

    def test_max_region_shrinks(self):
        base = Machine(iclang(LONG_LOOP, "wario")).run()
        bounded = Machine(iclang(LONG_LOOP, self._bounded_config(150))).run()
        assert bounded.region_max < base.region_max
        assert bounded.checkpoint_causes.get(CKPT_REGION_BOUND, 0) > 0

    def test_restores_forward_progress(self):
        cm = CostModel(boot_cycles=50)
        with pytest.raises(NoForwardProgress):
            Machine(iclang(LONG_LOOP, "wario"), cost_model=cm).run(
                power=FixedPeriodPower(400), max_instructions=5_000_000
            )
        machine = Machine(
            iclang(LONG_LOOP, self._bounded_config(150)), cost_model=cm
        )
        machine.run(power=FixedPeriodPower(400))
        assert machine.read_global("out") == LONG_EXPECTED

    def test_results_unchanged_and_war_free(self):
        machine = Machine(
            iclang(LONG_LOOP, self._bounded_config(200)), war_check=True
        )
        machine.run()
        assert machine.read_global("out") == LONG_EXPECTED
        assert machine.war.clean

    def test_tighter_budget_more_checkpoints(self):
        """Both 400-trip loops of ``LONG_LOOP`` outgrow either budget, so
        both budgets put a checkpoint on every iteration; an input the
        budgets separate shows the tighter one paying more."""
        loose = Machine(iclang(LONG_LOOP, self._bounded_config(2000))).run()
        tight = Machine(iclang(LONG_LOOP, self._bounded_config(150))).run()
        assert tight.checkpoints >= loose.checkpoints
        assert tight.region_max <= loose.region_max
        loose = Machine(iclang(LOOP_THEN_COPIES,
                               self._bounded_config(400, "ratchet"))).run()
        tight = Machine(iclang(LOOP_THEN_COPIES,
                               self._bounded_config(100, "ratchet"))).run()
        assert (tight.checkpoints, loose.checkpoints) == (10, 2)

    def test_invalid_budget_rejected(self):
        module = compile_source(LONG_LOOP)
        with pytest.raises(ValueError):
            bound_region_sizes(module, 0)


SIMPLE_INCREMENT = """
unsigned int a[64];
int main(void) {
    int i;
    for (i = 0; i < 64; i++) { a[i] = a[i] + 1; }
    return 0;
}
"""


class TestJITCheckpointing:
    CM = CostModel(boot_cycles=50)

    def test_correct_on_predictable_power(self):
        machine = Machine(
            iclang(SIMPLE_INCREMENT, "plain"),
            cost_model=self.CM,
            jit_checkpoint_threshold=120,
        )
        stats = machine.run(power=FixedPeriodPower(400))
        assert machine.read_global("a", 64) == [1] * 64
        assert stats.checkpoint_causes.get("jit", 0) > 0

    def test_corrupts_on_unpredictable_power(self):
        """Paper §6: 'even one missed checkpoint can cause a WAR
        violation, corrupting the system's memory'."""
        machine = Machine(
            iclang(SIMPLE_INCREMENT, "plain"),
            cost_model=self.CM,
            jit_checkpoint_threshold=120,
        )
        machine.run(power=SuddenDropPower(400, drop_every=3, drop_cycles=160))
        values = machine.read_global("a", 64)
        assert values != [1] * 64
        assert max(values) > 1  # double increments: the WAR corruption

    def test_wario_survives_the_same_supply(self):
        machine = Machine(iclang(SIMPLE_INCREMENT, "wario"), cost_model=self.CM)
        machine.run(power=SuddenDropPower(400, drop_every=3, drop_cycles=160))
        assert machine.read_global("a", 64) == [1] * 64

    def test_sudden_drop_validation(self):
        with pytest.raises(ValueError):
            SuddenDropPower(100, drop_cycles=100)

    def test_no_jit_without_power_supply(self):
        machine = Machine(
            iclang(SIMPLE_INCREMENT, "plain"),
            jit_checkpoint_threshold=120,
        )
        stats = machine.run()  # continuous: the comparator never fires
        assert stats.checkpoint_causes.get("jit", 0) == 0
