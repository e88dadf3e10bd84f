"""Edge-case tests for the region-size bounding pass
(:mod:`repro.core.region_bound`): the cost-table derivation from the
emulator's :class:`~repro.emulator.costs.CostModel`, budgets smaller
than a single instruction's cost, call-heavy paths (calls are region
boundaries and must not attract extra checkpoints), and the
``max_rounds`` overflow guard."""

import pytest

from repro.analysis.progress import _COSTS, _derive_costs
from repro.core.region_bound import bound_region_sizes
from repro.emulator.costs import CostModel, DEFAULT_COSTS
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.instructions import CKPT_REGION_BOUND, Checkpoint

#: The historical hand-written estimate table the derivation replaced.
#: If the derivation drifts from these values, either the CostModel
#: changed (update the pin deliberately) or the derivation broke.
_PINNED = {
    "load": 3,
    "store": 3,
    "call": 8,
    "udiv": 9,
    "sdiv": 9,
    "urem": 12,
    "srem": 12,
    "checkpoint": 0,
    "phi": 0,
}


class TestCostDerivation:
    def test_matches_historical_table(self):
        assert _derive_costs(DEFAULT_COSTS) == _PINNED

    def test_module_table_is_derived(self):
        assert _COSTS == _derive_costs(DEFAULT_COSTS)

    def test_tracks_cost_model_changes(self):
        model = CostModel()
        model.base_costs["ldr"] = 5
        model.base_costs["udiv"] = 20
        derived = _derive_costs(model)
        assert derived["load"] == 6
        assert derived["udiv"] == 21
        assert derived["urem"] == 20 + 1 + 1 + 2
        # untouched entries stay pinned
        assert derived["store"] == _PINNED["store"]


STRAIGHT_LINE = """
unsigned int a; unsigned int b; unsigned int c; unsigned int out;
int main(void) {
    a = 1; b = 2; c = 3;
    out = a + b + c;
    return 0;
}
"""

CALL_HEAVY = """
unsigned int out;
int step(int x) { return x + 3; }
int main(void) {
    int v = 0;
    v = step(v); v = step(v); v = step(v); v = step(v);
    v = step(v); v = step(v); v = step(v); v = step(v);
    out = (unsigned int)v;
    return 0;
}
"""

LONG_STRAIGHT = """
unsigned int a[40]; unsigned int out;
int main(void) {
    a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; a[4] = 5;
    a[5] = 6; a[6] = 7; a[7] = 8; a[8] = 9; a[9] = 10;
    a[10] = 11; a[11] = 12; a[12] = 13; a[13] = 14; a[14] = 15;
    a[15] = 16; a[16] = 17; a[17] = 18; a[18] = 19; a[19] = 20;
    out = a[0] + a[19];
    return 0;
}
"""


class TestTinyBudgets:
    def test_budget_below_single_instruction_cost(self):
        """A budget smaller than one instruction's estimate can never be
        met: a checkpoint before the instruction still leaves a gap of
        the instruction itself, so insertion loops until the round guard
        trips."""
        module = compile_source(STRAIGHT_LINE)
        with pytest.raises(RuntimeError, match="did not converge"):
            bound_region_sizes(module, 1, max_rounds=64)

    def test_zero_and_negative_budgets_rejected(self):
        module = compile_source(STRAIGHT_LINE)
        with pytest.raises(ValueError):
            bound_region_sizes(module, 0)
        with pytest.raises(ValueError):
            bound_region_sizes(module, -5)

    def test_budget_of_one_store_converges(self):
        """The smallest workable budget — one store's estimate — inserts
        a checkpoint between every pair of stores but terminates."""
        module = compile_source(STRAIGHT_LINE)
        inserted = bound_region_sizes(module, _COSTS["store"])
        assert inserted > 0
        verify_module(module)


class TestCallHeavyPaths:
    def test_calls_reset_the_gap(self):
        """Calls are region boundaries (callee entry checkpoint), so a
        chain of calls under a small budget needs no extra checkpoints
        even though the path's total estimate far exceeds it."""
        module = compile_source(CALL_HEAVY)
        inserted = bound_region_sizes(module, 30)
        main = next(f for f in module.defined_functions() if f.name == "main")
        main_ckpts = sum(
            1
            for block in main.blocks
            for instr in block.instructions
            if isinstance(instr, Checkpoint) and instr.cause == CKPT_REGION_BOUND
        )
        assert main_ckpts == 0
        verify_module(module)
        assert inserted >= 0

    def test_callees_bounded_independently(self):
        """Each function is bounded on its own: a call-heavy main stays
        untouched while a store-heavy main under the same budget does
        not."""
        call_module = compile_source(CALL_HEAVY)
        store_module = compile_source(LONG_STRAIGHT)
        budget = 30
        call_inserted = bound_region_sizes(call_module, budget)
        store_inserted = bound_region_sizes(store_module, budget)
        assert store_inserted > call_inserted


class TestMaxRounds:
    def test_round_guard_trips_before_convergence(self):
        """A feasible bounding that needs many insertions raises when
        ``max_rounds`` is exhausted first…"""
        module = compile_source(LONG_STRAIGHT)
        with pytest.raises(RuntimeError, match="did not converge"):
            bound_region_sizes(module, 10, max_rounds=1)

    def test_same_budget_converges_with_enough_rounds(self):
        """…and the identical budget succeeds once the guard is wide
        enough, proving the guard (not the budget) fired above."""
        module = compile_source(LONG_STRAIGHT)
        inserted = bound_region_sizes(module, 10)
        assert inserted > 1
        verify_module(module)
