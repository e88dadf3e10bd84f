"""Tests for the region-size bounding pass (:mod:`repro.core.region_bound`):
the cost-table derivation from the emulator's
:class:`~repro.emulator.costs.CostModel`, budgets smaller than a single
instruction's cost, call-heavy paths (opaque calls end a region,
transparent ones join it), and the pass's contract: after it, every
function's :class:`~repro.analysis.progress.IRProgress` worst gap fits
the budget, with checkpoints placed by trip-bounded gaps."""

from dataclasses import replace

import pytest

from repro.analysis.progress import _COSTS, IRProgress, _derive_costs
from repro.benchsuite import get_benchmark
from repro.core import ENVIRONMENTS, run_middle_end
from repro.core.region_bound import bound_region_sizes
from repro.emulator.costs import CostModel, DEFAULT_COSTS
from repro.frontend import compile_source, compile_sources
from repro.ir import verify_module
from repro.ir.instructions import CKPT_REGION_BOUND, Checkpoint
from repro.ir.parser import parse_module

from helpers import GEN


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


def region_bound_counts(module):
    """Function name -> how many region-bound checkpoints it holds."""
    return {
        function.name: sum(
            1 for block in function.blocks for instr in block.instructions
            if isinstance(instr, Checkpoint) and instr.cause == CKPT_REGION_BOUND
        )
        for function in module.defined_functions()
    }


class TestTinyBudgets:
    def test_budget_below_single_instruction_cost(self):
        """A budget smaller than one instruction's estimate can never be
        met: a checkpoint before the instruction still leaves a gap of
        the instruction itself, so the pass refuses at once, naming the
        function and the opcode."""
        module = compile_source(STRAIGHT_LINE)
        with pytest.raises(ValueError,
                           match=r"^@main: budget 1 is below the estimate "
                                 r"of one br \(2 cycles\)$"):
            bound_region_sizes(module, 1)
        assert region_bound_counts(module) == {"main": 0}

    def test_checkpoint_charge_counts_against_the_budget(self, monkeypatch):
        """Were a checkpoint charged for its commit, a budget that holds
        one instruction but not a checkpoint before it would have the
        pass put a checkpoint before that instruction on every round;
        the locator refuses instead."""
        monkeypatch.setitem(_COSTS, "checkpoint", 10)
        main = compile_source(STRAIGHT_LINE).get_function("main")
        with pytest.raises(ValueError,
                           match=r"^@main: budget 10 is below the estimate "
                                 r"of one store \(13 cycles\)$"):
            IRProgress(main).first_overflow(10)

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
        """Opaque calls are region boundaries (callee entry checkpoint),
        so a chain of calls under a small budget needs no extra
        checkpoints even though the path's total estimate far exceeds
        it."""
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
    def test_same_budget_converges_with_enough_rounds(self):
        """A feasible bounding that needs many insertions ends on its
        own: the pass has no round cap."""
        module = compile_source(LONG_STRAIGHT)
        inserted = bound_region_sizes(module, 10)
        assert inserted > 1
        verify_module(module)


#: an 8-trip loop summing a global array into a register, then twelve
#: straight-line global copies (no WARs): its worst gap without any
#: region-bound checkpoint is 198 estimated cycles under ``ratchet``
LOOP_THEN_COPIES = """
unsigned int a[8]; unsigned int s;
%s
int main(void) {
    int i; unsigned int t = 0;
    for (i = 0; i < 8; i++) { t = t + a[i]; }
    s = t;
    %s
    return 0;
}
""" % ("".join(f"unsigned int x{k}; unsigned int y{k};" for k in range(12)),
       "".join(f"y{k} = x{k};" for k in range(12)))

#: twelve global copies (no WARs) in a loop that never exits, in
#: ``main`` itself or on a branch that never returns
ENDLESS = {
    shape: """
unsigned int go;
%s
int main(void) { %s }
""" % ("".join(f"unsigned int x{k}; unsigned int y{k};" for k in range(12)),
       body % "".join(f"y{k} = x{k};" for k in range(12)))
    for shape, body in (("main", "for (;;) { %s }"),
                        ("branch", "if (go) { for (;;) { %s } } return 0;"))
}

#: a caller of three chained calls to a callee the always-inliner keeps
#: (padded past its 40-instruction threshold) and that is transparent
#: under ``*-summaries``: pure arithmetic, no WARs
CHAINED_CALLS = """
unsigned int seed; unsigned int out;
unsigned int mix(unsigned int v) {
    unsigned int a = v + 1;
    unsigned int b = a + v;
    unsigned int c = b + a + 3;
    unsigned int d = c + b + 5;
    unsigned int e = d + c + 7;
    unsigned int f = e + d + 11;
    unsigned int g = f + e + 13;
    unsigned int h = g + f + 17;
    unsigned int i = h + g + 19;
    unsigned int j = i + h + 23;
    unsigned int k = j + i + 29;
    return k + j - a - b;
}
int main(void) {
    out = mix(mix(mix(seed)));
    return 0;
}
"""

#: a two-entry cycle (``a`` and ``b`` each enter it), which the IR
#: parser reads though the front end never emits one
IRREDUCIBLE = """
@g = global i32 1
define i32 @main() {
entry:
  %c = load i32, @g
  %t = icmp ne %c, 0
  br %t, label %a, label %b
a:
  store 1, @g
  br label %b
b:
  %d = load i32, @g
  %u = icmp ne %d, 0
  br %u, label %a, label %done
done:
  ret 0
}
"""


def bounded(source, env, budget, name="program"):
    """``(module, summaries)`` after the middle end under ``env`` with
    the region-bound pass at ``budget``."""
    module = compile_sources([source], name)
    config = replace(ENVIRONMENTS[env], max_region_cycles=budget)
    return module, run_middle_end(module, config)


REGION_BOUND_CELLS = [
    (program, env, budget)
    for program in GEN.MANIFEST_PROGRAMS
    for env in GEN.REGION_BOUND_ENVS
    for budget in GEN.REGION_BOUND_BUDGETS
]


class TestContract:
    @pytest.mark.parametrize("program, env, budget", REGION_BOUND_CELLS)
    def test_manifest_cells_fit_the_budget(self, program, env, budget):
        """After the middle end, every function's estimated worst gap
        fits the budget, and a second run of the pass inserts nothing."""
        module, summaries = bounded(get_benchmark(program).source, env,
                                    budget, program)
        for function in module.defined_functions():
            assert IRProgress(function, summaries).worst_gap() <= budget, \
                function.name
        assert bound_region_sizes(module, budget, summaries) == 0

    @pytest.mark.parametrize("budget, expected", [(100, 1), (400, 0),
                                                  (5000, 0)])
    def test_loop_gap_counts_its_trips(self, budget, expected):
        """Trip counts bound the loop's gap, so it does not spill into the
        copies after the loop: the loop alone outgrows budget 100 and
        needs one checkpoint, and the whole function fits 400."""
        module, _ = bounded(LOOP_THEN_COPIES, "ratchet", budget)
        assert region_bound_counts(module) == {"main": expected}

    @pytest.mark.parametrize("shape", sorted(ENDLESS))
    def test_endless_loop_is_bounded(self, shape):
        """A loop that never exits is measured like any other: its
        checkpoint-free body outgrows the budget, so it gets checkpoints
        until every gap fits."""
        module, summaries = bounded(ENDLESS[shape], "ratchet", 40)
        assert region_bound_counts(module) == {"main": 2}
        main = module.get_function("main")
        assert IRProgress(main, summaries).worst_gap() <= 40

    def test_looser_budget_costs_no_more(self):
        """``ratchet`` sha gets no more checkpoints at budget 2000 than
        at 600."""
        counts = {
            budget: sum(region_bound_counts(
                bounded(get_benchmark("sha").source, "ratchet", budget,
                        "sha")[0]).values())
            for budget in (600, 2000)
        }
        assert counts[2000] <= counts[600]

    @pytest.mark.parametrize("budget, in_mix", [(100, 0), (40, 1)])
    def test_transparent_calls_join_the_callers_region(self, budget, in_mix):
        """Under ``wario-summaries`` the three calls are spliced into
        ``main``'s region, which then needs checkpoints of its own;
        under ``wario`` each call ends the region.  At budget 40 the
        callee (48 cycles) needs one too, placed so that its first
        region fits together with the call, where its regions start."""
        module, summaries = bounded(CHAINED_CALLS, "wario-summaries", budget)
        assert summaries.transparent_names() == {"mix"}
        counts = region_bound_counts(module)
        assert counts["main"] > 0 and counts["mix"] == in_mix
        for function in module.defined_functions():
            assert IRProgress(function, summaries).worst_gap() <= budget
        module, _ = bounded(CHAINED_CALLS, "wario", budget)
        assert region_bound_counts(module)["main"] == 0

    def test_unboundable_function_is_an_error(self):
        """An irreducible CFG has no structural bound: the pass raises
        instead of inserting forever."""
        module = parse_module(IRREDUCIBLE)
        with pytest.raises(ValueError, match=r"^@main: retreating edge"):
            bound_region_sizes(module, 100)
