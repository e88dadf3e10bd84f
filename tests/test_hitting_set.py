"""Placement tie-breaking of the greedy hitting set (paper §3.1.2).

Pins the rule the PDG Checkpoint Inserter relies on: among candidate
positions with equal coverage-per-cost, the position *directly before a
WAR write* wins (Ratchet's natural location — usually the most rarely
executed choice when the write is guarded).  The rule is implemented as
a 0.999 cost scaling of write-adjacent positions in
``insert_function_checkpoints``; these tests pin both the mechanism and
the end-to-end placement it produces.
"""

from repro.core import environment, greedy_hitting_set
from repro.core.pipeline import run_middle_end
from repro.frontend import compile_sources
from repro.ir.instructions import Checkpoint, Store
from repro.ir.values import GlobalVariable

#: the preference factor insert_function_checkpoints applies to the
#: position directly before each WAR write
PREFERRED_SCALE = 0.999


def _inserter_cost(preferred):
    """The inserter's cost function: loop-depth base (1.0 here — all
    positions at depth zero) scaled down for write-adjacent slots."""
    return lambda key: 1.0 * (PREFERRED_SCALE if key in preferred else 1.0)


class TestPreWriteTieBreak:
    def test_preferred_position_wins_among_equal_coverage(self):
        # One WAR, three same-depth candidate slots; the middle one is
        # directly before the write.  Coverage is equal (each slot hits
        # the single requirement), so only the 0.999 preference decides.
        reqs = [[("entry", 1), ("entry", 2), ("entry", 3)]]
        chosen = greedy_hitting_set(reqs, _inserter_cost({("entry", 2)}))
        assert chosen == [("entry", 2)]

    def test_without_preference_stable_order_decides(self):
        # Control: with a flat cost the deterministic tie-break (largest
        # stable key) picks the last slot instead — proving the
        # preference, not the tie-break, placed the checkpoint above.
        reqs = [[("entry", 1), ("entry", 2), ("entry", 3)]]
        assert greedy_hitting_set(reqs, _inserter_cost(set())) == [
            ("entry", 3)
        ]

    def test_preference_does_not_override_coverage(self):
        # Coverage-per-cost still dominates: a shared slot hitting both
        # WARs beats a preferred slot hitting only one (2/1.0 > 1/0.999).
        reqs = [
            [("entry", 1), ("entry", 4)],
            [("entry", 2), ("entry", 4)],
        ]
        chosen = greedy_hitting_set(
            reqs, _inserter_cost({("entry", 1), ("entry", 2)})
        )
        assert chosen == [("entry", 4)]

    def test_preference_does_not_override_loop_depth(self):
        # A write-adjacent slot inside a loop (cost 10 * 0.999) still
        # loses to an equal-coverage slot outside it (cost 1).
        reqs = [[("loop", 7), ("exit", 0)]]
        cost = lambda key: (
            10.0 * PREFERRED_SCALE if key == ("loop", 7) else 1.0
        )
        assert greedy_hitting_set(reqs, cost) == [("exit", 0)]


SINGLE_WAR_SRC = """
unsigned int g;
int main(void) {
    unsigned int t = g;
    unsigned int a = t + 1;
    unsigned int b = a * 2;
    unsigned int c = b + t;
    g = c;
    return 0;
}
"""


def _stores_to(block, name):
    return [
        i for i, instr in enumerate(block.instructions)
        if isinstance(instr, Store)
        and isinstance(instr.pointer, GlobalVariable)
        and instr.pointer.name == name
    ]


def test_checkpoint_lands_directly_before_war_write():
    """End-to-end: a straight-line read-modify-write of @g admits every
    slot between the load and the store at equal depth; the inserter
    must pick the slot immediately before the store."""
    module = compile_sources([SINGLE_WAR_SRC], "prog")
    run_middle_end(module, environment("r-pdg"))
    (main,) = [f for f in module.defined_functions() if f.name == "main"]
    placements = []
    for block in main.blocks:
        instrs = block.instructions
        for idx, instr in enumerate(instrs):
            if isinstance(instr, Checkpoint):
                placements.append((block, idx))
    assert len(placements) == 1, "one WAR, one checkpoint"
    block, idx = placements[0]
    store_indices = _stores_to(block, "g")
    assert store_indices, "the WAR store must share the checkpoint's block"
    assert idx + 1 in store_indices, (
        "checkpoint must sit directly before the store to @g, not at "
        f"index {idx} with stores at {store_indices}"
    )
