"""Tests for WARio's own transformations: hitting set, checkpoint
inserter, write clusterer, loop write clusterer, expander."""

import pytest

from helpers import compile_and_run

from repro.analysis import AliasAnalysis, find_wars, loop_info
from repro.core import (
    cluster_loop_writes,
    cluster_writes,
    expand,
    greedy_hitting_set,
    insert_checkpoints,
    war_candidate_positions,
)
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.instructions import Checkpoint, Select, Store
from repro.transforms import optimize_module


class TestHittingSet:
    def test_single_requirement(self):
        chosen = greedy_hitting_set([[("a", 1), ("a", 2)]])
        assert len(chosen) == 1

    def test_shared_candidate_chosen_once(self):
        reqs = [
            [("b", 1), ("b", 5)],
            [("b", 2), ("b", 5)],
            [("b", 3), ("b", 5)],
        ]
        chosen = greedy_hitting_set(reqs)
        assert chosen == [("b", 5)]

    def test_disjoint_requirements(self):
        reqs = [[("a", 1)], [("b", 1)], [("c", 1)]]
        assert len(greedy_hitting_set(reqs)) == 3

    def test_cost_steers_choice(self):
        # ("deep", 0) covers both but is 100x more expensive than two
        # shallow singletons
        reqs = [
            [("deep", 0), ("x", 1)],
            [("deep", 0), ("y", 1)],
        ]
        cost = lambda key: 1000.0 if key[0] == "deep" else 1.0
        chosen = greedy_hitting_set(reqs, cost)
        assert ("deep", 0) not in chosen
        assert len(chosen) == 2

    def test_cheap_shared_candidate_wins(self):
        reqs = [
            [("shared", 0), ("x", 1)],
            [("shared", 0), ("y", 1)],
        ]
        chosen = greedy_hitting_set(reqs)
        assert chosen == [("shared", 0)]

    def test_empty_requirement_rejected(self):
        with pytest.raises(ValueError):
            greedy_hitting_set([[]])

    def test_empty_input(self):
        assert greedy_hitting_set([]) == []

    def test_deterministic(self):
        reqs = [[("a", i), ("b", i)] for i in range(10)]
        assert greedy_hitting_set(reqs) == greedy_hitting_set(reqs)


def _prepped(src, alias_mode="precise"):
    m = compile_source(src)
    optimize_module(m)
    return m


SRC_TWO_WARS = """
unsigned int a; unsigned int b;
int main(void) {
    unsigned int x = a;
    unsigned int y = b;
    a = x + 1;
    b = y + 1;
    return 0;
}
"""


class TestCheckpointInserter:
    def test_all_wars_resolved(self):
        m = _prepped(SRC_TWO_WARS)
        insert_checkpoints(m)
        verify_module(m)
        f = m.main
        aa = AliasAnalysis(f, "precise")
        assert find_wars(f, aa, loop_info(f)) == []

    def test_adjacent_wars_need_one_checkpoint(self):
        m = _prepped(SRC_TWO_WARS)
        count = insert_checkpoints(m)
        # the two stores are adjacent after optimization: loads first,
        # stores later, so one checkpoint in the gap resolves both
        assert count == 1

    def test_no_wars_no_checkpoints(self):
        src = """
        unsigned int a; unsigned int b;
        int main(void) { b = a + 1; return 0; }
        """
        m = _prepped(src)
        assert insert_checkpoints(m) == 0

    def test_loop_war_checkpointed_inside(self):
        src = """
        unsigned int acc[8];
        int main(void) {
            int i;
            for (i = 0; i < 8; i++) { acc[i] = acc[i] + 1; }
            return 0;
        }
        """
        m = _prepped(src)
        count = insert_checkpoints(m)
        assert count >= 1
        f = m.main
        li = loop_info(f)
        ckpt_blocks = [
            i.parent for i in f.instructions() if isinstance(i, Checkpoint)
        ]
        assert any(li.depth_of(b) >= 1 for b in ckpt_blocks)

    def test_call_acts_as_barrier(self):
        src = """
        unsigned int a;
        void pause(void) { int i; for (i = 0; i < 90; i++) { a = a; } }
        int main(void) {
            unsigned int x = a;
            pause();
            a = x + 1;
            return 0;
        }
        """
        m = compile_source(src)
        # note: not optimized, so `pause` is not inlined and a checkpoint
        # at its entry breaks main's WAR
        f = m.main
        aa = AliasAnalysis(f, "precise")
        wars = find_wars(f, aa, loop_info(f), calls_are_checkpoints=True)
        assert wars == []

    def test_candidate_positions_forward(self):
        m = _prepped(SRC_TWO_WARS)
        f = m.main
        aa = AliasAnalysis(f, "precise")
        wars = find_wars(f, aa, loop_info(f))
        for war in wars:
            positions = war_candidate_positions(war)
            assert positions
            sblock = war.store.parent
            sidx = sblock.index_of(war.store)
            assert (sblock.name, sidx) in positions

    def test_idempotent(self):
        m = _prepped(SRC_TWO_WARS)
        first = insert_checkpoints(m)
        second = insert_checkpoints(m)
        assert first >= 1 and second == 0


class TestWriteClusterer:
    def test_clusters_independent_wars(self):
        m = _prepped(SRC_TWO_WARS)
        moved = cluster_writes(m)
        assert moved == 1
        f = m.main
        # the two stores must now be adjacent
        block = [b for b in f.blocks if any(isinstance(i, Store) for i in b)][0]
        idxs = [i for i, instr in enumerate(block.instructions) if isinstance(instr, Store)]
        assert idxs[1] - idxs[0] == 1
        verify_module(m)

    def test_semantics_preserved(self):
        machine = compile_and_run(SRC_TWO_WARS, env="write-clusterer")
        assert machine.read_global("a") == 1
        assert machine.read_global("b") == 1

    def test_respects_dependences(self):
        # the second load reads what the first store wrote: no clustering
        src = """
        unsigned int a; unsigned int b;
        int main(void) {
            unsigned int x = a;
            a = x + 1;
            unsigned int y = a;
            b = y + 1;
            return 0;
        }
        """
        m = _prepped(src)
        moved = cluster_writes(m)
        assert moved == 0
        machine = compile_and_run(src, env="wario")
        assert machine.read_global("a") == 1
        assert machine.read_global("b") == 2

    def test_does_not_cross_calls(self):
        src = """
        unsigned int a; unsigned int b; unsigned int c;
        void spacer(void) { int i; for (i = 0; i < 90; i++) { c = c; } }
        int main(void) {
            unsigned int x = a;
            unsigned int y = b;
            a = x + 1;
            spacer();
            b = y + 1;
            return 0;
        }
        """
        m = compile_source(src)
        moved = cluster_writes(m)
        assert moved == 0


SRC_CLUSTER_LOOP = """
unsigned int acc[64];
int main(void) {
    int i;
    for (i = 0; i < 50; i++) {
        acc[i] = acc[i] + (unsigned int)i;
    }
    return 0;
}
"""


class TestLoopWriteClusterer:
    def test_transform_report(self):
        m = _prepped(SRC_CLUSTER_LOOP)
        report = cluster_loop_writes(m, unroll_factor=8)
        assert report.loops_transformed == 1
        assert report.stores_postponed == 8
        assert report.early_exit_writebacks > 0
        verify_module(m)

    def test_checkpoint_reduction(self):
        m1 = _prepped(SRC_CLUSTER_LOOP)
        baseline = insert_checkpoints(m1)
        m2 = _prepped(SRC_CLUSTER_LOOP)
        cluster_loop_writes(m2, unroll_factor=8)
        clustered = insert_checkpoints(m2)
        assert clustered < baseline or baseline == 1

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_semantics(self, factor):
        machine = compile_and_run(
            SRC_CLUSTER_LOOP, env="loop-write-clusterer", unroll_factor=factor
        )
        assert machine.read_global("acc", 64) == [i for i in range(50)] + [0] * 14

    def test_dependent_read_forwarding(self):
        # each iteration reads the previous element: the postponed store
        # of replica k-1 must forward into replica k's load
        src = """
        unsigned int chain[70];
        int main(void) {
            int i;
            chain[0] = 1;
            for (i = 1; i < 65; i++) {
                chain[i] = chain[i - 1] + 1;
            }
            return 0;
        }
        """
        m = _prepped(src)
        report = cluster_loop_writes(m, unroll_factor=4)
        verify_module(m)
        if report.loops_transformed:
            assert report.reads_instrumented > 0
            f = m.main
            assert any(isinstance(i, Select) for i in f.instructions())
        machine = compile_and_run(src, env="wario", unroll_factor=4)
        assert machine.read_global("chain", 65) == list(range(1, 66))

    def test_loop_with_call_not_candidate(self):
        src = """
        unsigned int acc[32]; unsigned int t;
        unsigned int f(unsigned int x) {
            int i;
            for (i = 0; i < 60; i++) { t = t ^ x; x = x + t; }
            return x;
        }
        int main(void) {
            int i;
            for (i = 0; i < 32; i++) { acc[i] = acc[i] + f((unsigned int)i); }
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        report = cluster_loop_writes(m, unroll_factor=8)
        # main's loop has a surviving call -> not a candidate; f's loop
        # may be transformed
        f = m.main
        li = loop_info(f)
        from repro.core.loop_write_clusterer import is_candidate
        aa = AliasAnalysis(f, "precise")
        outer = [l for l in li.loops]
        for loop in outer:
            from repro.ir.instructions import Call
            if any(isinstance(i, Call) for i in loop.header.instructions):
                assert not is_candidate(loop, aa)

    def test_factor_one_is_noop(self):
        m = _prepped(SRC_CLUSTER_LOOP)
        report = cluster_loop_writes(m, unroll_factor=1)
        assert report.loops_transformed == 0


class TestExpander:
    def test_inlines_pointer_helper_in_loop(self):
        src = """
        unsigned int data[128]; unsigned int out;
        void scale(unsigned int *p, int i) {
            p[i] = p[i] * 3 + 1;
            p[i] = p[i] ^ (p[i] >> 3);
            p[i] = p[i] + (p[i] & 0xFF);
            p[i] = p[i] * 5;
            p[i] = p[i] - (p[i] >> 7);
            p[i] = p[i] | 1;
            p[i] = p[i] + (p[i] % 13);
            p[i] = p[i] ^ 0x1234;
        }
        int main(void) {
            int i;
            for (i = 0; i < 128; i++) { scale(data, i); }
            out = data[7];
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        from repro.ir.instructions import Call
        calls_before = sum(1 for i in m.main.instructions() if isinstance(i, Call))
        if calls_before:
            inlined = expand(m)
            assert inlined >= 1
            verify_module(m)

    def test_non_pointer_function_not_expanded(self):
        src = """
        unsigned int out;
        unsigned int f(unsigned int x) {
            int i;
            for (i = 0; i < 70; i++) { x = x * 3 + 1; x = x ^ (x >> 2); }
            return x;
        }
        int main(void) {
            int i;
            for (i = 0; i < 4; i++) { out = f(out); }
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        from repro.ir.instructions import Call
        calls_before = sum(1 for i in m.main.instructions() if isinstance(i, Call))
        inlined = expand(m)
        calls_after = sum(1 for i in m.main.instructions() if isinstance(i, Call))
        assert inlined == 0
        assert calls_after == calls_before
