"""Analysis tests: CFG orders, dominators, loops, induction variables,
points-to."""

from repro.analysis import (
    dominance_frontiers,
    dominator_tree,
    find_induction_variables,
    loop_info,
    reachability,
    reverse_postorder,
)
from repro.analysis.pointsto import compute_points_to
from repro.frontend import compile_source
from repro.transforms import optimize_module


def _diamond():
    src = """
    unsigned int g;
    int main(void) {
        int x = 1;
        if (g) { x = 2; } else { x = 3; }
        g = (unsigned int)x;
        return 0;
    }
    """
    m = compile_source(src)
    optimize_module(m)
    return m.get_function("main")


def _loopy():
    src = """
    unsigned int a[16];
    int main(void) {
        int i, j;
        for (i = 0; i < 16; i++) {
            for (j = 0; j < 4; j++) {
                a[i] = a[i] + (unsigned int)j;
            }
        }
        return 0;
    }
    """
    m = compile_source(src)
    optimize_module(m)
    return m.get_function("main")


def _recursive_rpo(function):
    """The recursive depth-first reverse postorder, as a reference."""
    visited, order = set(), []

    def dfs(block):
        visited.add(id(block))
        for succ in block.successors:
            if id(succ) not in visited:
                dfs(succ)
        order.append(block)

    dfs(function.entry)
    return list(reversed(order)) + [
        b for b in function.blocks if id(b) not in visited
    ]


class TestDominators:
    def test_rpo_starts_at_entry(self):
        f = _diamond()
        order = reverse_postorder(f)
        assert order[0] is f.entry

    def test_rpo_matches_recursive_walk_on_the_suite(self):
        from repro.benchsuite import BENCHMARKS

        for bench in BENCHMARKS.values():
            module = compile_source(bench.source)
            for function in module.defined_functions():
                assert reverse_postorder(function) == _recursive_rpo(function)
            optimize_module(module)
            for function in module.defined_functions():
                assert reverse_postorder(function) == _recursive_rpo(function)

    def test_entry_dominates_all(self):
        f = _diamond()
        dt = dominator_tree(f)
        for block in f.blocks:
            assert dt.dominates(f.entry, block)

    def test_branch_arms_do_not_dominate_merge(self):
        f = _diamond()
        dt = dominator_tree(f)
        merge = [b for b in f.blocks if len(b.predecessors) == 2]
        assert merge, "expected a merge block"
        for block in f.blocks:
            if len(block.successors) == 1 and block.successors[0] is merge[0]:
                if block is not f.entry:
                    assert not dt.dominates(block, merge[0]) or block is merge[0]

    def test_dominates_is_reflexive(self):
        f = _diamond()
        dt = dominator_tree(f)
        for block in f.blocks:
            assert dt.dominates(block, block)

    def test_strict_dominance(self):
        f = _diamond()
        dt = dominator_tree(f)
        assert not dt.strictly_dominates(f.entry, f.entry)

    def test_frontier_of_branch_arm_is_merge(self):
        f = _diamond()
        dt = dominator_tree(f)
        frontiers = dominance_frontiers(f, dt)
        merges = [b for b in f.blocks if len(b.predecessors) >= 2]
        arm_frontiers = set()
        for block in f.blocks:
            for fb in frontiers[id(block)]:
                arm_frontiers.add(fb.name)
        assert {m.name for m in merges} <= arm_frontiers

    def test_reachability(self):
        f = _diamond()
        reach = reachability(f.blocks, lambda block: block.successors)
        assert all(id(b) in reach[id(f.entry)] for b in f.blocks if b is not f.entry)


class TestLoops:
    def test_nested_loop_detection(self):
        f = _loopy()
        li = loop_info(f)
        assert len(li.loops) == 2
        depths = sorted(loop.depth for loop in li.loops)
        assert depths == [1, 2]

    def test_loop_depth_of_blocks(self):
        f = _loopy()
        li = loop_info(f)
        inner = [l for l in li.loops if l.depth == 2][0]
        assert li.depth_of(inner.header) == 2
        assert li.depth_of(f.entry) == 0

    def test_nesting_links(self):
        f = _loopy()
        li = loop_info(f)
        inner = [l for l in li.loops if l.depth == 2][0]
        outer = [l for l in li.loops if l.depth == 1][0]
        assert inner.parent is outer
        assert inner in outer.children

    def test_exit_edges_leave_loop(self):
        f = _loopy()
        li = loop_info(f)
        for loop in li.loops:
            for inside, outside in loop.exit_edges():
                assert loop.contains(inside)
                assert not loop.contains(outside)

    def test_common_loop(self):
        f = _loopy()
        li = loop_info(f)
        inner = [l for l in li.loops if l.depth == 2][0]
        assert li.common_loop(inner.header, inner.header) is inner

    def test_induction_variable_detected(self):
        f = _loopy()
        li = loop_info(f)
        inner = [l for l in li.loops if l.depth == 2][0]
        ivs = find_induction_variables(inner)
        assert len(ivs) >= 1
        steps = {step for _, step in ivs.values()}
        assert 1 in steps

    def test_induction_through_add_chain(self):
        src = """
        unsigned int a[64];
        int main(void) {
            int i;
            for (i = 0; i < 60; i = i + 1 + 1 + 1) { a[i] = 1; }
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        f = m.get_function("main")
        li = loop_info(f)
        loop = li.loops[0]
        ivs = find_induction_variables(loop)
        assert {step for _, step in ivs.values()} == {3}


class TestPointsTo:
    def test_direct_globals(self):
        src = """
        unsigned int a[64]; unsigned int b[64];
        void f(unsigned int *p, unsigned int *q) {
            int i;
            for (i = 0; i < 64; i++) {
                p[i] = q[i] * 3 + (q[i] >> 2);
                p[i] = p[i] ^ (p[i] << 7);
                p[i] = p[i] + q[i] / 3;
                p[i] = p[i] - (q[i] & 0x55);
                p[i] = p[i] | (q[i] % 9);
            }
        }
        int main(void) { f(a, b); return 0; }
        """
        m = compile_source(src)
        optimize_module(m)
        pt = compute_points_to(m)
        f = m.get_function("f")
        sets = [pt[id(arg)] for arg in f.args]
        names = [sorted(g.name for g in s) for s in sets]
        assert names == [["a"], ["b"]]

    def test_multiple_call_sites_union(self):
        src = """
        unsigned int a[64]; unsigned int b[64];
        void f(unsigned int *p) {
            int i;
            for (i = 0; i < 64; i++) {
                p[i] = p[i] * 3 + (p[i] >> 2);
                p[i] = p[i] ^ (p[i] << 7);
                p[i] = p[i] + p[i] / 3;
                p[i] = p[i] - (p[i] & 0x55);
                p[i] = p[i] | (p[i] % 9);
            }
        }
        int main(void) { f(a); f(b); return 0; }
        """
        m = compile_source(src)
        optimize_module(m)
        pt = compute_points_to(m)
        f = m.get_function("f")
        assert sorted(g.name for g in pt[id(f.args[0])]) == ["a", "b"]

    def test_transitive_through_wrappers(self):
        src = """
        unsigned int a[4];
        void inner(unsigned int *p) { p[0] = 1; }
        void outer(unsigned int *q) { inner(q); inner(q + 1); }
        int main(void) { outer(a); return 0; }
        """
        m = compile_source(src)
        optimize_module(m)
        # keep outer/inner from being inlined away for this test
        pt = compute_points_to(m)
        for fname in ("inner", "outer"):
            fn = m.functions.get(fname)
            if fn is not None and not fn.is_declaration and fn.args:
                bases = pt[id(fn.args[0])]
                if bases is not None:
                    assert all(g.name == "a" for g in bases)

    def test_unknown_root_is_top(self):
        src = """
        unsigned int a[4];
        void f(unsigned int *p) { p[0] = 1; }
        int main(void) {
            unsigned int x = (unsigned int)a;
            f((unsigned int *)(x + 4));
            return 0;
        }
        """
        m = compile_source(src)
        # an address computed with integer arithmetic names no object
        pt = compute_points_to(m)
        f = m.get_function("f")
        assert pt[id(f.args[0])] is None  # TOP

    def test_pointer_loaded_back_from_memory(self):
        src = """
        unsigned int a[4]; unsigned int *cursor;
        void f(unsigned int *p) { p[0] = 1; }
        int main(void) { cursor = a; f(cursor); return 0; }
        """
        m = compile_source(src)
        # no optimization, so `cursor` stays a memory load
        pt = compute_points_to(m)
        f = m.get_function("f")
        assert pt[id(f.args[0])] == frozenset({m.get_global("a")})
