"""Transform tests: mem2reg, DCE, simplify-cfg, inlining, critical edges,
and the single-block loop unroller."""

import sys
from contextlib import contextmanager

import pytest

from helpers import compile_and_run

from repro import Machine, iclang
from repro.analysis import loop_info, post_dominator_tree
from repro.core import lint_sources
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.instructions import Alloca, Call, Load, Phi, Store
from repro.transforms import (
    UnrollError,
    can_unroll,
    eliminate_dead_code,
    inline_always,
    inline_call,
    optimize_module,
    promote_memory_to_registers,
    simplify_cfg,
    unroll_single_block_loop,
)
from repro.transforms.critedge import split_critical_edges


def _count(function, klass):
    return sum(1 for i in function.instructions() if isinstance(i, klass))


class TestMem2Reg:
    SRC = """
    unsigned int g;
    int main(void) {
        int x = 1;
        int i;
        for (i = 0; i < 10; i++) { x = x + i; }
        g = (unsigned int)x;
        return 0;
    }
    """

    def test_promotes_scalars(self):
        m = compile_source(self.SRC)
        f = m.main
        assert _count(f, Alloca) > 0
        simplify_cfg(f)
        promote_memory_to_registers(f)
        assert _count(f, Alloca) == 0
        verify_module(m)

    def test_introduces_phis_for_loops(self):
        m = compile_source(self.SRC)
        f = m.main
        simplify_cfg(f)
        promote_memory_to_registers(f)
        assert _count(f, Phi) >= 2  # x and i

    def test_does_not_promote_arrays(self):
        src = """
        unsigned int g;
        int main(void) {
            unsigned int buf[4];
            buf[0] = 7;
            g = buf[0];
            return 0;
        }
        """
        m = compile_source(src)
        f = m.main
        simplify_cfg(f)
        promote_memory_to_registers(f)
        assert _count(f, Alloca) == 1

    def test_does_not_promote_escaping(self):
        src = """
        unsigned int g;
        void set(unsigned int *p) { *p = 3; }
        int main(void) {
            unsigned int x = 0;
            set(&x);
            g = x;
            return 0;
        }
        """
        m = compile_source(src)
        f = m.main
        simplify_cfg(f)
        promote_memory_to_registers(f)
        assert _count(f, Alloca) == 1  # x escapes via &x

    def test_promotes_pointer_locals(self):
        src = """
        unsigned int a[4]; unsigned int g;
        int main(void) {
            unsigned int *p = a;
            g = p[1];
            return 0;
        }
        """
        m = compile_source(src)
        f = m.main
        simplify_cfg(f)
        promote_memory_to_registers(f)
        assert _count(f, Alloca) == 0

    def test_semantics_preserved(self):
        machine = compile_and_run(self.SRC)
        assert machine.read_global("g") == 1 + sum(range(10))


@contextmanager
def _recursion_headroom(frames):
    """Lower the recursion limit to ``frames`` above the caller's depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


class TestDeepCFG:
    """A long chain of ``if``s makes a dominator tree hundreds of levels
    deep: the CFG walks and the mem2reg renaming must not recurse."""

    IFS = 600
    #: a shorter chain for the walks run under a lowered recursion limit:
    #: a recursive walk would need a few frames per ``if``
    SHORT_IFS = 150

    @staticmethod
    def chain(ifs):
        body = "\n".join(
            f"    if (x & {1 << (k % 31)}u) x = x + {k}u; "
            f"else x = x ^ {k * 7 + 1}u;"
            for k in range(ifs)
        )
        return f"""
        unsigned int seed = 2463534242u;
        unsigned int result;
        int main(void) {{
            unsigned int x = seed;
        {body}
            result = x;
            return 0;
        }}
        """

    def test_600_sequential_ifs_compile_and_run(self):
        x = 2463534242
        for k in range(self.IFS):
            if x & (1 << (k % 31)):
                x = (x + k) & 0xFFFFFFFF
            else:
                x ^= k * 7 + 1
        machine = Machine(iclang(self.chain(self.IFS), "plain", cache=False))
        machine.run(max_instructions=100_000)
        assert machine.read_global("result") == x

    @pytest.mark.parametrize("env", ["wario", "ratchet"])
    def test_full_lint_certifies_a_deep_chain(self, env):
        source = self.chain(self.SHORT_IFS)
        with _recursion_headroom(120):
            result = lint_sources(source, env, name="deep", cache=False,
                                  level="full")
        assert result.certified

    def test_post_dominators_of_a_deep_chain(self):
        function = compile_source(self.chain(self.SHORT_IFS)).main
        with _recursion_headroom(60):
            pdt = post_dominator_tree(function)
        (exit_block,) = [b for b in function.blocks if not b.successors]
        assert all(pdt.post_dominates(exit_block, b) for b in function.blocks)


class TestDCE:
    def test_removes_dead_arithmetic(self):
        src = """
        unsigned int g;
        int main(void) {
            int dead = 3 * 4 + 5;
            g = 1;
            return 0;
        }
        """
        m = compile_source(src)
        f = m.main
        simplify_cfg(f)
        promote_memory_to_registers(f)
        removed = eliminate_dead_code(f)
        assert removed > 0
        verify_module(m)

    def test_removes_dead_loads(self):
        src = """
        unsigned int a[4]; unsigned int g;
        int main(void) {
            unsigned int dead = a[0];
            g = 1;
            return 0;
        }
        """
        m = compile_source(src)
        f = m.main
        simplify_cfg(f)
        promote_memory_to_registers(f)
        eliminate_dead_code(f)
        assert _count(f, Load) == 0

    def test_keeps_stores(self):
        src = """
        unsigned int g;
        int main(void) { g = 42; return 0; }
        """
        m = compile_source(src)
        f = m.main
        optimize_module(m)
        assert _count(f, Store) == 1


class TestSimplifyCFG:
    def test_merges_straight_line(self):
        src = """
        unsigned int g;
        int main(void) { g = 1; g = g + 1; return 0; }
        """
        m = compile_source(src)
        f = m.main
        before = len(f.blocks)
        simplify_cfg(f)
        assert len(f.blocks) <= before
        verify_module(m)

    def test_removes_unreachable(self):
        src = """
        unsigned int g;
        int main(void) {
            return 0;
            g = 1;
        }
        """
        m = compile_source(src)
        f = m.main
        simplify_cfg(f)
        verify_module(m)
        machine = compile_and_run(src)
        assert machine.read_global("g") == 0

    def test_folds_constant_branches(self):
        from repro.ir import Constant, CondBranch
        src = "unsigned int g; int main(void) { g = 5; return 0; }"
        m = compile_source(src)
        f = m.main
        # hand-build a constant branch
        entry = f.entry
        target = entry.successors[0]
        dead = f.add_block("dead")
        from repro.ir import Branch, Ret
        dead.append(Ret(Constant(0)))
        entry.remove(entry.terminator)
        entry.append(CondBranch(Constant(1, None) if False else Constant(1), target, dead))
        simplify_cfg(f)
        assert all(b.name != "dead" for b in f.blocks)
        verify_module(m)


class TestInlining:
    SRC = """
    unsigned int g;
    int helper(int x) { return x * 2 + 1; }
    int main(void) { g = (unsigned int)helper(10); return 0; }
    """

    def test_inline_always_inlines_small(self):
        m = compile_source(self.SRC)
        count = inline_always(m)
        assert count == 1
        assert _count(m.main, Call) == 0
        verify_module(m)

    def test_inline_call_semantics(self):
        machine = compile_and_run(self.SRC)
        assert machine.read_global("g") == 21

    def test_inline_multi_return(self):
        src = """
        unsigned int g;
        int pick(int x) {
            if (x > 5) return 100;
            return 200;
        }
        int main(void) { g = (unsigned int)(pick(10) + pick(1)); return 0; }
        """
        m = compile_source(src)
        inline_always(m)
        verify_module(m)
        machine = compile_and_run(src)
        assert machine.read_global("g") == 300

    def test_recursive_not_inlined(self):
        src = """
        unsigned int g;
        int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
        int main(void) { g = (unsigned int)fact(5); return 0; }
        """
        m = compile_source(src)
        inline_always(m)
        fact = m.get_function("fact")
        assert _count(fact, Call) == 1  # self-call stays
        machine = compile_and_run(src)
        assert machine.read_global("g") == 120

    def test_inline_call_in_loop(self):
        src = """
        unsigned int g;
        int bump(int x) { return x + 1; }
        int main(void) {
            int i; int v = 0;
            for (i = 0; i < 5; i++) { v = bump(v); }
            g = (unsigned int)v;
            return 0;
        }
        """
        m = compile_source(src)
        inline_always(m)
        verify_module(m)
        machine = compile_and_run(src)
        assert machine.read_global("g") == 5


class TestCriticalEdges:
    def test_splits_and_verifies(self):
        src = """
        unsigned int g;
        int main(void) {
            int i; unsigned int s = 0;
            for (i = 0; i < 4; i++) { s += (unsigned int)i; }
            g = s;
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        f = m.main
        split_critical_edges(f)
        verify_module(m)
        # after splitting, no pred with >1 successors feeds a phi block
        for block in f.blocks:
            if block.phis():
                for pred in block.predecessors:
                    assert len(pred.successors) == 1


class TestUnroll:
    SRC = """
    unsigned int a[40]; unsigned int g;
    int main(void) {
        int i; unsigned int s = 0;
        for (i = 0; i < 37; i++) {
            a[i] = (unsigned int)(i * 3);
            s = s + a[i];
        }
        g = s;
        return 0;
    }
    """

    def _loop(self, m):
        f = m.main
        li = loop_info(f)
        return f, li.loops[0]

    @pytest.mark.parametrize("factor", [2, 3, 4, 8])
    def test_semantics_preserved(self, factor):
        m = compile_source(self.SRC)
        optimize_module(m)
        f, loop = self._loop(m)
        assert can_unroll(loop)
        unroll_single_block_loop(loop, factor)
        verify_module(m)
        from repro.core import build
        from repro import Machine
        program = build(m, "plain").encode()
        machine = Machine(program, war_check=False)
        machine.run()
        assert machine.read_global("g") == sum(i * 3 for i in range(37))
        assert machine.read_global("a", 40) == [i * 3 for i in range(37)] + [0] * 3

    def test_chain_length(self):
        m = compile_source(self.SRC)
        optimize_module(m)
        f, loop = self._loop(m)
        result = unroll_single_block_loop(loop, 4)
        assert len(result.chain) == 4
        assert result.factor == 4

    def test_factor_one_rejected(self):
        m = compile_source(self.SRC)
        optimize_module(m)
        f, loop = self._loop(m)
        with pytest.raises(UnrollError):
            unroll_single_block_loop(loop, 1)

    def test_multi_block_loop_not_unrollable(self):
        src = """
        unsigned int a[16]; unsigned int g;
        int main(void) {
            int i;
            for (i = 0; i < 16; i++) {
                if (i & 1) { a[i] = 1; } else { a[i] = 2; }
            }
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        f = m.main
        li = loop_info(f)
        assert not can_unroll(li.loops[0])

    def test_trip_count_not_multiple_of_factor(self):
        # 37 iterations, factor 8: early exits must fire correctly
        m = compile_source(self.SRC)
        optimize_module(m)
        f, loop = self._loop(m)
        unroll_single_block_loop(loop, 8)
        verify_module(m)
        from repro.core import build
        from repro import Machine
        program = build(m, "plain").encode()
        machine = Machine(program, war_check=False)
        machine.run()
        assert machine.read_global("g") == sum(i * 3 for i in range(37))
