"""Interprocedural mod/ref summaries, the inclusion-based points-to
analysis, transparency classification, and the relaxed call model in
memdep/static_war — plus the affine-mode edge cases and the
``calls_are_checkpoints=False`` paths that ride along."""

import json

import pytest

from repro import iclang
from repro.__main__ import main
from repro.analysis import (
    AFFINE,
    BACKWARD,
    CONSERVATIVE,
    FORWARD,
    PRECISE,
    AliasAnalysis,
    compute_summaries,
    find_wars,
    loop_info,
    summary_sets_intersect,
    verify_function_war,
    verify_module_war,
)
from repro.analysis.pointsto import MAX_GEP_DEPTH, report_top_causes
from repro.analysis.summaries import AndersenPointsTo
from repro.core import insert_checkpoints
from repro.core.lint import lint_sources
from repro.diagnostics import WARNING, DiagnosticEngine
from repro.frontend import compile_source
from repro.ir.instructions import Call, Load, Store
from repro.ir.parser import parse_module
from repro.transforms import optimize_module

from .helpers import ALL_ENVIRONMENTS, INSTRUMENTED, compile_and_run


HELPER_SRC = """
unsigned int g; unsigned int h; unsigned int sink;
unsigned int reader(void) { return g + h; }
void writer(void) { sink = 7; }
unsigned int pure_fn(unsigned int x) { return x * 3 + 1; }
void nested(void) { writer(); }
unsigned int recur(unsigned int n) {
    if (n == 0) { return 1; }
    return n * recur(n - 1);
}
int main(void) {
    unsigned int x = reader();
    writer();
    nested();
    sink = pure_fn(x) + recur(3);
    return 0;
}
"""


def _summaries(src, alias_mode=PRECISE, optimize=False):
    m = compile_source(src)
    if optimize:
        optimize_module(m)
    return m, compute_summaries(m, alias_mode=alias_mode)


def _global(module, name):
    return module.get_global(name)


class TestFunctionSummaries:
    def test_pure_function(self):
        _, table = _summaries(HELPER_SRC)
        s = table.functions["pure_fn"]
        assert s.pure and s.read_only and not s.recursive

    def test_read_only_function(self):
        m, table = _summaries(HELPER_SRC)
        s = table.functions["reader"]
        assert s.read_only and not s.pure
        assert s.ref == frozenset({_global(m, "g"), _global(m, "h")})

    def test_writer_mod_set(self):
        m, table = _summaries(HELPER_SRC)
        s = table.functions["writer"]
        assert s.mod == frozenset({_global(m, "sink")})
        assert s.ref == frozenset()

    def test_transitive_through_callee(self):
        m, table = _summaries(HELPER_SRC)
        s = table.functions["nested"]
        assert s.mod == frozenset({_global(m, "sink")})

    def test_recursive_flagged_not_transparent(self):
        _, table = _summaries(HELPER_SRC)
        assert table.functions["recur"].recursive
        assert "recur" not in table.transparent

    def test_main_never_transparent(self):
        _, table = _summaries(HELPER_SRC)
        assert "main" not in table.transparent

    def test_war_free_helpers_transparent(self):
        _, table = _summaries(HELPER_SRC)
        assert {"reader", "writer", "pure_fn", "nested"} <= table.transparent

    def test_helper_with_internal_war_not_transparent(self):
        src = """
        unsigned int g;
        void bump(void) { g = g + 1; }
        int main(void) { bump(); return 0; }
        """
        _, table = _summaries(src)
        assert "bump" not in table.transparent

    def test_own_initialized_locals_externalized(self):
        src = """
        unsigned int out;
        unsigned int scratch(void) {
            unsigned int t[4];
            int i; unsigned int acc = 0;
            for (i = 0; i < 4; i++) { t[i] = (unsigned int)i * 2; }
            for (i = 0; i < 4; i++) { acc += t[i]; }
            return acc;
        }
        int main(void) { out = scratch(); return 0; }
        """
        _, table = _summaries(src, optimize=True)
        s = table.functions["scratch"]
        # the local array never escapes: callers can't see it
        assert s.mod == frozenset() and s.ref == frozenset()
        assert "scratch" in table.transparent

    def test_mutual_recursion_is_one_scc(self):
        src = """
        unsigned int g;
        unsigned int even(unsigned int n);
        unsigned int odd(unsigned int n) {
            if (n == 0) { return 0; } return even(n - 1);
        }
        unsigned int even(unsigned int n) {
            if (n == 0) { return 1; } return odd(n - 1);
        }
        int main(void) { g = even(4); return 0; }
        """
        _, table = _summaries(src)
        assert table.functions["even"].recursive
        assert table.functions["odd"].recursive
        assert "even" not in table.transparent
        assert "odd" not in table.transparent


class TestAndersenPointsTo:
    def test_argument_inclusion(self):
        src = """
        unsigned int src_buf[8]; unsigned int dst_buf[8];
        void copy(unsigned int *d, unsigned int *s) {
            int i; for (i = 0; i < 8; i++) { d[i] = s[i]; }
        }
        int main(void) { copy(dst_buf, src_buf); return 0; }
        """
        m = compile_source(src)
        pt = AndersenPointsTo(m)
        copy = m.get_function("copy")
        d, s = copy.args[0], copy.args[1]
        assert pt.pointees(d) == {_global(m, "dst_buf")}
        assert pt.pointees(s) == {_global(m, "src_buf")}

    def test_argument_map_matches_alias_contract(self):
        src = """
        unsigned int buf[8];
        void f(unsigned int *p) { p[0] = 1; }
        int main(void) { f(buf); return 0; }
        """
        m = compile_source(src)
        pt = AndersenPointsTo(m)
        arg = m.get_function("f").args[0]
        amap = pt.argument_map()
        assert amap[id(arg)] == frozenset({_global(m, "buf")})

    def test_external_call_degrades_to_top(self):
        ir = """
        @g = global i32 0
        declare i32 @ext(i32*)
        define i32 @main() {
        entry:
          %p = gep @g, 0
          %r = call @ext(%p)
          store %r, @g
          ret 0
        }
        """
        m = parse_module(ir)
        pt = AndersenPointsTo(m)
        assert pt.heap_top
        assert any(c.code == "analysis-external-call" for c in pt.causes)
        table = compute_summaries(m)
        assert table.functions["main"].mod is None

    def test_undefined_pointer_names_no_object(self):
        src = """
        unsigned int a[4];
        unsigned int acc;
        int main(void) {
            unsigned int *p;
            unsigned int i;
            for (i = 0; i < 3; i++) {
                if (i == 1) { p = a; }
                if (i == 2) { acc = acc + p[0]; }
            }
            return 0;
        }
        """
        # mem2reg feeds ``p``'s phi an undef on the path before the store
        m, table = _summaries(src, optimize=True)
        assert table.functions["main"].ref == frozenset(
            {_global(m, "a"), _global(m, "acc")})
        assert table.causes == []

    def test_summary_sets_intersect_top(self):
        assert summary_sets_intersect(None, frozenset())
        assert summary_sets_intersect(frozenset({1}), None)
        assert not summary_sets_intersect(frozenset({1}), frozenset({2}))
        assert summary_sets_intersect(frozenset({1, 2}), frozenset({2}))


class TestGepDepthDiagnostic:
    def _deep_module(self, depth):
        geps = "\n".join(
            f"  %p{i} = gep {'@a' if i == 0 else f'%p{i - 1}'}, 0"
            for i in range(depth)
        )
        ir = f"""
        @a = global [4 x i32] [1, 2, 3, 4]
        define void @use(i32* %q) {{
        entry:
          %x = load i32, %q
          store %x, %q
          ret void
        }}
        define i32 @main() {{
        entry:
        {geps}
          call @use(%p{depth - 1})
          %y = load i32, %p{depth - 1}
          store %y, %p{depth - 1}
          ret 0
        }}
        """
        return parse_module(ir)

    def test_deep_chain_records_cause(self):
        m = self._deep_module(MAX_GEP_DEPTH + 2)
        table = compute_summaries(m)
        assert table.functions["main"].mod is None  # degraded to TOP
        assert any(c.code == "analysis-gep-depth" for c in table.causes)

    def test_deep_chain_emits_warning_diagnostic(self):
        m = self._deep_module(MAX_GEP_DEPTH + 2)
        engine = DiagnosticEngine()
        compute_summaries(m, engine=engine)
        warnings = [d for d in engine.diagnostics if d.severity == WARNING]
        assert any(d.code == "analysis-gep-depth" for d in warnings)
        assert not engine.has_errors

    def test_shallow_chain_is_silent(self):
        m = self._deep_module(4)
        engine = DiagnosticEngine()
        pt = AndersenPointsTo(m)
        report_top_causes(pt.causes, engine)
        arg = m.get_function("use").args[0]
        assert pt.argument_map()[id(arg)] == frozenset({_global(m, "a")})
        assert not any(
            d.code.startswith("analysis-") for d in engine.diagnostics
        )


#: A loop that keeps the function above the always-inliner's threshold
#: and, through its read-modify-write of @acc, ends in a checkpoint.
_PADDED_LOOP = """
    unsigned int s = 0;
    unsigned int u = 1;
    unsigned int i;
    for (i = 0; i < 3; i++) {
        s = s + (acc ^ i);
        u = u * 3 + s;
        acc = acc + u;
    }
"""

#: ``f`` reads ``p[0]``, then writes ``b[1]``: a WAR when ``p`` is
#: ``&b[1]``, which only a checkpoint between the two protects.
_F_SRC = """
unsigned int a[4];
unsigned int b[4];
unsigned int acc;

void f(unsigned int *p) {
    unsigned int t;
""" + _PADDED_LOOP + """
    t = p[0];
    b[1] = t + 1;
}
"""

#: The second call to ``f`` passes ``&b[1]`` computed with integer
#: arithmetic.
CALL_SITE_SRC = _F_SRC + """
int main(void) {
    unsigned int x;
    f(a);
    x = (unsigned int)b;
    f((unsigned int *)(x + 4));
    return 0;
}
"""

#: ``g`` stores through an integer parameter that holds ``&b[0]``, which
#: ``main`` read before the call; ``g`` must not look transparent.  Its
#: loop only keeps it from being inlined.
CALLEE_SRC = """
unsigned int b[4];
unsigned int out;

void g(unsigned int addr) {
    unsigned int *q = (unsigned int *)addr;
    unsigned int s = 0;
    unsigned int u = 1;
    unsigned int i;
    for (i = 0; i < 3; i++) {
        s = s + (addr ^ i);
        u = u * 3 + s;
        s = s + u;
    }
    q[0] = s + u;
}

int main(void) {
    unsigned int t = b[0];
    g((unsigned int)b + 0u);
    out = t;
    return 0;
}
"""

#: Where the data layout puts ``_F_SRC``'s ``b[1]``.
B1_ADDRESS = 0x1014

#: The address of ``b[1]`` reaches ``f`` as an integer turned back into a
#: pointer: stored into a pointer global, into an integer array read back
#: through a punned pointer, into a pointer global through an integer
#: address, returned by a function declared to return a pointer, or
#: written as a constant into an initialised integer array.
ROUND_TRIP_SRCS = {
    "integer-in-pointer-cell": _F_SRC + """
unsigned int *gp;
void setp(unsigned int v) { gp = (unsigned int *)v; }
int main(void) {
    f(a);
    setp((unsigned int)b + 4);
    f(gp);
    return 0;
}
""",
    "punned-integer-cell": _F_SRC + """
unsigned int cell[1];
int main(void) {
    unsigned int **pp;
    f(a);
    cell[0] = (unsigned int)b + 4;
    pp = (unsigned int **)cell;
    f(pp[0]);
    return 0;
}
""",
    "store-through-integer-address": _F_SRC + """
unsigned int *gp;
void poke(unsigned int addr, unsigned int v) {
    unsigned int *q = (unsigned int *)addr;
""" + _PADDED_LOOP + """
    q[0] = v + (s & 0u);
}
int main(void) {
    f(a);
    poke((unsigned int)&gp, (unsigned int)b + 4);
    f(gp);
    return 0;
}
""",
    "returned-as-pointer": _F_SRC + """
unsigned int *at(unsigned int v) {
    unsigned int s = 0;
    unsigned int u = 1;
    unsigned int i;
    for (i = 0; i < 3; i++) {
        s = s + (acc ^ i);
        u = u * 3 + s;
        acc = acc + u;
        s = s + u;
        u = u ^ s;
    }
    return (unsigned int *)v;
}
int main(void) {
    f(a);
    f(at((unsigned int)b + 4));
    return 0;
}
""",
    "initialised-integer-cell": _F_SRC + """
unsigned int cell[1] = {%#xu};
int main(void) {
    unsigned int **pp;
    f(a);
    pp = (unsigned int **)cell;
    f(pp[0]);
    return 0;
}
""" % B1_ADDRESS,
}


def _unknown_root_in(causes, function):
    return any(c.code == "analysis-unknown-root" and c.function == function
               for c in causes)


def _assert_clean_and_certified(source, env):
    machine = compile_and_run(source, env, war_check=True)
    assert machine.war.clean, (env, machine.war.violations[:2])
    result = lint_sources(source, env, level="full")
    assert result.certified, (env, result.engine.summary())


class TestIntegerDerivedAddresses:
    """An address the solver does not track points anywhere."""

    def test_integer_arithmetic_argument_is_top(self):
        m = compile_source(CALL_SITE_SRC)
        optimize_module(m)
        pt = AndersenPointsTo(m)
        param = m.get_function("f").args[0]
        assert pt.argument_map()[id(param)] is None
        assert _unknown_root_in(pt.causes, "main")

    def test_store_through_integer_parameter_is_top(self):
        m = compile_source(CALLEE_SRC)
        optimize_module(m)
        table = compute_summaries(m)
        assert table.functions["g"].mod is None
        assert "g" not in table.transparent
        assert _unknown_root_in(table.causes, "g")

    @pytest.mark.parametrize("shape", sorted(ROUND_TRIP_SRCS))
    def test_integer_read_back_as_pointer_is_top(self, shape):
        m = compile_source(ROUND_TRIP_SRCS[shape])
        optimize_module(m)
        pt = AndersenPointsTo(m)
        param = m.get_function("f").args[0]
        assert pt.argument_map()[id(param)] is None
        assert any(c.code.startswith("analysis-") for c in pt.causes)

    def test_initialised_cell_holds_the_address_of_b1(self):
        program = iclang(ROUND_TRIP_SRCS["initialised-integer-cell"], "plain")
        assert program.global_addr["b"] + 4 == B1_ADDRESS

    @pytest.mark.parametrize("env", INSTRUMENTED)
    @pytest.mark.parametrize("source", [CALL_SITE_SRC, CALLEE_SRC],
                             ids=["call-site", "callee"])
    def test_runs_war_clean_and_certifies(self, source, env):
        _assert_clean_and_certified(source, env)

    @pytest.mark.parametrize("env", ["wario", "wario-summaries"])
    @pytest.mark.parametrize("shape", sorted(ROUND_TRIP_SRCS))
    def test_round_trip_runs_war_clean_and_certifies(self, shape, env):
        _assert_clean_and_certified(ROUND_TRIP_SRCS[shape], env)

    def test_causes_are_located_at_the_store(self, tmp_path, capsys):
        """Both warnings name the line of ``q[0] = s + u;``, the store
        through the untracked address."""
        path = tmp_path / "callee.c"
        path.write_text(CALLEE_SRC)
        assert main(["lint", str(path), "--env", "wario-summaries"]) == 0
        out = capsys.readouterr().out
        line = CALLEE_SRC.splitlines().index("    q[0] = s + u;") + 1
        for code in ("analysis-unknown-root", "analysis-heap-store-top"):
            assert f"callee.c.0:{line}: warning: [{code}]" in out


#: An integer parameter cast to a pointer and stored through (``poke``)
#: or loaded through (``peek``), called with the address of ``buf[1]``;
#: ``main`` returns 7 either way.
CAST_SRCS = {
    "store": """
unsigned int buf[4];
void poke(unsigned int addr, unsigned int v) { unsigned int *q = (unsigned int *)addr; *q = v; }
int main(void) { poke((unsigned int)&buf[1], 7u); return buf[1]; }
""",
    "load": """
unsigned int buf[4] = {3u, 7u, 11u, 13u};
unsigned int peek(unsigned int addr) { unsigned int *q = (unsigned int *)addr; return *q; }
int main(void) { return peek((unsigned int)&buf[1]); }
""",
}


class TestCastToPointer:
    """A cast from an integer to a pointer compiles to a pointer-typed
    address whose points-to set is TOP."""

    @pytest.mark.parametrize("shape", sorted(CAST_SRCS))
    def test_the_address_is_top_with_its_cause(self, shape):
        m = compile_source(CAST_SRCS[shape])
        optimize_module(m)
        pt = AndersenPointsTo(m)
        fname = "poke" if shape == "store" else "peek"
        access = Store if shape == "store" else Load
        for instr in m.get_function(fname).instructions():
            if isinstance(instr, access):
                assert pt.objects_of(instr.pointer, fname) is None
        assert _unknown_root_in(pt.causes, fname)

    @pytest.mark.parametrize("env", ALL_ENVIRONMENTS)
    @pytest.mark.parametrize("shape", sorted(CAST_SRCS))
    def test_runs_and_certifies_everywhere(self, shape, env):
        machine = compile_and_run(CAST_SRCS[shape], env, war_check=True)
        assert machine.regs["r0"] == 7
        assert machine.read_global("buf", count=2) == (
            [0, 7] if shape == "store" else [3, 7])
        assert machine.war.clean, (env, machine.war.violations[:2])
        result = lint_sources(CAST_SRCS[shape], env, level="full")
        assert result.certified, (env, result.engine.summary())


RELAXED_SRC = """
unsigned int g; unsigned int h;
void touch_h(void) { h = 5; }
void write_g(void) { g = 9; }
int main(void) {
    unsigned int x = g;
    touch_h();
    g = x + 1;
    return 0;
}
"""


class TestRelaxedCallModel:
    def test_transparent_call_no_longer_resolves_war(self):
        m = compile_source(RELAXED_SRC)
        table = compute_summaries(m)
        assert "touch_h" in table.transparent
        f = m.main
        aa = AliasAnalysis(f, PRECISE, points_to=table.arg_points_to)
        li = loop_info(f)
        barrier_model = find_wars(f, aa, li, calls_are_checkpoints=True)
        relaxed = find_wars(f, aa, li, calls_are_checkpoints=True,
                            summaries=table)
        assert barrier_model == []  # the call used to break the WAR
        assert len(relaxed) == 1 and relaxed[0].kind == FORWARD

    def test_call_as_write_endpoint(self):
        src = """
        unsigned int g;
        void write_g(void) { g = 9; }
        int main(void) {
            unsigned int x = g;
            write_g();
            g = x;
            return 0;
        }
        """
        m = compile_source(src)
        table = compute_summaries(m)
        assert "write_g" in table.transparent
        f = m.main
        aa = AliasAnalysis(f, PRECISE, points_to=table.arg_points_to)
        wars = find_wars(f, aa, loop_info(f), summaries=table)
        # load g -> call (mod g) and load g -> store g are both WARs
        call_wars = [w for w in wars if isinstance(w.store, Call)]
        assert call_wars and all(w.kind == FORWARD for w in call_wars)

    def test_call_as_read_endpoint(self):
        src = """
        unsigned int g; unsigned int out;
        unsigned int read_g(void) { return g; }
        int main(void) {
            out = read_g();
            g = 3;
            return 0;
        }
        """
        m = compile_source(src)
        table = compute_summaries(m)
        assert "read_g" in table.transparent
        f = m.main
        aa = AliasAnalysis(f, PRECISE, points_to=table.arg_points_to)
        wars = find_wars(f, aa, loop_info(f), summaries=table)
        call_wars = [w for w in wars if isinstance(w.load, Call)]
        assert call_wars and all(w.kind == FORWARD for w in call_wars)

    def test_inserter_breaks_relaxed_wars_and_verifier_agrees(self):
        for alias_mode in (PRECISE, CONSERVATIVE):
            m = compile_source(RELAXED_SRC)
            optimize_module(m)
            table = compute_summaries(m, alias_mode=alias_mode)
            inserted = insert_checkpoints(m, alias_mode=alias_mode,
                                          summaries=table)
            assert inserted >= 1
            engine = verify_module_war(m, alias_mode=alias_mode,
                                       summaries=table)
            assert not engine.has_errors

    def test_verifier_reports_unbroken_cross_call_war(self):
        m = compile_source(RELAXED_SRC)
        table = compute_summaries(m)
        engine = verify_module_war(m, summaries=table)
        codes = {d.code for d in engine.diagnostics if d.severity != WARNING}
        assert "war-forward" in codes


class TestCallsAreCheckpointsFalse:
    SRC = """
    unsigned int g;
    void spacer(void) { unsigned int t = g; if (t > 100) { g = 0; } }
    int main(void) {
        unsigned int x = g;
        spacer();
        g = x + 1;
        return 0;
    }
    """

    def test_memdep_plain_model_keeps_war(self):
        m = compile_source(self.SRC)
        f = m.main
        aa = AliasAnalysis(f, PRECISE)
        li = loop_info(f)
        with_barriers = find_wars(f, aa, li, calls_are_checkpoints=True)
        without = find_wars(f, aa, li, calls_are_checkpoints=False)
        assert with_barriers == []
        assert any(w.kind == FORWARD for w in without)

    def test_memdep_ignores_summaries_in_plain_model(self):
        m = compile_source(self.SRC)
        table = compute_summaries(m)
        f = m.main
        aa = AliasAnalysis(f, PRECISE, points_to=table.arg_points_to)
        li = loop_info(f)
        plain = find_wars(f, aa, li, calls_are_checkpoints=False,
                          summaries=table)
        # no barrier anywhere and no call endpoints: pure load/store WARs
        assert plain and not any(
            isinstance(w.load, Call) or isinstance(w.store, Call)
            for w in plain
        )

    def test_static_war_plain_model_reports(self):
        m = compile_source(self.SRC)
        f = m.main
        engine = verify_function_war(f, calls_are_checkpoints=False)
        assert engine.has_errors
        engine2 = verify_function_war(f, calls_are_checkpoints=True)
        assert not engine2.has_errors


class TestAffineEdgeCases:
    def test_negative_iv_coefficient(self):
        src = """
        unsigned int a[16];
        int main(void) {
            int i;
            for (i = 0; i < 16; i++) { a[15 - i] = a[15 - i] + 1; }
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        f = m.main
        li = loop_info(f)
        affine = find_wars(f, AliasAnalysis(f, AFFINE), li)
        precise = find_wars(f, AliasAnalysis(f, PRECISE), li)
        # the -1/iteration stride never revisits an element, so both
        # modes agree: just the same-iteration forward WAR
        assert affine and all(w.kind == FORWARD for w in affine)
        assert precise and all(w.kind == FORWARD for w in precise)

    def test_negative_stride_store_behind_read(self):
        # Writes walk down by two elements; reads trail one element
        # behind the write of the same iteration.  No later iteration's
        # store can land on an earlier iteration's load (the gap is one
        # element but the stride is two), which only the affine solver
        # can prove with a negative coefficient.
        src = """
        unsigned int a[32]; unsigned int out;
        int main(void) {
            int i; unsigned int x = 0;
            for (i = 0; i < 7; i++) {
                a[31 - 2*i] = (unsigned int)i;
                x += a[30 - 2*i];
            }
            out = x;
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        f = m.main
        li = loop_info(f)
        affine = find_wars(f, AliasAnalysis(f, AFFINE), li)
        precise = find_wars(f, AliasAnalysis(f, PRECISE), li)
        assert any(w.kind == BACKWARD for w in precise)
        assert affine == []

    def test_cast_through_index_chain(self):
        src = """
        unsigned int a[16];
        int main(void) {
            unsigned char i;
            for (i = 0; i < 16; i++) { a[i] = a[i] + 1; }
            return 0;
        }
        """
        m = compile_source(src)
        optimize_module(m)
        f = m.main
        li = loop_info(f)
        affine = find_wars(f, AliasAnalysis(f, AFFINE), li)
        # the i8 induction variable reaches the GEP through a zext; the
        # affine decomposition must see through the cast chain
        assert affine and all(w.kind == FORWARD for w in affine)

    def test_nested_geps_accumulate_offsets(self):
        ir = """
        @a = global [16 x i32] None
        define i32 @main() {
        entry:
          %p = gep @a, 2
          %q = gep %p, 3
          %r = gep @a, 5
          %s = gep %p, 4
          %x = load i32, %q
          store %x, %r
          store %x, %s
          ret 0
        }
        """
        m = parse_module(ir)
        f = m.main
        aa = AliasAnalysis(f, PRECISE)
        loads = [i for i in f.instructions() if isinstance(i, Load)]
        stores = [i for i in f.instructions() if isinstance(i, Store)]
        # gep(gep(@a,2),3) == gep(@a,5) but != gep(@a,6)
        assert aa.may_alias(loads[0].pointer, 4, stores[0].pointer, 4)
        assert not aa.may_alias(loads[0].pointer, 4, stores[1].pointer, 4)

    def test_nested_geps_in_summaries(self):
        ir = """
        @a = global [16 x i32] None
        define void @deep() {
        entry:
          %p = gep @a, 2
          %q = gep %p, 3
          %x = load i32, %q
          ret void
        }
        define i32 @main() {
        entry:
          call @deep()
          ret 0
        }
        """
        m = parse_module(ir)
        table = compute_summaries(m)
        s = table.functions["deep"]
        assert s.ref == frozenset({_global(m, "a")})
        assert s.mod == frozenset()


class TestLintJsonDeterminism:
    BAD_SRC = """
    unsigned int g; unsigned int h;
    int main(void) {
        unsigned int x = g;
        unsigned int y = h;
        h = y + 1;
        g = x + 1;
        return 0;
    }
    """

    def test_diagnostics_sorted_by_file_line_code(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text(self.BAD_SRC)
        code = main(["lint", str(path), "--env", "plain", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 1
        findings = json.loads(out)["diagnostics"]
        assert findings  # the uninstrumented build must have findings

        def key(d):
            loc = d.get("loc") or {}
            return (loc.get("file", ""), loc.get("line", 0), d["code"])

        assert [key(d) for d in findings] == sorted(key(d) for d in findings)


class TestAnalyzeCommand:
    def test_analyze_benchmark_text(self, capsys):
        assert main(["analyze", "--benchmark", "crc"]) == 0
        out = capsys.readouterr().out
        assert "== crc [wario-summaries] ==" in out
        assert "mod:" in out and "ref:" in out

    def test_analyze_sources_json(self, tmp_path, capsys):
        path = tmp_path / "prog.c"
        path.write_text(RELAXED_SRC)
        assert main(["analyze", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload[0]
        rows = {row["function"]: row for row in entry["functions"]}
        assert rows["touch_h"]["transparent"]
        assert rows["touch_h"]["mod"] == ["@h"]
        assert not rows["main"]["transparent"]

    def test_analyze_requires_exactly_one_input(self, capsys):
        assert main(["analyze"]) == 2
