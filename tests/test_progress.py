"""Forward-progress certifier (repro.analysis.progress): trip-bound
inference, machine-level region cycle bounds, lint/CLI integration, and
the dynamic soundness contract (static bound >= every observed
inter-checkpoint gap)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, iclang
from repro.analysis.progress import (
    UNBOUNDED,
    argument_constants,
    loop_trip_bounds,
    module_progress_verdict,
)
from repro.benchsuite import BENCHMARKS, get_benchmark, verify_outputs
from repro.core.lint import lint_sources
from repro.emulator import NoForwardProgress
from repro.emulator.costs import DEFAULT_COSTS
from repro.emulator.events import EventTrace
from repro.emulator.power import FixedPeriodPower
from repro.emulator.stats import ExecutionStats
from repro.frontend import compile_sources

from .test_region_bound import ENDLESS


def _front(source, name="prog"):
    module = compile_sources([source], name)
    return module


def _trip_bounds(source, fn="main", arg_values=None):
    from repro.transforms import optimize_module

    module = _front(source)
    optimize_module(module)
    function = next(f for f in module.defined_functions() if f.name == fn)
    return loop_trip_bounds(function, arg_values)


def _lint(source, env, name="prog", budget=None):
    return lint_sources(source, env, name=name, cache=False, level="full",
                        budget=budget)


# ---------------------------------------------------------------------------
# trip-bound inference
# ---------------------------------------------------------------------------

def test_constant_trip_count_bounded():
    src = """
    unsigned int out;
    int main(void) {
        int i; unsigned int s = 0;
        for (i = 0; i < 37; i++) { s = s + i; }
        out = s;
        return 0;
    }
    """
    bounds = _trip_bounds(src)
    finite = [b for b in bounds.values() if b != UNBOUNDED]
    assert finite, bounds
    # 37 iterations, +1 rotation widening
    assert all(37 <= b <= 38 for b in finite), bounds


def test_loaded_stride_is_unbounded():
    src = """
    unsigned int stride = 1;
    unsigned int out;
    int main(void) {
        unsigned int x = 50; unsigned int n = 0;
        while (x != 0) { x = x - stride; n = n + 1; }
        out = n;
        return 0;
    }
    """
    bounds = _trip_bounds(src)
    assert any(b == UNBOUNDED for b in bounds.values()), bounds


def test_argument_constants_collected():
    src = """
    unsigned int out;
    unsigned int f(int n, int m) {
        int i; unsigned int s = 0;
        for (i = 0; i < n; i++) { s = s + m; }
        return s;
    }
    int main(void) {
        out = f(16, 3) + f(8, 5);
        return 0;
    }
    """
    module = _front(src)
    table = argument_constants(module)
    assert table["f"][0] == (8, 16)
    assert table["f"][1] == (3, 5)
    # 'main' has no call sites, so no entry at all
    assert "main" not in table


def test_argument_valued_limit_bounded_via_call_sites():
    # the callee body is padded past the always-inliner's threshold so
    # the calls (and their constant arguments) survive into the IR
    src = """
    unsigned int out;
    unsigned int f(int n) {
        int i; unsigned int s = 0;
        for (i = 0; i < n; i++) {
            s = s + i;
            s = s ^ (s << 3);
            s = s + (s >> 5);
            s = s ^ (s << 7);
            s = s + (s >> 11);
            s = s ^ (s << 13);
            s = s + (s >> 2);
            s = s ^ (s << 4);
            s = s + (s >> 6);
            s = s ^ (s << 8);
            s = s + (s >> 9);
            s = s ^ (s << 10);
            s = s + (s >> 12);
        }
        return s;
    }
    int main(void) {
        out = f(16) + f(9);
        return 0;
    }
    """
    from repro.transforms import optimize_module

    module = _front(src)
    optimize_module(module)
    table = argument_constants(module)
    fn = next(f for f in module.defined_functions() if f.name == "f")
    bounds = loop_trip_bounds(fn, table.get("f"))
    finite = [b for b in bounds.values() if b != UNBOUNDED]
    # the worst call site (n=16) bounds the trip count
    assert finite and all(16 <= b <= 17 for b in finite), bounds
    # without the call-site facts the same loop is unbounded
    bare = loop_trip_bounds(fn)
    assert any(b == UNBOUNDED for b in bare.values()), bare


# ---------------------------------------------------------------------------
# machine-level certification: the whole suite is bounded
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
@pytest.mark.parametrize("env", ["wario", "ratchet"])
def test_suite_benchmarks_have_finite_bounds(bench_name, env):
    bench = BENCHMARKS[bench_name]
    result = lint_sources(bench.source, env, name=bench_name, level="full")
    assert result.progress, "full-level lint must emit progress certificates"
    assert module_progress_verdict(result.progress) == "bounded"
    bound = result.progress_bound
    assert bound is not None and bound > 0
    for cert in result.progress:
        assert cert["verdict"] == "bounded"
        for region in cert["regions"]:
            assert region["bound"] is not None


def test_certificate_schema():
    bench = BENCHMARKS["crc"]
    result = lint_sources(bench.source, "wario", name="crc", level="full")
    for cert in result.progress:
        assert set(cert) == {
            "function", "verdict", "max_bound", "regions", "loops", "notes",
        }
        for region in cert["regions"]:
            assert region["kind"] in ("entry", "interior", "exit", "through")
        for loop in cert["loops"]:
            assert set(loop) == {
                "header", "trip_bound", "checkpoint_free_iteration",
            }


# ---------------------------------------------------------------------------
# dynamic soundness: static bound >= every observed gap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bench_name,env", [
    ("crc", "wario"),
    ("tiny-aes", "ratchet"),
])
def test_static_bound_covers_observed_gaps(bench_name, env):
    bench = BENCHMARKS[bench_name]
    result = lint_sources(bench.source, env, name=bench_name, level="full")
    bound = result.progress_bound
    assert bound is not None
    program = iclang(bench.source, env, name=bench_name)
    trace = EventTrace()
    machine = Machine(program, war_check=True, trace=trace)
    stats = machine.run(max_instructions=bench.max_instructions)
    assert stats.halted
    observed = max(trace.max_checkpoint_gap(stats.cycles),
                   stats.max_region_cycles)
    assert 0 < observed <= bound


def test_guaranteed_progress_on_time_completes():
    bench = BENCHMARKS["crc"]
    result = lint_sources(bench.source, "wario", name="crc", level="full")
    bound = result.progress_bound
    costs = DEFAULT_COSTS
    on_time = (costs.boot_cycles + costs.restore_cycles + bound
               + costs.checkpoint_cycles + 1)
    program = iclang(bench.source, "wario", name="crc")
    machine = Machine(program, war_check=True)
    stats = machine.run(power=FixedPeriodPower(on_time),
                        max_instructions=bench.max_instructions * 4)
    assert stats.halted and stats.power_failures > 0
    verify_outputs(bench, machine)


# ---------------------------------------------------------------------------
# the seeded true positive: spin
# ---------------------------------------------------------------------------

def test_spin_flagged_unbounded_statically():
    bench = get_benchmark("spin")
    result = _lint(bench.source, "wario", name="spin")
    codes = {d.code for d in result.engine.diagnostics}
    assert "progress-unbounded" in codes
    assert result.progress_bound is None
    assert module_progress_verdict(result.progress) == "unbounded"
    # without a budget the finding is a warning, not an error
    assert result.certified


def test_spin_unbounded_becomes_error_with_budget():
    bench = get_benchmark("spin")
    result = _lint(bench.source, "wario", name="spin", budget=10_000)
    assert not result.certified
    errors = {d.code for d in result.engine.diagnostics
              if d.severity == "error"}
    assert "progress-unbounded" in errors


def test_spin_starves_dynamically_and_completes_continuously():
    bench = get_benchmark("spin")
    program = iclang(bench.source, "wario", name="spin")
    machine = Machine(program, war_check=True)
    stats = machine.run(max_instructions=bench.max_instructions)
    assert stats.halted
    verify_outputs(bench, machine)

    costs = DEFAULT_COSTS
    short = costs.boot_cycles + costs.restore_cycles + 2_000
    starving = Machine(iclang(bench.source, "wario", name="spin"),
                       war_check=True)
    with pytest.raises(NoForwardProgress):
        starving.run(power=FixedPeriodPower(short),
                     max_instructions=bench.max_instructions)


def test_progress_differential_quick_is_sound():
    from repro.faultinject import (
        quick_progress_config, run_progress_differential,
    )

    report = run_progress_differential(quick_progress_config())
    assert report.certified
    by_bench = {cell.bench: cell for cell in report.cells}
    spin_cell = by_bench["spin"]
    assert spin_cell.static_bound is None
    assert spin_cell.starvation == "starved"
    assert spin_cell.agreement == "progress-true-positive"
    for cell in report.cells:
        if cell.static_bound is not None:
            assert cell.dynamic_max_gap <= cell.static_bound
            assert 0 < cell.tightness <= 1
            assert cell.starvation == "completed"
    # round-trips through JSON
    payload = json.loads(report.to_json())
    assert payload["certified"] is True


# ---------------------------------------------------------------------------
# budget diagnostics
# ---------------------------------------------------------------------------

def test_budget_exceeded_is_error():
    bench = BENCHMARKS["crc"]
    generous = _lint(bench.source, "wario", name="crc", budget=10_000_000)
    assert generous.certified
    tight = _lint(bench.source, "wario", name="crc", budget=100)
    assert not tight.certified
    errors = {d.code for d in tight.engine.diagnostics
              if d.severity == "error"}
    assert "progress-budget-exceeded" in errors


def test_region_bound_promise_cross_checked():
    from dataclasses import replace

    from repro.core.pipeline import ENVIRONMENTS

    bench = BENCHMARKS["crc"]
    # a 30-estimated-cycle promise cannot hold at machine level: the
    # 50-cycle checkpoint commit alone (invisible to the IR estimate,
    # which charges checkpoints 0) exceeds it
    env = replace(ENVIRONMENTS["wario"], name="wario+rb30",
                  max_region_cycles=30)
    result = _lint(bench.source, env, name="crc")
    codes = {d.code for d in result.engine.diagnostics}
    assert "progress-region-bound-unsound" in codes
    # a generous promise survives the back end: no finding
    generous = replace(ENVIRONMENTS["wario"], name="wario+rb5000",
                       max_region_cycles=5000)
    clean = _lint(bench.source, generous, name="crc")
    assert "progress-region-bound-unsound" not in {
        d.code for d in clean.engine.diagnostics
    }


def test_recursion_is_unbounded():
    src = """
    unsigned int out;
    unsigned int f(int n) {
        if (n <= 0) { return 1; }
        return n * f(n - 1);
    }
    int main(void) {
        out = f(5);
        return 0;
    }
    """
    result = _lint(src, "wario")
    codes = {d.code for d in result.engine.diagnostics}
    assert "progress-unbounded" in codes
    assert result.progress_bound is None


def test_endless_loops_are_measured():
    """A loop that never exits bounds its regions like any other: one
    that checkpoints every iteration is bounded, and a checkpoint-free
    one on a branch that never returns leaves the program unbounded."""
    counter = _lint("unsigned int counter;\n"
                    "int main(void) { for (;;) { counter = counter + 1; } }",
                    "wario")
    assert module_progress_verdict(counter.progress) == "bounded"
    assert counter.progress_bound is not None
    branch = _lint(ENDLESS["branch"], "wario")
    assert module_progress_verdict(branch.progress) == "unbounded"
    assert branch.progress_bound is None


# ---------------------------------------------------------------------------
# observation plumbing
# ---------------------------------------------------------------------------

def test_event_trace_checkpoint_gaps():
    trace = EventTrace()
    trace.record("checkpoint", 100, 0)
    trace.record("checkpoint", 350, 5)
    trace.record("restore", 1390, 5)      # boot-containing segment skipped
    trace.record("checkpoint", 1500, 9)
    assert trace.checkpoint_gaps() == [100, 250, 110]
    assert trace.checkpoint_gaps(end_cycle=1620) == [100, 250, 110, 120]
    assert trace.max_checkpoint_gap(end_cycle=1620) == 250


def test_stats_max_region_cycles_includes_trailing_region():
    stats = ExecutionStats()
    stats.record_checkpoint("entry", 120)
    stats.record_checkpoint("loop", 300)
    stats.final_region_cycles = 450
    assert stats.region_max == 300
    assert stats.max_region_cycles == 450


def test_machine_records_final_region_cycles():
    src = """
    unsigned int out;
    int main(void) {
        out = 7;
        return 0;
    }
    """
    for fast in (True, False):
        machine = Machine(iclang(src, "wario"), fast_interp=fast)
        stats = machine.run()
        assert stats.halted
        assert stats.final_region_cycles > 0
        assert stats.max_region_cycles >= stats.region_max


# ---------------------------------------------------------------------------
# property: static bound covers the observed max gap on random programs
# ---------------------------------------------------------------------------

@st.composite
def bounded_loop_program(draw):
    n = draw(st.integers(3, 40))
    mul = draw(st.integers(1, 7))
    add = draw(st.integers(0, 100))
    inner = draw(st.integers(1, 6))
    src = f"""
    unsigned int a[64];
    unsigned int total;
    int main(void) {{
        int i; int j;
        unsigned int t = 0;
        for (i = 0; i < {n}; i++) {{
            a[i] = a[i] * {mul} + {add};
            for (j = 0; j < {inner}; j++) {{
                t = t + a[i] + (unsigned int)j;
            }}
        }}
        total = t;
        return 0;
    }}
    """
    return src


@settings(max_examples=15, deadline=None)
@given(bounded_loop_program(), st.sampled_from(["wario", "ratchet"]))
def test_static_bound_dominates_dynamic_gap(src, env):
    result = lint_sources(src, env, name="prop", cache=False, level="full")
    bound = result.progress_bound
    assert bound is not None
    program = iclang(src, env, cache=False)
    trace = EventTrace()
    machine = Machine(program, war_check=True, trace=trace)
    stats = machine.run(max_instructions=5_000_000)
    assert stats.halted
    observed = max(trace.max_checkpoint_gap(stats.cycles),
                   stats.max_region_cycles)
    assert observed <= bound
