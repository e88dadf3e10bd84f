"""Static WAR-freedom verification: the region dataflow over the
middle-end IR, the machine-level stack verifier, the diagnostics
framework, and the ``python -m repro lint`` CLI.

The central cross-check (hypothesis): for randomly generated programs,
under every environment, a *statically certified* binary must execute
with **zero** dynamic WAR violations — and conversely any dynamic
violation must have been predicted statically.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, iclang
from repro.__main__ import main
from repro.analysis.static_war import verify_function_war, verify_module_war
from repro.backend.disasm import disassemble
from repro.benchsuite import BENCHMARKS
from repro.core import ENVIRONMENTS, build, lower, run_middle_end
from repro.core.lint import (
    EXIT_CLEAN,
    EXIT_COMPILE_FAILED,
    EXIT_ERRORS,
    certify,
    lint_sources,
    strip_checkpoints,
)
from repro.diagnostics import (
    ERROR,
    LEVEL_IR,
    Diagnostic,
    DiagnosticEngine,
    SourceLoc,
    render_json,
)
from repro.frontend import compile_sources

from .helpers import ALL_ENVIRONMENTS, INSTRUMENTED

#: Environments whose output the verifier must certify (acceptance set).
CERTIFIED_ENVIRONMENTS = ("ratchet", "r-pdg", "wario", "wario-expander")

#: A program whose uninstrumented form has an obvious WAR: the
#: read-modify-write of @counter (and @acc) inside the loop.
RMW_SOURCE = """
unsigned int counter;
unsigned int acc;
int main(void) {
    int i;
    for (i = 0; i < 8; i++) {
        counter = counter + 1;
        acc = acc + counter;
    }
    return 0;
}
"""


# ---------------------------------------------------------------------------
# diagnostics framework
# ---------------------------------------------------------------------------


def test_source_loc_rendering():
    assert not SourceLoc().known
    loc = SourceLoc(12, "prog.0")
    assert loc.known
    assert str(loc) == "prog.0:12"


def test_diagnostic_render_and_dict():
    loc = SourceLoc(3, "m.0")
    diag = Diagnostic(ERROR, "war-forward", "store may overwrite",
                      function="f", region="entry", level=LEVEL_IR,
                      loc=loc, related=[("load is here", SourceLoc(2, "m.0"))])
    text = diag.render()
    assert "m.0:3" in text and "error" in text and "war-forward" in text
    assert "load is here" in text  # related note rendered beneath
    payload = diag.to_dict()
    assert payload["severity"] == ERROR
    assert payload["loc"] == {"file": "m.0", "line": 3}
    assert payload["related"][0]["message"] == "load is here"
    assert payload["related"][0]["loc"] == {"file": "m.0", "line": 2}


def test_engine_counting_and_json():
    engine = DiagnosticEngine()
    assert engine.clean and not engine.has_errors
    engine.warning("w", "just a warning", function="f")
    assert engine.clean is False and engine.has_errors is False
    engine.error("e", "a real problem", function="f")
    assert engine.has_errors
    assert engine.count(ERROR) == 1
    assert "1 error, 1 warning" in engine.summary()
    decoded = json.loads(render_json(engine.diagnostics))
    assert [d["code"] for d in decoded["diagnostics"]] == ["w", "e"]
    assert decoded["counts"] == {"error": 1, "warning": 1, "note": 0}


# ---------------------------------------------------------------------------
# IR-level verifier
# ---------------------------------------------------------------------------


def _middle_end_module(source, env):
    config = ENVIRONMENTS[env]
    module = compile_sources([source], "prog")
    run_middle_end(module, config)
    return module, config


def test_uninstrumented_rmw_is_flagged_with_pair():
    module, config = _middle_end_module(RMW_SOURCE, "plain")
    engine = verify_module_war(
        module, alias_mode=config.alias_mode, calls_are_checkpoints=False
    )
    assert engine.has_errors
    pairs = [d for d in engine.diagnostics
             if d.code in ("war-forward", "war-backward") and d.related]
    assert pairs, "expected a load/store pair diagnostic"
    # The pair names the store site and carries the load as a note.
    diag = pairs[0]
    assert "@counter" in diag.message or "@acc" in diag.message
    assert any("load" in msg for msg, _loc in diag.related)


def test_instrumented_rmw_is_certified():
    for env in INSTRUMENTED:
        module, config = _middle_end_module(RMW_SOURCE, env)
        engine = verify_module_war(
            module, alias_mode=config.alias_mode, calls_are_checkpoints=True
        )
        assert not engine.has_errors, (env, engine.summary())


def test_verify_function_war_single_function():
    module, config = _middle_end_module(RMW_SOURCE, "wario")
    (fn,) = [f for f in module.defined_functions() if f.name == "main"]
    engine = verify_function_war(fn, alias_mode=config.alias_mode)
    assert not engine.has_errors


def test_stripped_checkpoints_are_detected():
    """Removing the inserted checkpoints from an instrumented module must
    re-expose the WARs the checkpoint inserter was protecting."""
    module, config = _middle_end_module(RMW_SOURCE, "wario")
    removed = strip_checkpoints(module)
    assert removed > 0
    result = certify(lower(module, config), name="stripped")
    assert not result.certified
    assert result.exit_code == EXIT_ERRORS
    assert any(d.code.startswith(("war-", "mir-war-"))
               for d in result.engine.diagnostics)


def test_certify_then_encode_one_build():
    """The certified build is the one that runs: certify it, then encode
    that same build into the program ``iclang`` returns."""
    wario = build(compile_sources([RMW_SOURCE], "program"), "wario")
    assert certify(wario, level="mir").certified
    program = wario.encode()
    assert disassemble(program) == disassemble(
        iclang(RMW_SOURCE, "wario", cache=False))
    machine = Machine(program)
    machine.run()
    assert machine.war.clean
    plain = build(compile_sources([RMW_SOURCE], "program"), "plain")
    assert certify(plain, level="mir").exit_code == EXIT_ERRORS


def test_diagnostics_carry_source_locations():
    module, _config = _middle_end_module(RMW_SOURCE, "plain")
    engine = verify_module_war(module, calls_are_checkpoints=False)
    located = [d for d in engine.diagnostics if d.loc and d.loc.known]
    assert located, "expected at least one diagnostic with a source line"
    assert all(d.loc.file == "prog.0" for d in located)


# ---------------------------------------------------------------------------
# whole-suite certification (the acceptance matrix)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("env", CERTIFIED_ENVIRONMENTS)
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_benchmarks_certified(bench, env):
    result = lint_sources(BENCHMARKS[bench].source, env, name=bench)
    assert result.certified, f"{bench} [{env}]: {result.engine.render_text()}"


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_benchmarks_plain_flagged(bench):
    result = lint_sources(BENCHMARKS[bench].source, "plain", name=bench)
    assert not result.certified


# ---------------------------------------------------------------------------
# static/dynamic cross-check (hypothesis)
# ---------------------------------------------------------------------------


@st.composite
def war_heavy_program(draw):
    """Random programs biased toward WAR shapes: read-modify-writes of
    globals and in-place array updates inside a loop."""
    names = ["g0", "g1", "g2"]
    ops = ["+", "-", "^", "|"]
    body = []
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(names))
        source = draw(st.sampled_from(names))
        op = draw(st.sampled_from(ops))
        const = draw(st.integers(1, 99))
        body.append(f"{target} = {source} {op} {const};")
    n = draw(st.integers(2, 12))
    mul = draw(st.integers(1, 5))
    in_place = draw(st.booleans())
    array_stmt = (
        f"a[i] = a[i] * {mul} + g0;" if in_place else f"a[i] = i * {mul};"
    )
    decls = "".join(f"unsigned int {name};" for name in names)
    return f"""
    {decls}
    unsigned int a[16];
    int main(void) {{
        int i;
        for (i = 0; i < {n}; i++) {{
            {array_stmt}
            {" ".join(body)}
        }}
        return 0;
    }}
    """


@settings(max_examples=10, deadline=None)
@given(war_heavy_program())
def test_static_verdict_agrees_with_dynamic_checker(source):
    """Soundness, checked per environment: static certification implies a
    clean dynamic run, and any dynamic violation implies a static error.
    Instrumented environments must additionally always certify."""
    for env in ALL_ENVIRONMENTS:
        result = lint_sources(source, env, name="random")
        machine = Machine(iclang(source, env))
        machine.run()
        if result.certified:
            assert machine.war.clean, (
                f"{env}: statically certified but dynamically violated:\n"
                + "\n".join(str(v) for v in machine.war.violations[:5])
            )
        if not machine.war.clean:
            assert not result.certified, (
                f"{env}: dynamic violations the verifier missed"
            )
        if env != "plain":
            assert result.certified, (
                f"{env}: {result.engine.render_text()}"
            )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_lint_cli_benchmark_clean(capsys):
    assert main(["lint", "--benchmark", "crc", "--env", "wario"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "crc [wario]: certified idempotent" in out


def test_lint_cli_benchmark_clean_mir_level(capsys):
    code = main(["lint", "--benchmark", "crc", "--env", "wario",
                 "--level", "mir"])
    assert code == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "crc [wario]: certified WAR-free" in out


def test_lint_cli_all_benchmarks_expander(capsys):
    code = main(["lint", "--benchmark", "all", "--env", "wario-expander"])
    assert code == EXIT_CLEAN
    out = capsys.readouterr().out
    assert out.count("certified idempotent") == len(BENCHMARKS)


def test_lint_cli_plain_flagged(capsys):
    assert main(["lint", "--benchmark", "crc", "--env", "plain"]) == EXIT_ERRORS
    out = capsys.readouterr().out
    assert "error" in out and "war-" in out


def test_lint_cli_json_output(capsys):
    code = main(["lint", "--benchmark", "crc", "--env", "plain",
                 "--format", "json"])
    assert code == EXIT_ERRORS
    decoded = json.loads(capsys.readouterr().out)
    findings = decoded["diagnostics"]
    assert findings and all("severity" in d and "code" in d for d in findings)
    assert decoded["counts"]["error"] == len(
        [d for d in findings if d["severity"] == "error"]
    )


def test_lint_cli_source_file(tmp_path, capsys):
    path = tmp_path / "rmw.c"
    path.write_text(RMW_SOURCE)
    assert main(["lint", str(path), "--env", "wario"]) == EXIT_CLEAN
    assert main(["lint", str(path), "--env", "plain"]) == EXIT_ERRORS
    capsys.readouterr()


def test_lint_cli_usage_errors(capsys):
    assert main(["lint"]) == EXIT_COMPILE_FAILED
    assert "pass either" in capsys.readouterr().err


def test_lint_cli_compile_failure(tmp_path, capsys):
    path = tmp_path / "broken.c"
    path.write_text("int main(void) { this is not C; }")
    assert main(["lint", str(path)]) == EXIT_COMPILE_FAILED
    assert "compilation failed" in capsys.readouterr().err
