"""The static idempotence certifier and its differential validation.

Three layers:

* **certificates** — ``lint`` at ``level="full"`` emits machine-checkable
  per-function certificates whose obligations discharge on the clean
  suite and fail on seeded mutants;
* **seeded bugs** — each ``EnvironmentConfig`` mutation knob
  (``drop_checkpoint``, ``skip_pop_conversion``, ``drop_epilog_mask``)
  produces at least one ``idempotence-*`` error, and ``drop_epilog_mask``
  on the ``xcall`` diagnostic is caught *only* by the certifier (the
  byte-level machine verifier cannot see the cross-call frame read);
* **differential** — the harness cross-checks static verdicts against
  the interrupt-loaded fault-injection campaign over the same cells and
  hard-fails on any unsound or missed-seeded-bug disagreement.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.idempotence import certificates_verdict
from repro.benchsuite import BENCHMARKS, DIAGNOSTICS, get_benchmark
from repro.cache import inject_key, lint_key
from repro.core import iclang
from repro.core.lint import LEVEL_ORDER, certify, lint_sources
from repro.core.pipeline import ENVIRONMENTS, build, environment
from repro.diagnostics import ERROR, LEVEL_CERTIFY, render_sarif
from repro.emulator import Machine, NoForwardProgress, SchedulePower
from repro.faultinject.campaign import (
    DATA_DIGEST_LIMIT,
    _execute_oracle,
)
from repro.faultinject.differential import (
    AGREE_CLEAN,
    AGREE_DIRTY,
    INCOMPLETE,
    UNSOUND,
    CellVerdict,
    _agreement,
    quick_differential_config,
    run_differential,
    seeded_knobs,
)
from repro.frontend import compile_sources
from repro.ir import verify_module

XCALL = get_benchmark("xcall")


def _error_codes(result, level=None):
    return sorted({
        d.code for d in result.engine.diagnostics
        if d.severity == ERROR and (level is None or d.level == level)
    })


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("env", ["wario", "ratchet", "wario-summaries",
                                 "ratchet-summaries", "r-pdg"])
def test_xcall_certifies_under_every_checkpointing_env(env):
    result = lint_sources(XCALL.source, env, name="xcall", cache=False)
    assert result.certified
    assert result.level == "full"
    assert certificates_verdict(result.certificates) == "certified"
    for cert in result.certificates:
        assert cert["verdict"] == "certified"
        assert cert["obligations"], cert["function"]


@pytest.mark.parametrize("bench", ["crc", "sha"])
def test_benchmark_certificates_are_json_serialisable(bench):
    result = lint_sources(
        BENCHMARKS[bench].source, "wario-summaries", name=bench
    )
    assert result.certified
    blob = json.dumps(result.certificates, sort_keys=True)
    assert json.loads(blob) == result.certificates
    names = {cert["function"] for cert in result.certificates}
    assert "main" in names


def test_lint_level_ir_skips_certificates():
    result = lint_sources(XCALL.source, "wario", name="xcall",
                          level="ir", cache=False)
    assert result.level == "ir"
    assert result.certificates == []


def test_lint_level_mir_emits_no_certify_diagnostics():
    result = lint_sources(XCALL.source, "wario", name="xcall",
                          level="mir", cache=False)
    assert result.certificates == []
    assert not [d for d in result.engine.diagnostics
                if d.level == LEVEL_CERTIFY]


def test_lint_rejects_unknown_level():
    with pytest.raises(ValueError, match="unknown lint level"):
        lint_sources(XCALL.source, "wario", name="xcall",
                     level="ultra", cache=False)


def test_lint_keys_distinguish_levels():
    config = environment("wario")
    keys = {lint_key([XCALL.source], config, name="xcall", level=level)
            for level in LEVEL_ORDER}
    assert len(keys) == len(LEVEL_ORDER)


# ---------------------------------------------------------------------------
# seeded bugs: every knob yields an idempotence-* error
# ---------------------------------------------------------------------------


def test_drop_checkpoint_flagged_statically():
    env = replace(ENVIRONMENTS["wario"], name="wario+drop-checkpoint",
                  drop_checkpoint=1)
    result = lint_sources(XCALL.source, env, name="xcall", cache=False)
    assert not result.certified
    assert "idempotence-war" in _error_codes(result, LEVEL_CERTIFY)
    assert certificates_verdict(result.certificates) == "violated"


def test_skip_pop_conversion_flagged_statically():
    env = replace(ENVIRONMENTS["ratchet"], name="ratchet+raw-pops",
                  skip_pop_conversion=True)
    result = lint_sources(XCALL.source, env, name="xcall", cache=False)
    assert not result.certified
    assert "idempotence-exposed-release" in _error_codes(
        result, LEVEL_CERTIFY
    )


def test_drop_epilog_mask_caught_only_by_the_certifier():
    """The certifier's cross-call mod/ref facts close the machine
    verifier's interprocedural blind spot: the transparent callee reads
    the caller's frame through a pointer argument, so the exposed
    ``addsp`` is invisible to byte-interval analysis of the caller
    alone."""
    env = replace(ENVIRONMENTS["wario-summaries"],
                  name="wario-summaries+no-mask", drop_epilog_mask=True)
    result = lint_sources(XCALL.source, env, name="xcall", cache=False)
    assert not result.certified
    certify_codes = _error_codes(result, LEVEL_CERTIFY)
    assert "idempotence-exposed-release" in certify_codes
    # every error is certify-level: mir_war alone misses this bug
    assert _error_codes(result) == certify_codes
    # the same program under the unbroken epilogue is certified
    clean = lint_sources(XCALL.source, "wario-summaries", name="xcall",
                         cache=False)
    assert clean.certified


def _xcall_build():
    module = compile_sources([XCALL.source], "xcall")
    verify_module(module)
    return build(module, ENVIRONMENTS["wario-summaries"])


def test_masked_release_discharged_by_the_exit_checkpoint():
    """The WARio epilogue releases the frame ``get`` read under masked
    interrupts; its exit checkpoint commits the release."""
    result = certify(_xcall_build(), level="full")
    assert result.certified
    assert any(o["kind"] == "masked-release"
               and o["status"] == "discharged"
               for cert in result.certificates
               for o in cert["obligations"])


def test_unmasking_before_the_commit_is_an_unmasked_window():
    """Moving each WARio epilogue's ``cpsie`` ahead of its checkpoint
    re-enables interrupts while the frame release is uncommitted.  The
    pending read is the transparent callee's, which only the certifier
    tracks, so no ``mir-war-*`` error accompanies it."""
    cell = _xcall_build()
    moved = 0
    for mfn in cell.mmodule.functions.values():
        for block in mfn.blocks:
            instrs = block.instructions
            for index, instr in enumerate(instrs):
                if instr.opcode == "cpsie":
                    commit = max(i for i in range(index)
                                 if instrs[i].opcode == "checkpoint")
                    instrs.insert(commit, instrs.pop(index))
                    moved += 1
    assert moved
    result = certify(cell, level="full")
    codes = _error_codes(result)
    assert "idempotence-unmasked-window" in codes
    assert not [code for code in codes if code.startswith("mir-war-")]
    assert any(o["kind"] == "masked-window" and o["status"] == "violated"
               for cert in result.certificates
               for o in cert["obligations"])


# ---------------------------------------------------------------------------
# dynamic side: the campaign observes each seeded bug under interrupts
# ---------------------------------------------------------------------------


def test_interrupt_oracle_catches_exposed_release():
    env = replace(ENVIRONMENTS["wario-summaries"],
                  name="wario-summaries+no-mask", drop_epilog_mask=True)
    dirty = _execute_oracle("xcall", env, cache=False, interrupt_interval=3)
    assert not dirty.war_clean
    clean = _execute_oracle("xcall", "wario-summaries", cache=False,
                            interrupt_interval=3)
    assert clean.war_clean and clean.outputs_ok


def test_interrupt_oracle_catches_raw_pops():
    env = replace(ENVIRONMENTS["ratchet"], name="ratchet+raw-pops",
                  skip_pop_conversion=True)
    dirty = _execute_oracle("xcall", env, cache=False, interrupt_interval=3)
    assert not dirty.war_clean
    clean = _execute_oracle("xcall", "ratchet", cache=False,
                            interrupt_interval=3)
    assert clean.war_clean and clean.outputs_ok


def test_inject_keys_distinguish_interrupt_load():
    base = inject_key("prog", (), True, 1000, "costs")
    loaded = inject_key("prog", (), True, 1000, "costs",
                        interrupt_interval=3)
    assert base != loaded
    assert base == inject_key("prog", (), True, 1000, "costs",
                              interrupt_interval=None)


# ---------------------------------------------------------------------------
# the differential harness
# ---------------------------------------------------------------------------


def test_agreement_matrix():
    assert _agreement(True, True) == AGREE_CLEAN
    assert _agreement(False, False) == AGREE_DIRTY
    assert _agreement(True, False) == UNSOUND
    assert _agreement(False, True) == INCOMPLETE


def _cell(agreement, knobs=()):
    return CellVerdict(
        bench="b", env="e", knobs=tuple(knobs), static_certified=False,
        static_codes=(), static_functions=(), dynamic_clean=False,
        dynamic_reasons=(), agreement=agreement,
    )


def test_hard_failure_rules():
    assert _cell(UNSOUND).hard_failure
    assert _cell(UNSOUND, ["drop_epilog_mask"]).hard_failure
    assert _cell(INCOMPLETE, ["drop_epilog_mask"]).hard_failure
    assert not _cell(INCOMPLETE).hard_failure
    assert not _cell(AGREE_CLEAN).hard_failure
    assert not _cell(AGREE_DIRTY, ["skip_pop_conversion"]).hard_failure


def test_seeded_knobs_reads_the_environment():
    assert seeded_knobs("wario") == ()
    env = replace(ENVIRONMENTS["wario"], drop_checkpoint=1,
                  skip_pop_conversion=True)
    assert seeded_knobs(env) == ("drop_checkpoint=1", "skip_pop_conversion")


def test_quick_differential_run_agrees_everywhere():
    """The end-to-end cross-validation: clean cells agree clean, every
    seeded mutant is flagged statically AND observed dynamically in the
    same cell."""
    report = run_differential(quick_differential_config(), cache=False)
    assert report.certified, report.render_text()
    by_env = {cell.env: cell for cell in report.cells}
    for env in ("wario", "ratchet", "wario-summaries"):
        assert by_env[env].agreement == AGREE_CLEAN
    for env in ("wario+drop-checkpoint", "ratchet+skip-pop-conversion",
                "wario-summaries+drop-epilog-mask"):
        cell = by_env[env]
        assert cell.agreement == AGREE_DIRTY
        assert cell.knobs
        assert any(code.startswith("idempotence-")
                   for code in cell.static_codes), cell.static_codes
        assert not cell.dynamic_clean
    # errors only on disagreement; full agreement exports nothing
    assert report.diagnostics() == []
    # the JSON report round-trips
    assert json.loads(report.to_json())["certified"] is True


# ---------------------------------------------------------------------------
# SARIF rendering
# ---------------------------------------------------------------------------


def test_sarif_output_is_valid_and_deterministic():
    env = replace(ENVIRONMENTS["wario"], name="wario+drop-checkpoint",
                  drop_checkpoint=1)
    result = lint_sources(XCALL.source, env, name="xcall", cache=False)
    first = render_sarif(result.engine.diagnostics)
    second = render_sarif(list(reversed(result.engine.diagnostics)))
    assert first == second
    payload = json.loads(first)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert any(r["ruleId"] == "idempotence-war" for r in run["results"])


# ---------------------------------------------------------------------------
# the xcall diagnostic program itself
# ---------------------------------------------------------------------------


def test_xcall_is_a_diagnostic_not_a_suite_member():
    assert "xcall" in DIAGNOSTICS
    assert "xcall" not in BENCHMARKS
    assert get_benchmark("xcall") is DIAGNOSTICS["xcall"]


def test_unknown_benchmark_message_lists_diagnostics():
    with pytest.raises(KeyError, match="xcall"):
        get_benchmark("no-such-benchmark")


# ---------------------------------------------------------------------------
# hypothesis cross-check: static certification implies dynamic
# re-execution consistency under power failures and interrupt load
# ---------------------------------------------------------------------------


@st.composite
def checkpointed_program(draw):
    """Random programs with global read-modify-writes (WAR shapes the
    checkpoint inserter must protect) plus a helper call."""
    ops = ["+", "^", "|"]
    stmts = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(ops))
        const = draw(st.integers(1, 99))
        stmts.append(f"g0 = g0 {op} {const};")
        stmts.append(f"g1 = g1 + g0;")
    n = draw(st.integers(2, 6))
    return f"""
    unsigned int g0;
    unsigned int g1;
    unsigned int step(unsigned int x) {{
        return x * 3 + 1;
    }}
    int main(void) {{
        int i;
        for (i = 0; i < {n}; i++) {{
            {" ".join(stmts)}
            g1 = step(g1);
        }}
        return 0;
    }}
    """


@settings(max_examples=5, deadline=None)
@given(checkpointed_program(), st.sampled_from(["wario", "ratchet-summaries"]))
def test_certified_programs_survive_failures_and_interrupts(source, env):
    """Soundness of the full certification level, differentially: a
    statically certified program replayed through power failures under
    a periodic interrupt load must reproduce the continuous-power
    oracle's data section, outputs, and dynamic WAR verdict."""
    result = lint_sources(source, env, name="random", cache=False)
    assert result.certified, result.engine.render_text()
    assert certificates_verdict(result.certificates) == "certified"

    program = iclang(source, env, name="random", cache=False)
    oracle = Machine(program, war_check=True, interrupt_interval=11)
    oracle.run(max_instructions=1_000_000)
    assert oracle.war.clean
    digest = hashlib.sha256(oracle.memory[:DATA_DIGEST_LIMIT]).hexdigest()

    total = max(oracle.stats.cycles, 8)
    for schedule in [(total // 2,), (total // 3, total // 2)]:
        machine = Machine(program, war_check=True, interrupt_interval=11)
        try:
            machine.run(power=SchedulePower(schedule),
                        max_instructions=1_000_000)
        except NoForwardProgress:
            continue
        assert machine.war.clean, (
            f"{env}: certified but replay {schedule} saw dynamic WARs"
        )
        replay = hashlib.sha256(
            machine.memory[:DATA_DIGEST_LIMIT]
        ).hexdigest()
        assert replay == digest, (
            f"{env}: certified but replay {schedule} diverges from the "
            f"continuous-power oracle"
        )
