"""Certificate-guided checkpoint elision (repro.core.checkpoint_elim +
repro.analysis.redundancy): elision counts and report shape, the
monotone fixpoint, dynamic executed-checkpoint reduction, certificate
auditing, the force_unsafe_elision seeding knob, and the shared
points-to solve the pipeline threads through inserter and eliser."""

from dataclasses import replace

import pytest

from repro.analysis.idempotence import CERTIFIED, VIOLATED
from repro.analysis import AliasAnalysis, loop_info
from repro.analysis.redundancy import (
    DEFAULT_ELISION_BUDGET,
    PLACEMENT_IDEMPOTENCE,
    PLACEMENT_WAR,
    SUBPROOF_KINDS,
    RedundancyAnalysis,
)
from repro.benchsuite import BENCHMARKS, get_benchmark
from repro.benchsuite.common import run_benchmark
from repro.core import environment
from repro.core.checkpoint_elim import (
    PLACEMENT_FORCED,
    PLACEMENT_UNSAFE,
    ElisionReport,
    audit_elisions,
    elide_redundant_checkpoints,
)
from repro.core.lint import lint_sources
from repro.core.pipeline import run_middle_end
from repro.frontend import compile_sources


def _middle_end(source, env, name="prog"):
    module = compile_sources([source], name)
    config = environment(env) if isinstance(env, str) else env
    run_middle_end(module, config)
    return module


@pytest.fixture(scope="module")
def sha_opt_module():
    """sha through the wario-opt middle end (shared: compiling it is the
    expensive part of this file)."""
    return _middle_end(BENCHMARKS["sha"].source, "wario-opt", name="sha")


class TestEnvironmentWiring:
    def test_opt_environments_enable_elision(self):
        for name in ("wario-opt", "ratchet-opt"):
            config = environment(name)
            assert config.checkpoint_elim, name
            assert config.call_summaries, name
            assert config.instrument, name

    def test_baselines_do_not_elide(self):
        for name in ("wario", "ratchet", "wario-summaries"):
            assert not environment(name).checkpoint_elim, name


class TestElisionReport:
    def test_sha_elides_at_least_one_checkpoint(self, sha_opt_module):
        report = sha_opt_module.elision_report
        assert report.elided >= 1
        assert report.examined >= report.elided
        assert len(report.certificates) == report.elided

    def test_all_certificates_fully_discharged(self, sha_opt_module):
        report = sha_opt_module.elision_report
        assert report.verdict == CERTIFIED
        for cert in report.certificates:
            assert not cert["forced"]
            assert cert["verdict"] == CERTIFIED
            kinds = [sub["kind"] for sub in cert["subproofs"]]
            assert kinds == list(SUBPROOF_KINDS)
            for sub in cert["subproofs"]:
                assert sub["status"] == "discharged"
                assert sub["discharged_by"]

    def test_budget_defaults_below_ci_machine_budget(self, sha_opt_module):
        # The elision budget must leave headroom for back-end expansion
        # under the 40k-cycle machine-level progress gate in CI.
        report = sha_opt_module.elision_report
        assert report.budget == DEFAULT_ELISION_BUDGET
        assert DEFAULT_ELISION_BUDGET < 40_000

    def test_report_to_dict_shape(self, sha_opt_module):
        payload = sha_opt_module.elision_report.to_dict()
        assert set(payload) == {
            "budget", "examined", "elided", "verdict", "certificates",
        }
        assert payload["elided"] == len(payload["certificates"])

    def test_second_pass_is_a_fixpoint(self, sha_opt_module):
        # Redundancy is monotonically lost, never gained: re-running the
        # pass on the already-elided module must elide nothing.
        config = environment("wario-opt")
        from repro.analysis.summaries import compute_summaries

        summaries = compute_summaries(
            sha_opt_module, alias_mode=config.alias_mode
        )
        second = elide_redundant_checkpoints(
            sha_opt_module, alias_mode=config.alias_mode, summaries=summaries
        )
        assert second.elided == 0
        assert second.examined >= 1  # surviving candidates re-checked


@pytest.fixture(scope="module")
def sha_trials():
    """The redundancy oracle of sha's ``sha_transform`` after insertion,
    before any elision: three of its candidates are redundant and the
    rest fail on the memory sub-proofs."""
    config = environment("wario-opt")
    module = compile_sources([BENCHMARKS["sha"].source], "sha")
    summaries = run_middle_end(module, replace(config, checkpoint_elim=False))
    function = module.get_function("sha_transform")
    aa = AliasAnalysis(function, config.alias_mode,
                       points_to=summaries.arg_points_to)
    return RedundancyAnalysis(function, aa, loop_info(function),
                              summaries=summaries)


class TestDecisionContract:
    """``decide`` evaluates the sub-proofs in certificate order and stops
    after the first violated one unless forced; the two memory
    sub-proofs come from one reporting pass."""

    def test_failed_trial_stops_after_the_memory_subproofs(self, sha_trials):
        failed = [d for d in map(sha_trials.decide, sha_trials.candidates())
                  if not d.redundant]
        assert failed
        for decision in failed:
            kinds = [o["kind"] for o in decision.subproofs]
            assert kinds == [PLACEMENT_WAR, PLACEMENT_IDEMPOTENCE]
            assert all(o["status"] == VIOLATED for o in decision.subproofs)
            # the pass ended at its first finding
            assert decision.subproofs[0]["detail"].startswith(
                "1 WAR(s) in the merged region")

    def test_redundant_and_forced_decisions_carry_all_three(self,
                                                            sha_trials):
        candidates = sha_trials.candidates()
        redundant = [d for d in map(sha_trials.decide, candidates)
                     if d.redundant]
        assert redundant
        for decision in redundant:
            assert [o["kind"] for o in decision.subproofs] == list(
                SUBPROOF_KINDS)
        for ckpt in candidates:
            forced = sha_trials.decide(ckpt, forced=True)
            assert forced.forced
            assert [o["kind"] for o in forced.subproofs] == list(
                SUBPROOF_KINDS)
            assert forced.redundant == all(
                o["status"] == "discharged" for o in forced.subproofs)

    @pytest.mark.parametrize("forced", [False, True])
    def test_memory_subproofs_share_one_reporting_pass(self, sha_trials,
                                                       monkeypatch, forced):
        from repro.analysis import static_war

        calls = []
        real = static_war.RegionWARAnalysis.findings

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(static_war.RegionWARAnalysis, "findings",
                            counting)
        for ckpt in sha_trials.candidates():
            del calls[:]
            sha_trials.decide(ckpt, forced=forced)
            assert len(calls) == 1


class TestCertifySolveContract:
    """One full-level ``certify`` solves each function's region dataflow
    once per level, and the whole-program points-to at most once: the
    WAR verifiers and the idempotence certifier render the same
    findings."""

    @pytest.mark.parametrize("bench,env", [
        ("sha", "wario"), ("xcall", "wario-summaries"),
    ])
    def test_one_region_solve_per_function_and_level(self, bench, env,
                                                     monkeypatch):
        import sys
        from collections import Counter

        from repro.analysis import dataflow, pointsto
        from repro.analysis.static_war import RegionWARAnalysis
        from repro.backend.mir_war import MachineRegionAnalysis
        from repro.core.lint import certify
        from repro.core.pipeline import build

        module = compile_sources([get_benchmark(bench).source], bench)
        cell = build(module, environment(env))
        ir_solves, machine_solves, points_to = Counter(), Counter(), []
        real_solve = dataflow.solve
        real_points_to = pointsto.compute_points_to

        def counting_solve(problem):
            if isinstance(problem, RegionWARAnalysis):
                ir_solves[problem.function.name] += 1
            elif isinstance(problem, MachineRegionAnalysis):
                machine_solves[problem.mfn.name] += 1
            return real_solve(problem)

        def counting_points_to(*args, **kwargs):
            points_to.append(args)
            return real_points_to(*args, **kwargs)

        # every module that imported the solver by name
        for name, loaded in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(loaded, "solve", None) is real_solve):
                monkeypatch.setattr(loaded, "solve", counting_solve)
        monkeypatch.setattr(pointsto, "compute_points_to", counting_points_to)
        result = certify(cell, level="full")
        assert result.certified
        assert ir_solves == Counter(
            f.name for f in module.defined_functions())
        assert machine_solves == Counter(list(cell.mmodule.functions))
        assert len(points_to) <= 1


class TestDynamicReduction:
    @pytest.mark.parametrize("base_env,opt_env", [
        ("wario", "wario-opt"), ("ratchet", "ratchet-opt"),
    ])
    def test_fewer_executed_checkpoints_same_outputs(self, base_env, opt_env):
        bench = BENCHMARKS["sha"]
        # run_benchmark verifies outputs and dynamic WAR-cleanliness, so
        # the optimised build must stay correct, not just cheaper.
        _, base = run_benchmark(bench, base_env)
        _, opt = run_benchmark(bench, opt_env)
        assert opt.checkpoints < base.checkpoints

    def test_lint_full_certifies_and_reports_elisions(self):
        result = lint_sources(
            BENCHMARKS["sha"].source, "wario-opt", name="sha",
            cache=False, level="full", budget=40_000,
        )
        assert result.certified, result.engine.summary()
        assert result.placement, "elisions must surface as placement certs"
        assert result.progress_bound is not None
        assert result.progress_bound <= 40_000


class TestAudit:
    def _certificate(self, subproofs, forced=False):
        verdict = (
            CERTIFIED
            if all(s["status"] == "discharged" for s in subproofs)
            else VIOLATED
        )
        return {
            "function": "main",
            "checkpoint": {"block": "entry", "index": 3,
                           "cause": "middle-end-war"},
            "verdict": verdict,
            "forced": forced,
            "weight": 1.0,
            "subproofs": subproofs,
        }

    def test_undischarged_subproof_is_an_error(self):
        report = ElisionReport(budget=DEFAULT_ELISION_BUDGET, examined=1,
                               elided=1)
        report.certificates.append(self._certificate([
            {"kind": "placement-war", "status": "violated"},
            {"kind": "placement-idempotence", "status": "discharged"},
        ], forced=True))
        engine = audit_elisions(report)
        assert engine.has_errors
        assert any(d.code == PLACEMENT_UNSAFE for d in engine.diagnostics)
        assert report.verdict == VIOLATED

    def test_forced_but_provably_safe_is_only_a_warning(self):
        report = ElisionReport(budget=DEFAULT_ELISION_BUDGET, examined=1,
                               elided=1)
        report.certificates.append(self._certificate([
            {"kind": kind, "status": "discharged"}
            for kind in SUBPROOF_KINDS
        ], forced=True))
        engine = audit_elisions(report)
        assert not engine.has_errors
        assert any(d.code == PLACEMENT_FORCED for d in engine.diagnostics)
        assert report.verdict == CERTIFIED


class TestForceUnsafeElision:
    def test_seeded_elision_detected_statically(self):
        # xcall's live middle-end checkpoint (index 1) is provably
        # non-redundant; forcing it out must fail the certificate audit
        # AND the independent end-to-end re-certification.
        config = replace(
            environment("wario-opt"),
            name="wario-opt+force-unsafe-elision",
            force_unsafe_elision=1,
        )
        result = lint_sources(
            get_benchmark("xcall").source, config, name="xcall",
            cache=False, level="full",
        )
        assert not result.certified
        codes = {d.code for d in result.engine.diagnostics}
        assert PLACEMENT_UNSAFE in codes
        forced = [c for c in result.placement if c["forced"]]
        assert forced and forced[0]["verdict"] == VIOLATED
        assert any(
            sub["status"] == "violated" for sub in forced[0]["subproofs"]
        )

    def test_out_of_range_index_rejected(self):
        config = replace(environment("wario-opt"), force_unsafe_elision=999)
        module = compile_sources([get_benchmark("xcall").source], "xcall")
        with pytest.raises(ValueError, match="middle-end checkpoints"):
            run_middle_end(module, config)

    def test_force_requires_checkpoint_elim(self):
        config = replace(environment("wario"), force_unsafe_elision=0)
        module = compile_sources([get_benchmark("xcall").source], "xcall")
        with pytest.raises(ValueError, match="requires checkpoint_elim"):
            run_middle_end(module, config)


def test_points_to_solved_once_for_inserter_and_eliser(monkeypatch):
    """The pipeline computes one whole-program Andersen solve and
    threads it through both the checkpoint inserter and the elision
    pass (neither falls back to a private recompute)."""
    import repro.analysis.pointsto as pointsto

    calls = []
    real = pointsto.compute_points_to

    def counting(module, *a, **k):
        calls.append(module)
        return real(module, *a, **k)

    monkeypatch.setattr(pointsto, "compute_points_to", counting)
    # r-pdg has no clusterer passes (each of those legitimately re-solves
    # on the IR it just mutated), so the only expected solve is the one
    # the pipeline shares between insertion and elision.
    config = replace(
        environment("r-pdg"), name="r-pdg-elim",
        call_summaries=False, checkpoint_elim=True,
    )
    module = _middle_end(get_benchmark("xcall").source, config, name="xcall")
    assert getattr(module, "elision_report", None) is not None
    assert len(calls) == 1, (
        f"expected exactly one whole-program points-to solve, saw "
        f"{len(calls)}"
    )
