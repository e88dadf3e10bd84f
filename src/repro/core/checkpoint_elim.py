"""Certificate-guided checkpoint elision (the placement optimiser).

The PDG Checkpoint Inserter solves a greedy hitting set, which may
overshoot: a chosen position can be covered by the union of the others,
or a WAR it was chosen for may also be broken by a barrier the inserter
did not model as precisely as the verifiers do.  This pass runs *after*
insertion and elides every checkpoint the merged-region redundancy
analysis (:mod:`repro.analysis.redundancy`) can prove unnecessary:

1. candidates are ordered hottest-first — by loop depth of the owning
   block (``10 ** depth``), optionally scaled by a dynamic call-count
   profile from :func:`repro.core.profiling.collect_call_profile` — so
   the checkpoints that execute most are the first to go;
2. each candidate's two adjacent regions are abstractly merged and the
   three certification legs (WAR-freedom, idempotence, progress budget)
   are re-discharged on the merge, in that order, stopping at the first
   that fails; only a fully-discharged candidate is elided;
3. a fixpoint loop re-runs until no candidate survives.  Every decision
   re-solves against the current (already-elided) IR, and a failed
   candidate is retired permanently: removing a barrier only grows the
   exposed-fact sets, so redundancy is monotonically *lost*, never
   gained — one ordered pass reaches the fixpoint and the second pass
   merely confirms it.

Every elision emits a machine-checkable JSON certificate naming the
three sub-proofs (the ``placement-*`` family).  ``repro lint`` at
``--level full`` audits the certificates (:func:`audit_elisions`) and
re-certifies the optimised module end-to-end with the independent WAR /
idempotence / progress verifiers, so an unsound elision cannot escape:
it would be flagged both by the certificate audit and by the
re-certification.

The TEST-ONLY ``EnvironmentConfig.force_unsafe_elision`` knob elides the
N-th middle-end checkpoint *without* requiring its proofs to discharge
(they are still evaluated and recorded), seeding a true positive the
audit must flag statically (``placement-unsafe-elision``) and the
fault-injection differential campaign must reproduce dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis import AliasAnalysis, loop_info
from ..analysis.idempotence import CERTIFIED, VIOLATED
from ..analysis.redundancy import (
    DEFAULT_ELISION_BUDGET,
    ElisionDecision,
    RedundancyAnalysis,
)
from ..diagnostics import LEVEL_CERTIFY, DiagnosticEngine

#: Diagnostic codes of the placement family.
PLACEMENT_UNSAFE = "placement-unsafe-elision"
PLACEMENT_FORCED = "placement-forced-elision"


@dataclass
class ElisionReport:
    """The outcome of one elision pass over a module."""

    #: estimated-cycle budget the progress sub-proofs were held to
    budget: int
    #: candidates whose sub-proofs were evaluated (including retained)
    examined: int = 0
    #: checkpoints actually removed
    elided: int = 0
    #: per-elision certificates (one per *removed* checkpoint)
    certificates: List[Dict[str, object]] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return (
            CERTIFIED
            if all(c["verdict"] == CERTIFIED for c in self.certificates)
            else VIOLATED
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "budget": self.budget,
            "examined": self.examined,
            "elided": self.elided,
            "verdict": self.verdict,
            "certificates": self.certificates,
        }


def _certificate(decision: ElisionDecision) -> Dict[str, object]:
    """One machine-checkable per-elision certificate."""
    return {
        "function": decision.function,
        "checkpoint": {
            "block": decision.block,
            "index": decision.index,
            "cause": decision.cause,
        },
        "verdict": CERTIFIED if decision.redundant else VIOLATED,
        "forced": decision.forced,
        "weight": decision.weight,
        "subproofs": decision.subproofs,
    }


def elide_redundant_checkpoints(
    module,
    alias_mode: str = "precise",
    summaries=None,
    points_to=None,
    budget: Optional[int] = None,
    force_unsafe: Optional[int] = None,
    profile: Optional[Dict[str, int]] = None,
) -> ElisionReport:
    """Elide every provably redundant middle-end checkpoint of
    ``module``; returns the :class:`ElisionReport` with one certificate
    per elision.

    ``points_to`` is the whole-program points-to map (computed by the
    caller once and shared with the inserter); with ``summaries`` the
    relaxed call model applies exactly as it did during insertion.
    ``profile`` (callee name → dynamic call count, e.g. from
    :func:`repro.core.profiling.collect_call_profile`) scales the
    loop-depth ordering weight so measured-hot functions elide first.
    ``force_unsafe`` is the TEST-ONLY seeding knob described above.
    """
    if budget is None:
        budget = DEFAULT_ELISION_BUDGET
    if points_to is None:
        from ..analysis.pointsto import module_points_to

        points_to = module_points_to(module, summaries)

    from ..analysis.progress import argument_constants
    from ..analysis.summaries import _call_graph_sccs

    arg_constants = argument_constants(module)
    report = ElisionReport(budget=budget)
    analyses: Dict[str, RedundancyAnalysis] = {}
    weights: Dict[str, Dict[int, float]] = {}
    for function in module.defined_functions():
        aa = AliasAnalysis(function, alias_mode, points_to=points_to)
        li = loop_info(function)
        analyses[function.name] = RedundancyAnalysis(
            function, aa, li, summaries=summaries, budget=budget,
            arg_constants=arg_constants,
        )
        hotness = float((profile or {}).get(function.name, 1) or 1)
        weights[function.name] = {
            id(ckpt): (10.0 ** li.depth_of(ckpt.parent)) * hotness
            for ckpt in analyses[function.name].candidates()
        }

    if force_unsafe is not None:
        _force_elide(module, analyses, weights, force_unsafe, report)

    # Callees before callers (bottom-up over the call graph): a caller's
    # progress sub-proof splices transparent-callee summaries, so every
    # callee must reach its own elision fixpoint first — its summary is
    # then final when the caller memoises it.
    bottom_up = [fn for scc in _call_graph_sccs(module) for fn in scc]
    for function in bottom_up:
        analysis = analyses[function.name]
        fweights = weights[function.name]
        retired: set = set()
        progressed = True
        while progressed:  # fixpoint: until no candidate survives
            progressed = False
            live = [c for c in analysis.candidates()
                    if id(c) not in retired]
            # hottest first; ties broken by layout position for
            # determinism (candidates() yields layout order)
            order = sorted(
                range(len(live)),
                key=lambda i: (-fweights.get(id(live[i]), 1.0), i),
            )
            for i in order:
                ckpt = live[i]
                if ckpt.parent is None:
                    continue  # removed earlier in this round
                decision = analysis.decide(
                    ckpt, weight=fweights.get(id(ckpt), 1.0)
                )
                report.examined += 1
                if decision.redundant:
                    ckpt.parent.remove(ckpt)
                    report.elided += 1
                    report.certificates.append(_certificate(decision))
                    progressed = True
                else:
                    # monotone: later elisions only add exposed facts,
                    # so a failed candidate can never become redundant
                    retired.add(id(ckpt))
    return report


def _force_elide(module, analyses, weights, index: int,
                 report: ElisionReport) -> None:
    """TEST-ONLY: elide the ``index``-th middle-end checkpoint (program
    order, counted like ``drop_checkpoint``) regardless of its proofs,
    recording the certificate with ``forced=True``."""
    seen = 0
    for function in module.defined_functions():
        analysis = analyses[function.name]
        for ckpt in analysis.candidates():
            if seen == index:
                decision = analysis.decide(
                    ckpt,
                    weight=weights[function.name].get(id(ckpt), 1.0),
                    forced=True,
                )
                report.examined += 1
                ckpt.parent.remove(ckpt)
                report.elided += 1
                report.certificates.append(_certificate(decision))
                return
            seen += 1
    raise ValueError(
        f"force_unsafe_elision={index}: the module only has {seen} "
        f"middle-end checkpoints"
    )


def audit_elisions(report: ElisionReport,
                   engine: Optional[DiagnosticEngine] = None
                   ) -> DiagnosticEngine:
    """Re-check the elision certificates: every sub-proof of every
    elision must be discharged.  A certificate with an undischarged
    sub-proof (the ``force_unsafe_elision`` seeding, or an analysis bug)
    raises ``placement-unsafe-elision``; a forced-but-provably-safe
    elision is only a warning (the knob was used but the merge holds).
    """
    if engine is None:
        engine = DiagnosticEngine()
    for cert in report.certificates:
        where = (
            f"{cert['checkpoint']['block']}@{cert['checkpoint']['index']}"
        )
        bad = [o for o in cert["subproofs"] if o["status"] != "discharged"]
        if bad:
            kinds = ", ".join(o["kind"] for o in bad)
            engine.error(
                PLACEMENT_UNSAFE,
                f"checkpoint at {where} was elided with undischarged "
                f"sub-proof(s) ({kinds}): the merged region is not "
                f"certified and re-execution after a power failure may "
                f"diverge",
                function=cert["function"],
                region=where,
                level=LEVEL_CERTIFY,
            )
        elif cert.get("forced"):
            engine.warning(
                PLACEMENT_FORCED,
                f"checkpoint at {where} was force-elided but all three "
                f"sub-proofs discharge (the seeded knob picked a "
                f"provably redundant checkpoint)",
                function=cert["function"],
                region=where,
                level=LEVEL_CERTIFY,
            )
    return engine


__all__ = [
    "PLACEMENT_UNSAFE", "PLACEMENT_FORCED",
    "ElisionReport", "audit_elisions", "elide_redundant_checkpoints",
]
