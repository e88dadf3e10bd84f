"""The static idempotence certifier: per-region re-execution proofs.

WAR-freedom is a *proxy* for the property intermittent execution
actually needs — Surbatovich et al.'s observation is that a
checkpoint-delimited region must be **memory-idempotent**: re-executing
it from its checkpoint after a power failure must observe exactly the
values the first execution observed, so that the second execution
recomputes the same results.  The first execution can only break this by
*clobbering* a location it (or an interrupt, or a callee) later re-reads
— which is why WAR-freedom implies idempotence, but only once every way
a region's inputs can be overwritten has been enumerated.

This module certifies the full property per region by abstract
re-execution over both IR levels, on the shared dataflow engine
(:mod:`repro.analysis.dataflow`).  Conceptually each region's abstract
store is executed twice; the certifier discharges, per region, one
*proof obligation* for every way execution two could observe a value
execution one wrote:

``region-reexecution`` (IR level)
    No abstract location is read before being overwritten inside the
    region — the exposed-load dataflow of
    :mod:`repro.analysis.static_war`, whose facts are exactly the
    locations execution two would re-read and whose flagged stores are
    exactly the clobbers execution one performs.

``exposed-release`` / ``masked-release`` (machine level)
    An upward sp adjustment publishes stack bytes to interrupt stacking
    and callees; if re-execution still reads those bytes the release
    must either happen after the region's final checkpoint, or inside an
    interrupt-masked window that commits (checkpoints) before
    re-enabling interrupts — WARio's Epilog Optimizer contract.

``masked-window`` (machine level)
    A masked window that released exposed bytes must reach its
    checkpoint before ``cpsie`` (and no store may touch the released
    bytes in between).

``cross-call`` (machine level)
    A transparent callee's mod/ref summary (PR 2) is re-played at the
    call site: its reads of the caller's frame become exposed facts the
    release rule must respect — the one hazard neither WAR verifier can
    see, because the callee reads the caller's slot through a pointer
    argument and the caller's ``bl`` is opaque to byte-level analysis.

``entry-barrier`` (machine level)
    Every instrumented, non-transparent function begins with its entry
    checkpoint — the structural fact that lets callers treat ``bl`` as
    a region boundary.

Each function gets a machine-checkable JSON *certificate* listing every
obligation with its discharging fact or violation; undischarged
obligations are also emitted as ``idempotence-*`` diagnostics at the
``certify`` level.  The fault-injection campaign
(:mod:`repro.faultinject.differential`) is the certifier's soundness
oracle: a statically certified cell must never diverge dynamically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..diagnostics import (
    ERROR,
    LEVEL_CERTIFY,
    Diagnostic,
    DiagnosticEngine,
)
from ..ir.values import GlobalVariable
from .alias import PRECISE, AliasAnalysis
from .dataflow import FW, interval_covers, solve
from .loops import loop_info
from .memdep import BACKWARD, FORWARD
from .static_war import RegionWARAnalysis, describe_endpoint, region_labels

#: Verdicts a certificate can carry.
CERTIFIED = "certified"
VIOLATED = "violated"


def _where(instr) -> str:
    loc = getattr(instr, "loc", None)
    if loc is not None and loc.known:
        return str(loc)
    block = getattr(instr, "parent", None)
    return getattr(block, "name", "") or "<unknown>"


def obligation(kind: str, region: str, at: str, detail: str,
               discharged_by: Optional[str] = None,
               violation: Optional[str] = None) -> Dict[str, object]:
    """One proof obligation of a certificate: discharged by
    ``discharged_by``, or violated with ``violation``."""
    return {
        "kind": kind,
        "region": region,
        "at": at,
        "detail": detail,
        "status": VIOLATED if violation is not None else "discharged",
        "discharged_by": discharged_by,
        "violation": violation,
    }


# ---------------------------------------------------------------------------
# IR level: per-region abstract re-execution
# ---------------------------------------------------------------------------


def clobber_detail(read, write, kind: str, aa) -> str:
    """Describe one WAR finding as the clobbered read re-execution would
    observe.  ``read``, ``write`` and ``kind`` come from
    :meth:`RegionWARAnalysis.findings` with calls as checkpoints, so
    ``kind`` is ``FORWARD`` or ``BACKWARD``."""
    when = {
        FORWARD: "earlier in the region",
        BACKWARD: "in an earlier iteration of the region",
    }[kind]
    return (
        f"{describe_endpoint(write, aa)} overwrites a location first "
        f"read by {describe_endpoint(read, aa)} {when}"
    )


def _certify_ir_function(function, aa, summaries,
                         engine: DiagnosticEngine) -> List[Dict[str, object]]:
    """Abstract re-execution of every region of one IR function: its
    exposed reads are what execution two would re-read, and the WAR
    findings over them are the clobbers execution one performs.  One
    ``region-reexecution`` obligation per clobbered read, or one
    discharged obligation for a region with none."""
    analysis = RegionWARAnalysis(
        function, aa, loop_info(function), True, summaries
    )
    labels = region_labels(function, True, summaries)
    # region label -> violation details, in finding order
    violations: Dict[str, List[str]] = {}
    for read, write, kind in analysis.findings():
        region = labels.get(id(read.parent), "entry")
        detail = clobber_detail(read, write, kind, aa)
        violations.setdefault(region, []).append(detail)
        engine.emit(Diagnostic(
            severity=ERROR,
            code="idempotence-war",
            message=(
                f"region '{region}' is not idempotent: {detail}; "
                f"re-execution from the region's checkpoint would observe "
                f"the clobbered value"
            ),
            function=function.name,
            region=region,
            level=LEVEL_CERTIFY,
            loc=getattr(write, "loc", None),
            related=[(
                "the clobbered location is first read here",
                getattr(read, "loc", None),
            )],
        ))

    # Regions in block-layout order, deduplicated.
    regions: List[str] = []
    for block in function.blocks:
        label = labels.get(id(block), "entry")
        if label not in regions:
            regions.append(label)
    obligations = []
    for region in regions:
        found = violations.get(region)
        if found:
            for detail in found:
                obligations.append(obligation(
                    "region-reexecution", region, region, detail,
                    violation=detail,
                ))
        else:
            obligations.append(obligation(
                "region-reexecution", region, region,
                "no abstract location is read before being overwritten "
                "inside the region",
                discharged_by="exposed-load dataflow reached a fixpoint "
                              "with no clobbered read",
            ))
    return obligations


# ---------------------------------------------------------------------------
# machine level: release windows and cross-call effects
# ---------------------------------------------------------------------------


def _machine_certifier_class():
    """The machine-level region certifier, built lazily to keep
    ``repro.analysis`` importable without the backend package."""
    from ..backend.mir_war import _Fact, _MIRWARAnalysis

    class _MachineRegionCertifier(_MIRWARAnalysis):
        """Extends the machine WAR dataflow with transparent-callee
        mod/ref effects and proof-obligation recording.  Inherits the
        exact transfer semantics of :mod:`repro.backend.mir_war`; emits
        ``idempotence-*`` diagnostics instead of ``mir-war-*``."""

        def __init__(self, mfn, aa, engine, transparent_callees, summaries):
            super().__init__(
                mfn, aa, True, engine,
                transparent_callees=transparent_callees,
            )
            self.summaries = summaries
            self.obligations: List[Dict[str, object]] = []
            self._block = None

        # -- plumbing ---------------------------------------------------
        def _transfer(self, block, state, report):
            self._block = block
            return super()._transfer(block, state, report)

        def _region(self) -> str:
            return self._block.name if self._block is not None else ""

        def _record(self, kind: str, at, detail: str,
                    discharged_by=None, violation=None) -> None:
            self.obligations.append(obligation(
                kind, self._region(), _where(at), detail,
                discharged_by=discharged_by, violation=violation,
            ))

        def _emit(self, code: str, message: str, instr, related) -> None:
            self.engine.emit(Diagnostic(
                severity=ERROR,
                code=code,
                message=message,
                function=self.mfn.name,
                region=self._region(),
                level=LEVEL_CERTIFY,
                loc=instr.loc,
                related=related,
            ))

        # -- cross-call effects (the mir_war blind spot) ----------------
        def _callee_frame_ranges(self, name: str, want_mod: bool):
            """Caller-frame byte ranges the callee's summary may touch."""
            if self.summaries is None:
                return []
            summary = self.summaries.summary(name)
            if summary is None:
                return []
            objs = summary.mod if want_mod else summary.ref
            if objs is None:
                # TOP summaries never classify transparent; conservative.
                return list(self.addr_taken)
            ranges = []
            for obj in objs:
                if isinstance(obj, GlobalVariable):
                    continue
                slot = self.slot_for_alloca.get(id(obj))
                if slot is not None:
                    ranges.append(self._slot_range(slot, self.frame_delta))
            return ranges

        def _at_call(self, instr, state, report, barrier):
            if barrier:
                if report:
                    self._record(
                        "call-barrier", instr,
                        f"the region ends at the call to '{instr.ops[0]}'",
                        discharged_by=(
                            f"callee '{instr.ops[0]}' carries an entry "
                            f"checkpoint (entry-barrier obligation)"
                        ),
                    )
                return
            name = instr.ops[0]
            ref = self._callee_frame_ranges(name, want_mod=False)
            mod = self._callee_frame_ranges(name, want_mod=True)
            if report:
                for fact in state.facts.values():
                    if fact.is_ir:
                        continue  # ir-ir pairs are the IR level's job
                    if mod and fact.overlaps(mod):
                        detail = (
                            f"transparent callee '{name}' may overwrite "
                            f"caller stack bytes first read by {fact.what} "
                            f"in the open region"
                        )
                        self._record("cross-call", instr, detail,
                                     violation=detail)
                        self._emit(
                            "idempotence-war",
                            detail + "; re-execution would observe the "
                                     "callee's value",
                            instr,
                            [(f"first read here by '{fact.instr.opcode}'",
                              fact.instr.loc)],
                        )
            if ref and not interval_covers(state.covered, ref):
                # The callee reads our frame inside the still-open
                # region: those bytes join the exposed-read set that the
                # release rule protects.
                old = state.facts.get(id(instr))
                flags = (old.flags if old else 0) | FW
                state.facts[id(instr)] = _Fact(
                    instr, ref, flags, True,
                    f"the transparent callee '{name}'",
                )
                if report:
                    self._record(
                        "cross-call", instr,
                        f"transparent callee '{name}' reads caller stack "
                        f"bytes {ref} inside the open region",
                        discharged_by=(
                            "the reads join the exposed set; every later "
                            "release of these bytes must discharge them"
                        ),
                    )
            elif report:
                self._record(
                    "cross-call", instr,
                    f"transparent callee '{name}' touches no exposed "
                    f"caller stack bytes",
                    discharged_by="mod/ref summary is disjoint from the "
                                  "caller's live frame reads",
                )

        # -- release-window obligations ---------------------------------
        def _at_checkpoint(self, instr, state, report):
            if not report:
                return
            for released, fact in state.pending:
                self._record(
                    "masked-release", instr,
                    f"stack bytes [{released[0]}, {released[1]}) were "
                    f"released under masked interrupts while read by "
                    f"{fact.what}",
                    discharged_by=(
                        "a checkpoint commits the region before "
                        "interrupts re-enable (WARio epilogue contract)"
                    ),
                )

        def _check_store(self, instr, ranges, is_ir, state):
            for fact in state.facts.values():
                if is_ir and fact.is_ir:
                    continue  # delegated to the IR-level re-execution
                if not fact.overlaps(ranges):
                    continue
                key = (id(fact.instr), id(instr))
                if key in self.seen:
                    continue
                self.seen.add(key)
                detail = (
                    f"'{instr.opcode}' overwrites stack bytes first read "
                    f"by {fact.what} in the same region"
                )
                self._record("region-reexecution", instr, detail,
                             violation=detail)
                self._emit(
                    "idempotence-war",
                    detail + "; re-execution would observe the new value",
                    instr,
                    [(f"first read here by '{fact.instr.opcode}'",
                      fact.instr.loc)],
                )

        def _report_release(self, instr, released, fact):
            key = ("release", id(fact.instr), id(instr))
            if key in self.seen:
                return
            self.seen.add(key)
            if instr.opcode == "cpsie":
                detail = (
                    f"the masked window re-enables interrupts before a "
                    f"checkpoint commits the release of bytes "
                    f"[{released[0]}, {released[1]}) still read by "
                    f"{fact.what}"
                )
                code = "idempotence-unmasked-window"
                kind = "masked-window"
            else:
                detail = (
                    f"'{instr.opcode}' publishes stack bytes "
                    f"[{released[0]}, {released[1]}) still read by "
                    f"{fact.what} in the open region; interrupt stacking "
                    f"or a callee may clobber them before re-execution"
                )
                code = "idempotence-exposed-release"
                kind = "exposed-release"
            self._record(kind, instr, detail, violation=detail)
            self._emit(
                code, detail, instr,
                [(f"read here by '{fact.instr.opcode}'", fact.instr.loc)],
            )

        # -- driver (no structural re-reporting: mir_war owns those) ----
        def run(self):
            if not self.mfn.blocks:
                return
            in_states = solve(self)
            for block in self.mfn.blocks:
                state = in_states[block.name]
                if state is None:
                    continue
                self._transfer(block, state.copy(), report=True)

    return _MachineRegionCertifier


def _entry_barrier_obligation(mfn, transparent: Set[str],
                              engine: DiagnosticEngine) -> Dict[str, object]:
    """The structural fact callers rely on: a non-transparent function
    checkpoints before touching any state."""
    first = None
    for instr in mfn.instructions():
        first = instr
        break
    at = mfn.blocks[0].name if mfn.blocks else "<empty>"
    detail = (
        f"callers treat 'bl {mfn.name}' as a region boundary; "
        f"'{mfn.name}' must checkpoint at entry"
    )
    if first is not None and first.opcode == "checkpoint":
        return obligation(
            "entry-barrier", "entry", at, detail,
            discharged_by="the prologue begins with the entry checkpoint",
        )
    violation = (
        f"'{mfn.name}' does not begin with an entry checkpoint, but "
        f"instrumented callers assume every call is a region boundary"
    )
    engine.emit(Diagnostic(
        severity=ERROR,
        code="idempotence-entry-barrier",
        message=violation,
        function=mfn.name,
        region="entry",
        level=LEVEL_CERTIFY,
        loc=first.loc if first is not None else None,
    ))
    return obligation("entry-barrier", "entry", at, detail,
                      violation=violation)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def certify_module_idempotence(
    ir_module,
    mmodule,
    alias_mode: str = PRECISE,
    summaries=None,
    engine: Optional[DiagnosticEngine] = None,
) -> Tuple[DiagnosticEngine, List[Dict[str, object]]]:
    """Certify per-region idempotence of an instrumented module.

    Runs the IR-level abstract re-execution over every function of
    ``ir_module`` and the machine-level release/cross-call analysis over
    every function of ``mmodule`` (the same module after lowering).
    Returns ``(engine, certificates)`` — one certificate dict per
    function, in module order, each carrying its proof obligations.
    Only meaningful for instrumented configurations (the analysis model
    assumes checkpoints delimit regions).
    """
    if engine is None:
        engine = DiagnosticEngine()
    if summaries is not None:
        points_to = summaries.arg_points_to
        transparent = summaries.transparent_names()
    else:
        from .pointsto import compute_points_to

        points_to = compute_points_to(ir_module)
        transparent = set()

    machine_cls = _machine_certifier_class()
    certificates: List[Dict[str, object]] = []
    for function in ir_module.defined_functions():
        before = len(engine.diagnostics)
        aa = AliasAnalysis(function, alias_mode, points_to=points_to)
        obligations = _certify_ir_function(function, aa, summaries, engine)

        mfn = mmodule.functions.get(function.name) if mmodule else None
        if mfn is not None:
            if function.name != "main" and function.name not in transparent:
                obligations.append(
                    _entry_barrier_obligation(mfn, transparent, engine)
                )
            certifier = machine_cls(mfn, aa, engine, transparent, summaries)
            certifier.run()
            obligations.extend(certifier.obligations)

        violated = [o for o in obligations if o["status"] == VIOLATED]
        certificates.append({
            "function": function.name,
            "verdict": VIOLATED if violated else CERTIFIED,
            "obligations": obligations,
            "diagnostics": len(engine.diagnostics) - before,
        })
    return engine, certificates


def certificates_verdict(certificates: List[Dict[str, object]]) -> str:
    return (
        CERTIFIED
        if all(c["verdict"] == CERTIFIED for c in certificates)
        else VIOLATED
    )


__all__ = [
    "CERTIFIED", "VIOLATED",
    "obligation", "clobber_detail",
    "certify_module_idempotence", "certificates_verdict",
]
