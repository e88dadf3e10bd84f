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
re-execution over both IR levels.  It solves nothing itself: it renders
the findings of the two region engines, the IR's
:class:`~repro.analysis.static_war.RegionWARAnalysis` and the machine's
:class:`~repro.backend.mir_war.MachineRegionAnalysis`, which the WAR
verifiers render too.  Conceptually each region's abstract store is
executed twice; the certifier discharges, per region, one *proof
obligation* for every way execution two could observe a value execution
one wrote:

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
    The machine engine replays a transparent callee's mod/ref summary at
    the call site: its reads of the caller's frame become exposed facts
    the release rule must respect — the one hazard neither WAR verifier
    reports, because the callee reads the caller's slot through a
    pointer argument and the caller's ``bl`` is opaque to byte-level
    analysis.

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

from typing import Dict, List, Optional, Set

from ..diagnostics import (
    ERROR,
    LEVEL_CERTIFY,
    Diagnostic,
    DiagnosticEngine,
)
from .memdep import BACKWARD, FORWARD
from .static_war import FunctionWAR, describe_endpoint

#: Verdicts a certificate can carry.
CERTIFIED = "certified"
VIOLATED = "violated"


def _where(instr) -> str:
    if instr.loc is not None and instr.loc.known:
        return str(instr.loc)
    return getattr(instr.parent, "name", "") or "<unknown>"


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


def _certify_ir_function(war: FunctionWAR,
                         engine: DiagnosticEngine) -> List[Dict[str, object]]:
    """Abstract re-execution of every region of one IR function: its
    exposed reads are what execution two would re-read, and the WAR
    findings over them (calls as checkpoints) are the clobbers execution
    one performs.  One ``region-reexecution`` obligation per clobbered
    read, or one discharged obligation for a region with none."""
    function, labels = war.function, war.labels
    # region label -> violation details, in finding order
    violations: Dict[str, List[str]] = {}
    for read, write, kind in war.findings:
        region = labels.get(id(read.parent), "entry")
        detail = clobber_detail(read, write, kind, war.aa)
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


def _machine_obligation(mfn, event, engine: DiagnosticEngine):
    """The proof obligation of one machine-level region event; a
    violation is also emitted as an ``idempotence-*`` diagnostic."""
    from ..backend import mir_war

    instr, fact, kind = event.instr, event.fact, event.kind
    region, at = event.block.name, _where(instr)
    callee = instr.ops[0] if instr.opcode == "bl" else None
    if event.released is not None:
        freed = f"[{event.released[0]}, {event.released[1]})"
    if kind == mir_war.BARRIER_CALL:
        return obligation(
            "call-barrier", region, at,
            f"the region ends at the call to '{callee}'",
            discharged_by=(f"callee '{callee}' carries an entry "
                           f"checkpoint (entry-barrier obligation)"),
        )
    if kind == mir_war.MASKED_RELEASE:
        return obligation(
            "masked-release", region, at,
            f"stack bytes {freed} were released under masked interrupts "
            f"while read by {fact.what}",
            discharged_by=("a checkpoint commits the region before "
                           "interrupts re-enable (WARio epilogue contract)"),
        )
    if kind == mir_war.CALLEE_READ and fact is None:
        return obligation(
            "cross-call", region, at,
            f"transparent callee '{callee}' touches no exposed caller "
            f"stack bytes",
            discharged_by=("mod/ref summary is disjoint from the caller's "
                           "live frame reads"),
        )
    if kind == mir_war.CALLEE_READ:
        return obligation(
            "cross-call", region, at,
            f"transparent callee '{callee}' reads caller stack bytes "
            f"{fact.ranges} inside the open region",
            discharged_by=("the reads join the exposed set; every later "
                           "release of these bytes must discharge them"),
        )
    related = f"read here by '{fact.instr.opcode}'"
    if kind == mir_war.UNMASKED_WINDOW:
        kind, code = "masked-window", "idempotence-unmasked-window"
        detail = message = (
            f"the masked window re-enables interrupts before a checkpoint "
            f"commits the release of bytes {freed} still read by "
            f"{fact.what}"
        )
    elif kind == mir_war.RELEASE:
        kind, code = "exposed-release", "idempotence-exposed-release"
        detail = message = (
            f"'{instr.opcode}' publishes stack bytes {freed} still read by "
            f"{fact.what} in the open region; interrupt stacking or a "
            f"callee may clobber them before re-execution"
        )
    elif callee is not None:
        kind, code = "cross-call", "idempotence-war"
        related = "first " + related
        detail = (
            f"transparent callee '{callee}' may overwrite caller stack "
            f"bytes first read by {fact.what} in the open region"
        )
        message = detail + "; re-execution would observe the callee's value"
    else:
        kind, code = "region-reexecution", "idempotence-war"
        related = "first " + related
        detail = (
            f"'{instr.opcode}' overwrites stack bytes first read by "
            f"{fact.what} in the same region"
        )
        message = detail + "; re-execution would observe the new value"
    engine.emit(Diagnostic(
        severity=ERROR, code=code, message=message, function=mfn.name,
        region=region, level=LEVEL_CERTIFY, loc=instr.loc,
        related=[(related, fact.instr.loc)],
    ))
    return obligation(kind, region, at, detail, violation=detail)


def _entry_barrier_obligation(mfn,
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
    functions: List[FunctionWAR],
    mmodule,
    machine_events: Dict[str, list],
    transparent: Set[str],
    engine: DiagnosticEngine,
) -> List[Dict[str, object]]:
    """Certify per-region idempotence of an instrumented module.

    ``functions`` holds the IR region findings of every function of the
    module, in module order, with calls as checkpoints;
    ``machine_events`` maps each function of ``mmodule`` (the same
    module after lowering) to its machine region events
    (:meth:`~repro.backend.mir_war.MachineRegionAnalysis.findings`), and
    ``transparent`` names the functions lowered without checkpoints.
    Violations go to ``engine``.  Returns one certificate dict per
    function, in module order, each carrying its proof obligations.
    Only meaningful for instrumented configurations (the analysis model
    assumes checkpoints delimit regions).
    """
    certificates: List[Dict[str, object]] = []
    for war in functions:
        name = war.function.name
        before = len(engine.diagnostics)
        obligations = _certify_ir_function(war, engine)
        mfn = mmodule.functions.get(name)
        if mfn is not None:
            if name != "main" and name not in transparent:
                obligations.append(_entry_barrier_obligation(mfn, engine))
            obligations.extend(
                _machine_obligation(mfn, event, engine)
                for event in machine_events[name]
            )

        violated = [o for o in obligations if o["status"] == VIOLATED]
        certificates.append({
            "function": name,
            "verdict": VIOLATED if violated else CERTIFIED,
            "obligations": obligations,
            "diagnostics": len(engine.diagnostics) - before,
        })
    return certificates


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
