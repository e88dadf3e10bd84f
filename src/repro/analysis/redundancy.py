"""Merged-region redundancy analysis: is a checkpoint provably elidable?

The three static certification legs — WAR-freedom
(:mod:`repro.analysis.static_war`), idempotence
(:mod:`repro.analysis.idempotence`) and forward progress
(:mod:`repro.analysis.progress` / :mod:`repro.core.region_bound`) — are
verify-only: they prove the inserter's output safe but never feed back
into placement.  This module turns the same facts into an *optimisation
oracle*: for a candidate checkpoint ``c`` it abstractly merges the two
checkpoint-delimited regions adjacent to ``c`` (the IR is analysed with
``c`` treated as absent; nothing is mutated) and re-discharges all three
proof obligations on the merged region:

``placement-war``
    the exposed-load dataflow of
    :class:`~repro.analysis.static_war.RegionWARAnalysis` (including
    cross-call mod/ref facts from :mod:`repro.analysis.summaries` under
    the relaxed call model) reaches a fixpoint with no store clobbering
    an exposed read;

``placement-idempotence``
    the idempotence certifier's abstract re-execution over the same
    merged fixpoint records no clobbered read in any region — the merged
    region re-executes to the same state after a power failure;

``placement-progress``
    the merged region's statically-estimated worst-case cycle gap stays
    within the elision budget: :class:`~repro.analysis.progress.
    IRProgress` composes the machine-level progress certifier's path
    summaries over the middle-end cost table — loops collapsed
    innermost-first under real trip bounds, transparent callees spliced
    in bottom-up — so the merge cannot starve a device the un-merged
    program served.

The sub-proofs are evaluated in that order and a trial stops at the
first violated one, unless the elision is forced.  Both memory
sub-proofs read the same WAR findings of the merged fixpoint
(:meth:`~repro.analysis.static_war.RegionWARAnalysis.findings`); a trial
that only asks takes the first and stops the walk there.

If and only if all three hold, ``c`` is provably redundant: every
behaviour the merged region can exhibit under power failure was already
proven consistent, and the machine-level certifiers re-verify the elided
module end-to-end after lowering (the elision budget is deliberately
below the CI progress budget so back-end expansion cannot silently push
a merged region past it).

The driver that orders candidates, runs the fixpoint and emits the
``placement-*`` certificates lives in :mod:`repro.core.checkpoint_elim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional

from ..ir.instructions import CKPT_MIDDLE_END, Checkpoint
from .alias import AliasAnalysis
from .idempotence import clobber_detail, obligation
from .loops import LoopInfo, loop_info
from .progress import UNBOUNDED, IRProgress
from .static_war import RegionWARAnalysis, describe_endpoint, region_labels

#: Default estimated-cycle budget for a merged region.  Chosen well below
#: the CI machine-level progress budget (40 000 cycles, see
#: ``.github/workflows/ci.yml``) so the back end's expansion overhead
#: (spills, prologues, call marshalling) cannot push an elision-merged
#: region past the budget the *machine-level* progress certifier is held
#: to when it re-certifies the optimised module.
DEFAULT_ELISION_BUDGET = 20_000

#: Sub-proof kinds, in certificate order.
PLACEMENT_WAR = "placement-war"
PLACEMENT_IDEMPOTENCE = "placement-idempotence"
PLACEMENT_PROGRESS = "placement-progress"
SUBPROOF_KINDS = (PLACEMENT_WAR, PLACEMENT_IDEMPOTENCE, PLACEMENT_PROGRESS)


@dataclass
class ElisionDecision:
    """The outcome of asking "can this checkpoint be elided?"."""

    checkpoint: object
    function: str
    block: str
    #: instruction index of the candidate at decision time
    index: int
    cause: str
    #: the elision-order weight the driver assigned (hotter = larger)
    weight: float
    #: all three sub-proofs discharged on the merged region
    redundant: bool
    #: the decision was imposed by the TEST-ONLY ``force_unsafe_elision``
    #: knob rather than proven (sub-proofs are still evaluated/recorded)
    forced: bool
    #: the evaluated sub-proofs, in certificate order: all three when
    #: the memory sub-proofs discharge or the decision is forced; only
    #: the two memory sub-proofs (violated together) when a non-forced
    #: trial fails on them, their details then naming only the first
    #: WAR found
    subproofs: List[Dict[str, object]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the per-function redundancy oracle
# ---------------------------------------------------------------------------


class RedundancyAnalysis:
    """Decides redundancy of middle-end checkpoints of one function.

    Each :meth:`decide` re-solves the merged-region dataflow against the
    function's *current* IR, so the driver may interleave decisions with
    actual elisions: a decision always reflects every elision already
    applied.  (Removing a barrier only ever grows the exposed-fact sets
    — the analysis is monotone in barrier removal — so a candidate that
    failed once can never become redundant later; the driver exploits
    this to retire failed candidates permanently.)
    """

    def __init__(self, function, aa: AliasAnalysis,
                 li: Optional[LoopInfo] = None, summaries=None,
                 budget: Optional[int] = None, arg_constants=None):
        self.function = function
        self.aa = aa
        self.li = li if li is not None else loop_info(function)
        self.summaries = summaries
        self.budget = budget if budget is not None else DEFAULT_ELISION_BUDGET
        self.progress = IRProgress(
            function, summaries=summaries, arg_constants=arg_constants
        )

    def candidates(self) -> List[Checkpoint]:
        """Middle-end checkpoints of the function, in layout order.
        (Entry/exit/spill checkpoints are back-end constructs that do
        not exist at this level; region-bound checkpoints exist to cap
        the gap the progress sub-proof measures, so they are never
        candidates.)"""
        return [
            instr
            for block in self.function.blocks
            for instr in block.instructions
            if isinstance(instr, Checkpoint) and instr.cause == CKPT_MIDDLE_END
        ]

    def decide(self, ckpt: Checkpoint, weight: float = 0.0,
               forced: bool = False) -> ElisionDecision:
        """Evaluate the sub-proofs for eliding ``ckpt``, in certificate
        order, stopping after the first violated one unless ``forced``.

        The two memory sub-proofs read the same findings of the merged
        fixpoint and are violated or discharged together; the progress
        sub-proof runs only when they discharge, or when the decision is
        forced (which evaluates all three in full).
        """
        block = ckpt.parent
        index = block.index_of(ckpt)
        at = f"{block.name}@{index}"
        labels = region_labels(self.function, True, self.summaries)
        region = labels.get(id(block), "entry")

        subproofs = self._memory_subproofs(ckpt, region, at, forced)
        if forced or all(o["status"] == "discharged" for o in subproofs):
            subproofs.append(self._progress_subproof(ckpt, region, at))
        redundant = all(o["status"] == "discharged" for o in subproofs)
        return ElisionDecision(
            checkpoint=ckpt,
            function=self.function.name,
            block=block.name,
            index=index,
            cause=ckpt.cause,
            weight=weight,
            redundant=redundant,
            forced=forced,
            subproofs=subproofs,
        )

    # -- the three sub-proofs -------------------------------------------
    def _memory_subproofs(self, ckpt: Checkpoint, region: str, at: str,
                          forced: bool):
        """``placement-war`` and ``placement-idempotence`` from the WAR
        findings of one merged-region fixpoint: the first only, unless
        ``forced``; their details name the first."""
        merged = RegionWARAnalysis(
            self.function, self.aa, self.li, True, self.summaries,
            ignore={id(ckpt)},
        )
        findings = merged.findings()
        found = list(findings if forced else islice(findings, 1))
        if not found:
            return [
                obligation(
                    PLACEMENT_WAR, region, at,
                    "no store in the merged region overwrites an exposed "
                    "read",
                    discharged_by="exposed-load dataflow over the merged "
                                  "region reached a fixpoint with no WAR",
                ),
                obligation(
                    PLACEMENT_IDEMPOTENCE, region, at,
                    "no abstract location is read before being overwritten "
                    "inside the merged region",
                    discharged_by="abstract re-execution recorded no "
                                  "clobbered read in any region",
                ),
            ]
        read, write, kind = found[0]
        war = (
            f"{len(found)} WAR(s) in the merged region: {kind} WAR: "
            f"{describe_endpoint(write, self.aa)} overwrites a location "
            f"read by {describe_endpoint(read, self.aa)}"
        )
        clobbered = (
            f"abstract re-execution of the merged region clobbers "
            f"{len(found)} read(s): "
            f"{clobber_detail(read, write, kind, self.aa)}"
        )
        return [
            obligation(PLACEMENT_WAR, region, at, war, violation=war),
            obligation(PLACEMENT_IDEMPOTENCE, region, at, clobbered,
                       violation=clobbered),
        ]

    def _progress_subproof(self, ckpt: Checkpoint, region: str, at: str):
        gap = self.progress.worst_gap(ignore={id(ckpt)})
        if gap > self.budget:
            over = (
                "has no structural bound" if gap == UNBOUNDED
                else f"is estimated at {int(gap)} cycles"
            )
            detail = (
                f"the merged region's worst checkpoint-free gap {over}, "
                f"exceeding the elision budget of {self.budget} cycles"
            )
            ob = obligation(PLACEMENT_PROGRESS, region, at, detail,
                            violation=detail)
        else:
            ob = obligation(
                PLACEMENT_PROGRESS, region, at,
                f"estimated worst checkpoint-free gap of {int(gap)} "
                f"cycles is within the elision budget of {self.budget}",
                discharged_by="trip-bounded path-summary composition "
                              "over the merged region (region-bound "
                              "cost table, transparent callees spliced "
                              "bottom-up)",
            )
        ob["bound"] = None if gap > self.budget else int(gap)
        ob["budget"] = self.budget
        return ob


__all__ = [
    "DEFAULT_ELISION_BUDGET",
    "PLACEMENT_WAR", "PLACEMENT_IDEMPOTENCE", "PLACEMENT_PROGRESS",
    "SUBPROOF_KINDS",
    "ElisionDecision", "RedundancyAnalysis",
]
