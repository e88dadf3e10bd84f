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
    the exposed-load dataflow of :class:`static_war._FunctionWARAnalysis`
    (including cross-call mod/ref facts from
    :mod:`repro.analysis.summaries` under the relaxed call model) reaches
    a fixpoint with no store clobbering an exposed read;

``placement-idempotence``
    the idempotence certifier's abstract re-execution over the same
    merged fixpoint records no clobbered-read event in any region — the
    merged region re-executes to the same state after a power failure;

``placement-progress``
    the merged region's statically-estimated worst-case cycle gap stays
    within the elision budget: per-block path summaries over the
    :mod:`repro.core.region_bound` cost table are composed exactly like
    the machine-level progress certifier — loops collapsed
    innermost-first under real trip bounds, transparent callees spliced
    in bottom-up — so the merge cannot starve a device the un-merged
    program served.

The sub-proofs are evaluated in that order and a trial stops at the
first violated one, unless the elision is forced.  Both memory
sub-proofs come from one reporting pass over the merged fixpoint, which
feeds the same WAR events to both; a trial that only asks ends that
pass at the first finding.

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
from typing import Dict, List, Optional, Set

from ..diagnostics import DiagnosticEngine
from ..ir.instructions import CKPT_MIDDLE_END, Call, Checkpoint
from .alias import AliasAnalysis
from .idempotence import _CapturingReporter, _obligation
from .loops import LoopInfo, loop_info
from .static_war import _FunctionWARAnalysis, describe_access, region_labels

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


class _CountingReporter:
    """Collects WAR findings of a merged-region trial analysis as plain
    strings (no diagnostics escape a trial that only *asks*)."""

    def __init__(self, aa: AliasAnalysis):
        self.aa = aa
        self.findings: List[str] = []
        self.seen: Set = set()

    def _describe(self, instr) -> str:
        if isinstance(instr, Call):
            return f"call to '{instr.callee.name}'"
        return describe_access(instr, self.aa)

    def war(self, load, flags: int, store, kind: str) -> None:
        key = (id(load), id(store))
        if key in self.seen:
            return
        self.seen.add(key)
        self.findings.append(
            f"{kind} WAR: {self._describe(store)} overwrites a location "
            f"read by {self._describe(load)}"
        )


class _FirstFinding(Exception):
    """Ends a non-forced trial's reporting pass at its first WAR."""


class _TrialReporter:
    """One reporting pass over the merged fixpoint, fed to the reporters
    of both memory sub-proofs.

    Both get identical ``war`` calls, and no ``call_in_region`` call
    (the pass only makes those when calls are not checkpoints, and
    trials model them as checkpoints), so the two obligations are always
    violated or discharged together.  With ``stop`` the pass ends at the
    first finding, which already refutes the merge.
    """

    def __init__(self, reporters, stop: bool):
        self.reporters = reporters
        self.stop = stop

    def war(self, load, flags: int, store, kind: str) -> None:
        for reporter in self.reporters:
            reporter.war(load, flags, store, kind)
        if self.stop:
            raise _FirstFinding


# ---------------------------------------------------------------------------
# progress sub-proof: trip-bound-aware path summaries on the merged IR
# ---------------------------------------------------------------------------


def _instr_cost(instr) -> int:
    # the shared middle-end estimate table, parity-pinned against the
    # emulator's CostModel by tests/test_region_bound.py
    from ..core.region_bound import _cost

    return _cost(instr)


class _LoopNames:
    """Name-keyed view of an IR :class:`~repro.analysis.loops.Loop` so
    the progress certifier's condensation (which works on block *names*,
    machine-IR convention) can consume middle-end loops unchanged."""

    __slots__ = ("header", "blocks")

    def __init__(self, loop):
        self.header = loop.header.name
        self.blocks = {block.name for block in loop.blocks}


class _ProgressEstimator:
    """Worst-case estimated checkpoint-free gap of a function with an
    elision candidate treated as absent.

    This is the middle-end analogue of the machine-level progress
    certifier: per-block :class:`~repro.analysis.progress.PathSummary`
    atoms over the :mod:`repro.core.region_bound` cost table, loops
    collapsed innermost-first with real trip bounds
    (:func:`~repro.analysis.progress.loop_trip_bounds`), transparent
    callees spliced in bottom-up (they have no entry checkpoint, so
    their interior joins the caller's open region), and opaque calls
    treated as region boundaries — the same convention as the inserter's
    region-bound pass, whose estimate table this shares.  A recursive or
    irreducible shape yields :data:`~repro.analysis.progress.UNBOUNDED`
    and the sub-proof fails conservatively.
    """

    def __init__(self, function, summaries=None, arg_constants=None):
        self.function = function
        self.summaries = summaries
        #: per-function constant-argument sets for trip-bound inference
        #: (:func:`~repro.analysis.progress.argument_constants`)
        if arg_constants is None:
            module = function.parent
            if module is not None:
                from .progress import argument_constants

                arg_constants = argument_constants(module)
        self.arg_constants = arg_constants or {}
        self._callee_memo: Dict[str, object] = {}
        self._trips_memo: Dict[str, Dict[str, float]] = {}
        self._visiting: Set[str] = set()

    # -- composition ------------------------------------------------------
    def _trip_bounds(self, function) -> Dict[str, float]:
        from .progress import loop_trip_bounds

        bounds = self._trips_memo.get(function.name)
        if bounds is None:
            bounds = loop_trip_bounds(
                function, self.arg_constants.get(function.name)
            )
            self._trips_memo[function.name] = bounds
        return bounds

    def _callee_summary(self, callee):
        from .progress import UNBOUNDED, IrreducibleCFG, PathSummary

        summary = self._callee_memo.get(callee.name)
        if summary is not None:
            return summary
        if callee.is_declaration or callee.name in self._visiting:
            # external body or recursion: no finite composition
            summary = PathSummary(UNBOUNDED, {}, None, {})
        else:
            self._visiting.add(callee.name)
            try:
                summary = self._summarize(callee, frozenset())
            except IrreducibleCFG:
                summary = PathSummary(UNBOUNDED, {}, None, {})
            finally:
                self._visiting.discard(callee.name)
        self._callee_memo[callee.name] = summary
        return summary

    def _block_summary(self, block, ignore):
        from .progress import PathSummary, _seq

        summary = PathSummary()
        for index, instr in enumerate(block.instructions):
            if isinstance(instr, Checkpoint):
                if id(instr) in ignore:
                    continue  # the abstractly-elided candidate is absent
                label = f"{block.name}@{index}"
                atom = PathSummary(None, {label: 0}, _instr_cost(instr), {})
            elif isinstance(instr, Call):
                cost = _instr_cost(instr)
                if (self.summaries is not None
                        and self.summaries.is_transparent_call(instr)):
                    target = self._callee_summary(instr.callee)
                    pre: Dict[str, float] = {}
                    if target.pre:
                        pre[f"{block.name}@{index}:call:"
                            f"{instr.callee.name}"] = (
                            cost + max(target.pre.values())
                        )
                    atom = PathSummary(
                        None if target.through is None
                        else cost + target.through,
                        pre,
                        target.post,
                        {},
                    )
                else:
                    # opaque callee: its machine-level entry checkpoint
                    # ends the caller's gap (region-bound's convention)
                    label = f"{block.name}@{index}:call"
                    atom = PathSummary(None, {label: 0}, cost, {})
            else:
                atom = PathSummary(_instr_cost(instr))
            summary = _seq(summary, atom)
        return summary

    def _summarize(self, function, ignore):
        from .progress import (
            UNBOUNDED,
            IrreducibleCFG,
            PathSummary,
            _condense,
            _power,
            _seq,
        )

        li = loop_info(function)
        succs = {
            block.name: [succ.name for succ in block.successors]
            for block in function.blocks
        }
        node_summaries: Dict[object, object] = {
            block.name: self._block_summary(block, ignore)
            for block in function.blocks
        }
        trips = self._trip_bounds(function)
        named = {id(loop): _LoopNames(loop) for loop in li.loops}
        # innermost first: children collapse before their parents
        for loop in sorted(li.loops, key=lambda l: len(l.blocks)):
            members = [
                block.name for block in function.blocks if loop.contains(block)
            ]
            children = [named[id(child)] for child in loop.children]
            exit_summary, body = _condense(
                members, loop.header.name, children, succs, node_summaries,
                iteration=True,
            )
            if body is None:
                raise IrreducibleCFG(
                    f"loop at {loop.header.name} has no latch path"
                )
            iterated = _power(
                body, max(trips.get(loop.header.name, UNBOUNDED), 1)
            )
            node_summaries[("loop", loop.header.name)] = (
                _seq(iterated, exit_summary)
                if exit_summary is not None
                else iterated
            )
        top = [named[id(loop)] for loop in li.loops if loop.parent is None]
        summary, _ = _condense(
            [block.name for block in function.blocks],
            function.entry.name, top, succs, node_summaries,
            iteration=False,
        )
        if summary is None:
            return PathSummary(UNBOUNDED, {}, None, {})
        return summary

    def worst_gap(self, ignore=frozenset()) -> float:
        """The largest checkpoint-free bound anywhere in the function
        with the ``ignore`` checkpoints treated as absent
        (:data:`~repro.analysis.progress.UNBOUNDED` when any region has
        no structural bound)."""
        from .progress import UNBOUNDED, IrreducibleCFG

        try:
            summary = self._summarize(self.function, frozenset(ignore))
        except IrreducibleCFG:
            return UNBOUNDED
        bounds = list(summary.pre.values()) + list(summary.gaps.values())
        if summary.post is not None:
            bounds.append(summary.post)
        if summary.through is not None:
            bounds.append(summary.through)
        return max(bounds) if bounds else 0.0


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
        self._estimator = _ProgressEstimator(
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

        The two memory sub-proofs come from one reporting pass over the
        merged fixpoint and are violated or discharged together; the
        progress sub-proof runs only when they discharge, or when the
        decision is forced (which evaluates all three in full).
        """
        block = ckpt.parent
        index = block.index_of(ckpt)
        at = f"{block.name}@{index}"
        labels = region_labels(self.function, True, self.summaries)
        region = labels.get(id(block), "entry")

        subproofs = self._memory_subproofs(ckpt, labels, region, at, forced)
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
    def _memory_subproofs(self, ckpt: Checkpoint, labels, region: str,
                          at: str, forced: bool):
        """``placement-war`` and ``placement-idempotence`` from one
        merged-region fixpoint and one reporting pass over it."""
        merged = _FunctionWARAnalysis(
            self.function, self.aa, self.li, True, self.summaries,
            ignore={id(ckpt)},
        )
        merged.run()
        counting = _CountingReporter(self.aa)
        # abstract re-execution: the idempotence certifier's capturing
        # reporter; its diagnostics go to a throwaway engine (a trial
        # merge only *asks*)
        capturing = _CapturingReporter(
            DiagnosticEngine(), self.function, self.aa, labels
        )
        try:
            merged.report(_TrialReporter((counting, capturing),
                                         stop=not forced))
        except _FirstFinding:
            pass
        return [
            self._war_subproof(counting, region, at),
            self._idempotence_subproof(capturing, region, at),
        ]

    def _war_subproof(self, reporter: _CountingReporter, region: str,
                      at: str):
        if reporter.findings:
            detail = (
                f"{len(reporter.findings)} WAR(s) in the merged region: "
                + reporter.findings[0]
            )
            ob = _obligation(PLACEMENT_WAR, region, at, detail,
                             violation=detail)
        else:
            ob = _obligation(
                PLACEMENT_WAR, region, at,
                "no store in the merged region overwrites an exposed read",
                discharged_by="exposed-load dataflow over the merged "
                              "region reached a fixpoint with no WAR",
            )
        return ob

    def _idempotence_subproof(self, reporter: _CapturingReporter,
                              region: str, at: str):
        clobbered = [
            detail
            for details in reporter.violations.values()
            for detail in details
        ]
        if clobbered:
            detail = (
                f"abstract re-execution of the merged region clobbers "
                f"{len(clobbered)} read(s): {clobbered[0]}"
            )
            ob = _obligation(PLACEMENT_IDEMPOTENCE, region, at, detail,
                             violation=detail)
        else:
            ob = _obligation(
                PLACEMENT_IDEMPOTENCE, region, at,
                "no abstract location is read before being overwritten "
                "inside the merged region",
                discharged_by="abstract re-execution recorded no "
                              "clobbered read in any region",
            )
        return ob

    def _progress_subproof(self, ckpt: Checkpoint, region: str, at: str):
        gap = self._estimator.worst_gap(ignore={id(ckpt)})
        if gap > self.budget:
            over = (
                "has no structural bound" if gap == float("inf")
                else f"is estimated at {int(gap)} cycles"
            )
            detail = (
                f"the merged region's worst checkpoint-free gap {over}, "
                f"exceeding the elision budget of {self.budget} cycles"
            )
            ob = _obligation(PLACEMENT_PROGRESS, region, at, detail,
                             violation=detail)
        else:
            ob = _obligation(
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
