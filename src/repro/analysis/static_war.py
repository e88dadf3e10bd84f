"""Static WAR-freedom verification on the middle-end IR.

The emulator's :class:`~repro.emulator.warcheck.WARChecker` proves
WAR-freedom *dynamically*: byte-granular, but only for the paths one run
happens to execute.  This module proves the same invariant *statically*,
for every path and every input, following Surbatovich et al.'s
observation that intermittent-execution correctness is a static property
of checkpoint-delimited regions.

The verifier is a forward may-dataflow over each function's CFG.  The
abstract state at a program point is the set of *exposed loads*: loads
whose location may have been read since the last barrier (checkpoint, or
call when entry/exit checkpoints are in force) on **some** path to this
point.  Facts carry two path flags:

``FORWARD``
    the load reaches this point without crossing a loop back edge — the
    load and the current instruction execute in the same iteration;

``BACKWARD``
    the fact flowed around at least one back edge — the current
    instruction executes in a *later* iteration than the load.

A store is a WAR violation when it may alias an exposed load under the
matching alias query: plain ``may_alias`` for same-iteration facts,
``may_alias_cross_iteration`` (over the pair's innermost common loop)
for facts that wrapped a back edge.  A checkpoint kills all facts — on
that path the idempotent region containing the load has ended before the
store.  This is exactly the invariant the dynamic checker tests, lifted
to abstract locations: *static clean implies dynamically clean on every
input* (the converse does not hold — the analysis over-approximates
aliasing exactly as the PDG checkpoint inserter does).

Interprocedural behaviour follows the instrumentation model:

* ``calls_are_checkpoints=True`` (every instrumented environment) —
  calls are barriers, because callees checkpoint at entry and before
  every epilogue stack release (paper §3.1.2/§3.1.3).
* ``calls_are_checkpoints=False`` (the ``plain`` build) — a call may
  both read and write arbitrary memory inside the caller's open region,
  so a call with exposed loads is itself reported, and the call becomes
  an exposed load of *everything* (the whole-program points-to summary
  bounds nothing once the region spans unknown callees).
* ``summaries`` (a :class:`~repro.analysis.summaries.SummaryTable`) —
  the relaxed call model: a call is a barrier only when the callee is
  not *transparent*; a transparent call is checked as a write of the
  callee's mod set against the exposed loads, then becomes an exposed
  read of the callee's ref set.  This mirrors
  :meth:`repro.analysis.memdep.WARIndex.wars` exactly, so the verifier
  re-certifies what the summaries-aware inserter produced.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..diagnostics import (
    LEVEL_IR,
    Diagnostic,
    DiagnosticEngine,
    ERROR,
)
from ..ir.instructions import Call, Checkpoint, Load, Store
from .alias import AliasAnalysis, PRECISE
from .cfg import reverse_postorder
from .dataflow import DataflowProblem, FW, BK, merge_flagged_facts, solve
from .loops import LoopInfo, loop_info
from .memdep import (
    BACKWARD,
    FORWARD,
    access_size,
    is_barrier,
    summary_sets_intersect,
)
from .pointsto import module_points_to


# ---------------------------------------------------------------------------
# CFG helpers
# ---------------------------------------------------------------------------


def retreating_edges(function) -> set:
    """Edges ``(id(pred), id(succ))`` that go backwards in reverse
    postorder.  For the reducible CFGs the mini-C front end produces this
    is exactly the set of loop back edges; for an irreducible graph it is
    a superset, which only makes the analysis more conservative (extra
    ``BK`` flags can only add reports, never hide one)."""
    rpo = reverse_postorder(function)
    index = {id(b): i for i, b in enumerate(rpo)}
    edges = set()
    for block in function.blocks:
        for succ in block.successors:
            if index.get(id(succ), 0) <= index.get(id(block), 0):
                edges.add((id(block), id(succ)))
    return edges


def region_labels(function, calls_are_checkpoints: bool,
                  summaries=None) -> Dict[int, str]:
    """A human-readable idempotent-region identifier for every block
    entry: the position of the nearest *dominating* barrier, or
    ``"entry"``.  Purely informational — the dataflow itself is
    path-sensitive and does not consume these labels."""
    from .dominators import dominator_tree

    domtree = dominator_tree(function)
    labels: Dict[int, str] = {}

    def label_at_entry(block) -> str:
        if id(block) in labels:
            return labels[id(block)]
        parent = domtree.idom(block)
        if parent is None:
            label = "entry"
        else:
            label = label_at_exit(parent)
        labels[id(block)] = label
        return label

    def label_at_exit(block) -> str:
        label = label_at_entry(block)
        for idx, instr in enumerate(block.instructions):
            if is_barrier(instr, calls_are_checkpoints, summaries):
                label = f"{block.name}@{idx}"
        return label

    for block in function.blocks:
        label_at_entry(block)
    return labels


# ---------------------------------------------------------------------------
# the region dataflow
# ---------------------------------------------------------------------------

#: A dataflow state: id(instr) -> (instr, flags).  ``instr`` is a Load,
#: or a Call standing in for "the callee may have read anything".
State = Dict[int, Tuple[object, int]]

#: The join is the shared flagged-fact lattice from the dataflow engine.
_merge = merge_flagged_facts


#: The kinds of a finding besides ``FORWARD``/``BACKWARD``, both only
#: without entry checkpoints (``calls_are_checkpoints=False``): a store
#: after a call that spans the region, and that call itself.
AFTER_CALL = "after-call"
CALL = "call"


class RegionWARAnalysis(DataflowProblem):
    """One function's exposed-load dataflow and its WAR findings.

    A forward may-analysis on the shared engine: the in-state seed is
    the empty fact map for every reachable block, facts union at joins,
    and a back edge tags everything it carries with ``BK``.
    :meth:`findings` solves it and walks every block once more to name
    the WARs; the WAR verifier, the idempotence certifier and the
    elision trials (:mod:`repro.analysis.redundancy`) all read them.

    ``ignore`` is a set of instruction ids (checkpoints only) treated as
    absent: facts flow straight through them, so the analysis sees the
    two adjacent regions *abstractly merged*.  The elision trials use
    this to ask "would the module still verify if this checkpoint were
    elided?" without mutating the IR."""

    def __init__(
        self,
        function,
        aa: AliasAnalysis,
        li: LoopInfo,
        calls_are_checkpoints: bool,
        summaries=None,
        ignore=frozenset(),
    ):
        self.function = function
        self.aa = aa
        self.li = li
        self.calls_are_checkpoints = calls_are_checkpoints
        self.summaries = summaries
        self.ignore = frozenset(ignore)
        self.back_edges = retreating_edges(function)
        self.in_states: Dict[int, State] = {id(b): {} for b in function.blocks}

    # -- transfer --------------------------------------------------------
    def _walk(self, block, state: State, report: bool):
        """Run ``block``'s transfer over ``state`` in place.  With
        ``report``, yield ``(read, write, kind)`` for every exposed read
        a write of the block may clobber, as the write is reached."""
        for instr in block.instructions:
            if id(instr) in self.ignore and isinstance(instr, Checkpoint):
                # abstract region merge: the elision candidate is absent
                continue
            if is_barrier(instr, self.calls_are_checkpoints, self.summaries):
                # A checkpoint, or a call whose callee's entry checkpoint
                # ends the region: the call's own reads/writes start a
                # fresh one, and its exit checkpoint precedes any
                # post-return access, so nothing is exposed after it.
                state.clear()
                continue
            if isinstance(instr, Call):
                if self.calls_are_checkpoints:
                    # Transparent callee (relaxed model): the call writes
                    # its mod set inside the still-open region — check it
                    # against the exposed loads — then exposes its ref set
                    # as a read.
                    if report:
                        yield from self._clobbers(instr, state)
                elif report and state:
                    # Region spans the call (plain build): report it against
                    # the open exposed loads, then treat the callee as having
                    # read arbitrary memory inside the still-open region.
                    yield next(iter(state.values()))[0], instr, CALL
                state[id(instr)] = (instr, state.get(id(instr), (instr, 0))[1] | FW)
                continue
            if isinstance(instr, Load):
                old = state.get(id(instr))
                state[id(instr)] = (instr, (old[1] if old else 0) | FW)
                continue
            if isinstance(instr, Store) and report:
                yield from self._clobbers(instr, state)

    def _clobbers(self, write, state: State):
        for read, flags in list(state.values()):
            kind = self._war_kind(read, flags, write)
            if kind is not None:
                yield read, write, kind

    def _endpoint_objects(self, instr, want_mod: bool):
        """Objects a fact/store endpoint may touch (None = TOP)."""
        if isinstance(instr, Call):
            if self.summaries is None:
                return None
            if want_mod:
                return self.summaries.call_mod(instr)
            return self.summaries.call_ref(instr)
        return self.aa.classify(instr.pointer).possible_bases()

    def _war_kind(self, fact_instr, flags: int, store) -> Optional[str]:
        """Does ``store`` (a Store, or a transparent Call standing in for
        its mod set) form a WAR with the exposed ``fact_instr``?"""
        if isinstance(fact_instr, Call) and not self.calls_are_checkpoints:
            return AFTER_CALL
        if isinstance(fact_instr, Call) or isinstance(store, Call):
            if fact_instr is store and not flags & BK:
                # One execution of one call: the callee's internal
                # ordering was proven WAR-free when it was classified
                # transparent.
                return None
            overlap = summary_sets_intersect(
                self._endpoint_objects(fact_instr, want_mod=False),
                self._endpoint_objects(store, want_mod=True),
            )
            if not overlap:
                return None
            # Object-granular facts alias identically in every iteration.
            return FORWARD if flags & FW and fact_instr is not store else BACKWARD
        load = fact_instr
        lsize = access_size(load)
        ssize = access_size(store)
        if flags & FW and self.aa.may_alias(
            load.pointer, lsize, store.pointer, ssize
        ):
            return FORWARD
        if flags & BK:
            common = self.li.common_loop(load.parent, store.parent)
            if common is not None:
                if self.aa.may_alias_cross_iteration(
                    load.pointer, lsize, store.pointer, ssize, common
                ):
                    return BACKWARD
            elif self.aa.may_alias(load.pointer, lsize, store.pointer, ssize):
                # The fact wrapped a back edge of a loop that does not
                # contain both endpoints: the load's address was fixed when
                # it executed, so the same-iteration query is the right one.
                return BACKWARD
        return None

    # -- the dataflow problem (shared worklist engine) -------------------
    def nodes(self):
        return reverse_postorder(self.function)

    def edges(self, block):
        for succ in block.successors:
            yield succ, (id(block), id(succ)) in self.back_edges

    def initial(self, block) -> State:
        return {}

    def transfer(self, block, state: State) -> State:
        state = dict(state)
        for _finding in self._walk(block, state, report=False):
            pass
        return state

    def flow(self, out: State, block, succ, is_back: bool) -> State:
        if is_back:
            return {
                key: (instr, flags | BK)
                for key, (instr, flags) in out.items()
            }
        return out

    def merge(self, existing: State, incoming: State, block) -> bool:
        return _merge(existing, incoming)

    def findings(self):
        """Solve the dataflow, then walk every block from its fixpoint
        in-state and yield each WAR once, as ``(read, write, kind)``, in
        program order.  Each is yielded as the walk reaches its write, so
        a consumer that stops early stops the walk there.

        ``read`` is a Load, or a Call (a transparent callee's ref set, or
        without entry checkpoints a region-spanning call, which may have
        read anything); ``write`` is a Store, or a Call (a transparent
        callee's mod set, or for :data:`CALL` the region-spanning call,
        ``read`` then being one exposed read before it).  ``kind`` is
        ``FORWARD``, ``BACKWARD``, :data:`AFTER_CALL` or :data:`CALL`."""
        # Unreachable blocks are not solved (no path reaches them) but
        # the walk still visits them with an empty in-state, so
        # straight-line WARs inside dead code are still flagged.
        self.in_states.update(solve(self))
        seen = set()
        for block in self.function.blocks:
            state = dict(self.in_states[id(block)])
            for read, write, kind in self._walk(block, state, report=True):
                key = (id(read), id(write))
                if key not in seen:
                    seen.add(key)
                    yield read, write, kind


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def describe_access(instr, aa: Optional[AliasAnalysis] = None) -> str:
    """A short human-readable description of a load/store's location."""
    pointer = instr.pointer
    if aa is not None:
        info = aa.classify(pointer)
        if info.base is not None and getattr(info.base, "name", ""):
            prefix = "@" if type(info.base).__name__ == "GlobalVariable" else "%"
            desc = f"{prefix}{info.base.name}"
            if info.exact and info.iv is None and info.const_offset:
                desc += f"+{info.const_offset}"
            elif not info.exact or info.iv is not None:
                desc += "[...]"
            return desc
    name = getattr(pointer, "name", "")
    return f"%{name}" if name else "<unknown>"


def describe_endpoint(instr, aa: Optional[AliasAnalysis] = None) -> str:
    """:func:`describe_access` of a load or store; a call as the call."""
    if isinstance(instr, Call):
        return f"call to '{instr.callee.name}'"
    return describe_access(instr, aa)


def _war_diagnostic(function, aa, labels, read, write, kind) -> Diagnostic:
    """The ``war-*`` diagnostic of one :meth:`RegionWARAnalysis.findings`
    finding."""
    if kind == CALL:
        message = (
            f"call to '{write.callee.name}' inside an idempotent region "
            f"with exposed reads: the callee may overwrite a location "
            f"already read in this region (no entry checkpoint breaks "
            f"the region in this configuration)"
        )
        related = [(
            "a location is first read here",
            getattr(read, "loc", None),
        )] if isinstance(read, Load) else []
    elif kind == AFTER_CALL:
        message = (
            f"store to {describe_access(write, aa)} follows a call to "
            f"'{read.callee.name}' in the same idempotent region; the "
            f"callee may already have read this location"
        )
        related = [("region-spanning call is here", getattr(read, "loc", None))]
    else:
        where = {
            FORWARD: "later in the same idempotent region",
            BACKWARD: "in a later iteration of the same idempotent region",
        }[kind]
        if isinstance(write, Call):
            store_clause = (
                f"{describe_endpoint(write)} may overwrite (via its mod set) "
                f"a location"
            )
        else:
            store_clause = (
                f"store to {describe_access(write, aa)} may overwrite "
                f"a location"
            )
        if isinstance(read, Call):
            read_by = f"inside {describe_endpoint(read)} (its ref set)"
        else:
            read_by = f"by load {describe_access(read, aa)}"
        message = (
            f"{store_clause} first read {where}; re-execution after a "
            f"power failure would observe the new value"
        )
        related = [(
            f"location first read here {read_by}",
            getattr(read, "loc", None),
        )]
    return Diagnostic(
        severity=ERROR,
        code=f"war-{kind}",
        message=message,
        function=function.name,
        region=labels.get(id(read.parent), "entry"),
        level=LEVEL_IR,
        loc=getattr(write, "loc", None),
        related=related,
    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


class FunctionWAR(NamedTuple):
    """One function's region-WAR analysis: the alias analysis it ran
    with, its region labels and every :meth:`RegionWARAnalysis.findings`
    finding, in order."""

    function: object
    aa: AliasAnalysis
    labels: Dict[int, str]
    findings: List[Tuple[object, object, str]]


def analyse_function_war(
    function,
    alias_mode: str = PRECISE,
    points_to=None,
    calls_are_checkpoints: bool = True,
    summaries=None,
) -> FunctionWAR:
    """Solve one function's region dataflow and collect its findings."""
    aa = AliasAnalysis(function, alias_mode, points_to=points_to)
    analysis = RegionWARAnalysis(
        function, aa, loop_info(function), calls_are_checkpoints, summaries
    )
    return FunctionWAR(
        function, aa,
        region_labels(function, calls_are_checkpoints, summaries),
        list(analysis.findings()),
    )


def report_function_war(war: FunctionWAR, engine: DiagnosticEngine) -> None:
    """Emit the ``war-*`` diagnostic of each of ``war``'s findings."""
    for finding in war.findings:
        engine.emit(_war_diagnostic(war.function, war.aa, war.labels,
                                    *finding))


def verify_function_war(
    function,
    alias_mode: str = PRECISE,
    points_to=None,
    calls_are_checkpoints: bool = True,
    engine: Optional[DiagnosticEngine] = None,
    summaries=None,
) -> DiagnosticEngine:
    """Statically verify one function's WAR-freedom; returns the engine."""
    if engine is None:
        engine = DiagnosticEngine()
    report_function_war(
        analyse_function_war(function, alias_mode, points_to,
                             calls_are_checkpoints, summaries),
        engine,
    )
    return engine


def verify_module_war(
    module,
    alias_mode: str = PRECISE,
    calls_are_checkpoints: bool = True,
    engine: Optional[DiagnosticEngine] = None,
    summaries=None,
) -> DiagnosticEngine:
    """Statically verify every defined function of ``module``.

    The verifier must see the *final* middle-end IR — i.e. run it after
    checkpoint insertion (or on an uninstrumented module to demonstrate
    why ``plain`` is unsafe under intermittent power).

    When ``summaries`` is given its whole-program points-to map drives
    alias queries and transparent callees stop acting as barriers; the
    verifier then certifies the same relaxed call model the inserter
    used.
    """
    if engine is None:
        engine = DiagnosticEngine()
    points_to = module_points_to(module, summaries)
    for function in module.defined_functions():
        verify_function_war(
            function,
            alias_mode=alias_mode,
            points_to=points_to,
            calls_are_checkpoints=calls_are_checkpoints,
            engine=engine,
            summaries=summaries,
        )
    return engine


__all__ = [
    "FW", "BK", "AFTER_CALL", "CALL",
    "RegionWARAnalysis", "FunctionWAR", "analyse_function_war",
    "report_function_war",
    "describe_access", "describe_endpoint", "retreating_edges",
    "region_labels", "verify_function_war", "verify_module_war",
]
