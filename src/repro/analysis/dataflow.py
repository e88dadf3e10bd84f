"""The shared dataflow engine: one worklist solver, pluggable lattices.

Every static analysis in this repository is an instance of the same
scheme — iterate a monotone transfer function over a graph until the
per-node abstract states stop changing.  Before this module existed the
scheme was spelled out three times: the IR-level exposed-load dataflow
(:mod:`repro.analysis.static_war`), the machine-level stack dataflow
(:mod:`repro.backend.mir_war`), and the defined-before-use must-check in
:mod:`repro.backend.mir`.  They now all instantiate
:class:`DataflowProblem` and call :func:`solve`; the idempotence
certifier (:mod:`repro.analysis.idempotence`) renders the findings of
the first two.

The solver is deliberately a *round-robin* iteration over a fixed node
order rather than a priority worklist: for the monotone join lattices
used here the fixpoint is unique and order-independent, but the
*incidental* outputs the verifiers derive along the way (the order
structural problems are first observed in, which join first widened a
flag) are not — and the refactor onto this engine is required to be
byte-identical to the historical per-analysis loops, which were all
round-robin.  Determinism beats asymptotics at these function sizes.

Lattice direction is the client's choice: a **may** analysis starts from
bottom (empty) and unions at joins; a **must** analysis starts from top
(here encoded as ``None`` = "no path has reached this node yet") and
intersects.  ``None`` doubles as the unreachable marker — the solver
never runs a transfer on a ``None`` in-state, so unreachable nodes keep
their initial value and dead paths contribute nothing to any join,
exactly the convention the historical loops used.

A *backward* analysis is the same solver run on the reverse graph:
:class:`CFGProblem` derives node order and edges from a block list and
a successor function, and flips both when ``direction=BACKWARD``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

#: Path flags carried by flow facts: the fact reaches this program point
#: without crossing a loop back edge (``FW``, same iteration) or after
#: wrapping at least one (``BK``, a later iteration).  Shared by the IR
#: and machine WAR verifiers and the idempotence certifier so that a
#: fact can cross between them without translation.
FW = 1
BK = 2

#: Analysis directions for :class:`CFGProblem`.
FORWARD = "forward"
BACKWARD = "backward"


class DataflowProblem:
    """One dataflow instance: a graph plus a lattice.

    Subclasses define the graph (:meth:`nodes`, :meth:`edges`), the
    lattice (:meth:`initial`, :meth:`merge`), and the semantics
    (:meth:`transfer`, optionally :meth:`flow`).  :func:`solve` returns
    the fixpoint map of *in*-states keyed by :meth:`key`.

    Contracts the solver relies on:

    * ``transfer`` must not mutate the in-state it is handed — copy
      first.  (The same in-state is transferred once per round.)
    * ``merge`` mutates ``existing`` in place and returns whether it
      changed; it must be a monotone join (or meet) so the iteration
      terminates at a unique fixpoint.
    * ``flow`` may return the out-state itself when the edge does not
      tag it; whatever it returns may be stored directly as a successor
      in-state, so return a fresh object whenever the state is mutable
      and the edge-specific copy matters.
    """

    def nodes(self) -> Iterable:
        """Nodes in fixed iteration order (also the round-robin order)."""
        raise NotImplementedError

    def key(self, node):
        """Hashable identity of a node in the result map."""
        return id(node)

    def edges(self, node) -> Iterator[Tuple[object, bool]]:
        """Yield ``(successor, is_back_edge)`` pairs for ``node``."""
        raise NotImplementedError

    def initial(self, node):
        """The seed in-state, or ``None`` for "not yet reached": such a
        node is skipped until some edge flows a state into it."""
        raise NotImplementedError

    def transfer(self, node, state):
        """The node's out-state for the given in-state (not mutated)."""
        raise NotImplementedError

    def flow(self, out, node, succ, is_back):
        """Edge-specific view of ``out`` flowing along ``node → succ``
        (e.g. tag facts with ``BK`` on a back edge).  Default: ``out``
        unchanged."""
        return out

    def merge(self, existing, incoming, node) -> bool:
        """Join ``incoming`` into ``existing`` in place; return True iff
        ``existing`` changed.  ``node`` is the join point (the successor
        whose in-state is being widened) — useful for diagnostics such
        as inconsistent-stack-depth reports."""
        raise NotImplementedError


def solve(problem: DataflowProblem) -> Dict:
    """Round-robin the problem to its fixpoint; return in-states by key.

    Unreached nodes (initial ``None``, never flowed into) keep ``None``.
    """
    nodes = list(problem.nodes())
    in_states: Dict = {problem.key(n): problem.initial(n) for n in nodes}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            state = in_states[problem.key(node)]
            if state is None:
                continue
            out = problem.transfer(node, state)
            for succ, is_back in problem.edges(node):
                flowed = problem.flow(out, node, succ, is_back)
                skey = problem.key(succ)
                existing = in_states.get(skey)
                if existing is None:
                    in_states[skey] = flowed
                    changed = True
                elif problem.merge(existing, flowed, succ):
                    changed = True
    return in_states


class CFGProblem(DataflowProblem):
    """A :class:`DataflowProblem` over an explicit block list.

    Derives iteration order, edges, and back-edge classification from
    the block list and a successor function; ``direction=BACKWARD``
    solves over the reverse graph (predecessor edges, reverse order), so
    a liveness-style analysis needs only a lattice and a transfer.
    Back edges are classified positionally — an edge whose target does
    not come strictly later in the (direction-adjusted) order — which
    for the layout orders the back end emits coincides with loop back
    edges, the same convention :mod:`repro.backend.mir_war` uses.
    """

    def __init__(self, blocks, successors=None, direction: str = FORWARD):
        self.blocks = list(blocks)
        self._successors = successors or (lambda b: b.successors())
        self.direction = direction
        self._forward: Dict[object, List] = {}
        self._index = {self.key(b): i for i, b in enumerate(self.blocks)}
        for block in self.blocks:
            self._forward[self.key(block)] = list(self._successors(block))
        if direction == BACKWARD:
            inverted: Dict[object, List] = {self.key(b): [] for b in self.blocks}
            for block in self.blocks:
                for succ in self._forward[self.key(block)]:
                    inverted[self.key(succ)].append(block)
            self._edges = inverted
            self._order = list(reversed(self.blocks))
        else:
            self._edges = self._forward
            self._order = self.blocks

    def nodes(self):
        return self._order

    def edges(self, node):
        here = self._index[self.key(node)]
        for succ in self._edges[self.key(node)]:
            there = self._index[self.key(succ)]
            if self.direction == BACKWARD:
                yield succ, there >= here
            else:
                yield succ, there <= here
        return


# ---------------------------------------------------------------------------
# lattice helpers
# ---------------------------------------------------------------------------
#
# The two recurring lattices: *flagged-fact maps* (a may-set of facts
# keyed by identity, each carrying an FW/BK flag word that only ever
# widens) and *interval sets* (sorted disjoint half-open byte ranges
# over entry-relative stack coordinates, used both as may-footprints
# and — under intersection — as must-coverage).


def merge_flagged_facts(into: Dict, new: Dict) -> bool:
    """Join two ``key -> (payload, flags)`` may-maps in place."""
    changed = False
    for key, (payload, flags) in new.items():
        old = into.get(key)
        if old is None:
            into[key] = (payload, flags)
            changed = True
        elif old[1] | flags != old[1]:
            into[key] = (payload, old[1] | flags)
            changed = True
    return changed


def intersect_must_set(existing: set, incoming: set) -> bool:
    """Meet two must-sets in place (``existing &= incoming``)."""
    if existing.issubset(incoming):
        return False
    existing.intersection_update(incoming)
    return True


Interval = Tuple[int, int]


def intervals_overlap(a: Interval, b: Interval) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def interval_add(intervals: List[Interval], new: Interval) -> List[Interval]:
    """Union ``new`` into a sorted disjoint interval list."""
    lo, hi = new
    out: List[Interval] = []
    for a, b in intervals:
        if b < lo or a > hi:
            out.append((a, b))
        else:
            lo = min(lo, a)
            hi = max(hi, b)
    out.append((lo, hi))
    out.sort()
    return out


def interval_sub(intervals: List[Interval], cut: Interval) -> List[Interval]:
    """Remove ``cut`` from every interval of the list."""
    lo, hi = cut
    out: List[Interval] = []
    for a, b in intervals:
        if b <= lo or a >= hi:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, lo))
        if b > hi:
            out.append((hi, b))
    return out


def interval_intersect(xs: List[Interval], ys: List[Interval]) -> List[Interval]:
    out: List[Interval] = []
    for a, b in xs:
        for c, d in ys:
            lo, hi = max(a, c), min(b, d)
            if lo < hi:
                out.append((lo, hi))
    out.sort()
    return out


def interval_covers(intervals: List[Interval], ranges) -> bool:
    """True if every byte of every range lies inside the interval set."""
    for lo, hi in ranges:
        pos = lo
        for a, b in intervals:
            if a <= pos < b:
                pos = b
                if pos >= hi:
                    break
        if pos < hi:
            return False
    return True


__all__ = [
    "FW", "BK", "FORWARD", "BACKWARD",
    "DataflowProblem", "CFGProblem", "solve",
    "merge_flagged_facts", "intersect_must_set",
    "Interval", "intervals_overlap",
    "interval_add", "interval_sub", "interval_intersect", "interval_covers",
]
