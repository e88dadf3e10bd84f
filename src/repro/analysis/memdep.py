"""Memory-dependence analysis: the PDG slice WARio consumes.

The central product is the list of *WAR violations*: (load, store) pairs
over possibly-the-same NVM address where the store executes after the load
(possibly via a loop back edge) with no intervening forced checkpoint.
Re-executing such a region after a power failure makes the load observe
the new value (paper Figure 1), so each WAR must be broken by a
checkpoint between its read and its write.

With a :class:`~repro.analysis.summaries.SummaryTable` the call model is
relaxed: a call is a barrier only when the callee may actually checkpoint
(it is not *transparent*); a call to a transparent callee instead
participates as a memory access itself — its ref set as a read, its mod
set as a write — so WARs through the call are found and breakable while
WAR-free callees stop forcing entry/exit checkpoints.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..ir.instructions import Call, Checkpoint, Load, Store
from .alias import AliasAnalysis
from .cfg import ir_successors, reachability
from .loops import Loop, LoopInfo

#: WAR kinds: ``forward`` = store strictly after load in the same-iteration
#: program order; ``backward`` = the store only reaches the load around a
#: loop back edge (store earlier in the block/loop body than the load).
FORWARD = "forward"
BACKWARD = "backward"


@dataclass
class WARViolation:
    """One WAR violation that a checkpoint must break.

    Either endpoint may be a :class:`Call` to a transparent callee (the
    read then stands for the callee's ref set, the write for its mod
    set).
    """

    load: Load
    store: Store
    kind: str

    def __repr__(self):
        return f"<WAR {self.kind} {self.load!r} -> {self.store!r}>"


def access_size(instr) -> int:
    """Byte width of a load/store's memory access."""
    if isinstance(instr, Load):
        return instr.type.size
    if isinstance(instr, Store):
        return instr.pointer.type.pointee.size
    raise TypeError(f"not a memory access: {instr!r}")


def summary_sets_intersect(a: Optional[frozenset], b: Optional[frozenset]) -> bool:
    """Object-granular overlap; ``None`` (TOP) intersects everything."""
    if a is None or b is None:
        return True
    return bool(a & b)


def _endpoint_objects(access: "_Access", summaries, want_mod: bool):
    """Objects an endpoint (load/store/transparent call) may touch, or
    None for TOP."""
    if access.info is None:
        call = access.instr
        return summaries.call_mod(call) if want_mod else summaries.call_ref(call)
    return access.info.possible_bases()


class _Access:
    """One WAR endpoint, where it sits, and what it touches: the access
    size and the pointer's :class:`~repro.analysis.alias.PointerInfo`
    (both ``None`` for a transparent call, which stands for its
    callee's ref/mod sets)."""

    __slots__ = ("instr", "block", "index", "size", "info")

    def __init__(self, instr, block, index: int, aa: AliasAnalysis):
        self.instr = instr
        self.block = block
        self.index = index
        if isinstance(instr, Call):
            self.size = self.info = None
        else:
            self.size = access_size(instr)
            self.info = aa.classify(instr.pointer)


class WARIndex:
    """The memory accesses of one function, indexed by position for WAR
    discovery.

    Each endpoint's record (:class:`_Access`: block, index, access size
    and pointer classification) and each block's barrier positions are
    computed once, so classifying a pair recomputes neither endpoint;
    the stores are also kept grouped by block, sorted by index, so
    :meth:`frontier` can skip dominated stores by bisection instead of
    classifying them.  Every query walks accesses in program order —
    blocks in layout order, then instruction index — and never in id or
    set order, so results are reproducible.

    ``calls_are_checkpoints`` models the forced checkpoints at function
    entry/exit: a call on every path between the read and the write of a
    WAR already breaks it (paper §3.1.2, PDG Checkpoint Inserter).
    Checkpoint instructions already present in the IR likewise resolve.

    ``summaries`` (a :class:`~repro.analysis.summaries.SummaryTable`)
    relaxes the call model: calls to transparent callees are not
    barriers but contribute their ref/mod sets as read/write endpoints.
    """

    def __init__(
        self,
        function,
        aa: AliasAnalysis,
        loop_info: LoopInfo,
        calls_are_checkpoints: bool = True,
        summaries=None,
    ):
        self.aa = aa
        self.loop_info = loop_info
        self.summaries = summaries
        self.loads: List[_Access] = []
        self.stores: List[_Access] = []
        self.barriers: Dict[int, List[int]] = {}
        #: ``(block, store indices, stores)`` per block with stores
        self.store_blocks: List[Tuple[object, List[int], List[_Access]]] = []
        for block in function.blocks:
            barriers: List[int] = []
            stores: List[_Access] = []
            for idx, instr in enumerate(block.instructions):
                if isinstance(instr, Load):
                    self.loads.append(_Access(instr, block, idx, aa))
                elif isinstance(instr, Store):
                    stores.append(_Access(instr, block, idx, aa))
                elif (
                    isinstance(instr, Call)
                    and calls_are_checkpoints
                    and summaries is not None
                    and summaries.is_transparent_call(instr)
                ):
                    # A region may span this call: the callee's reads and
                    # writes happen inside the caller's open region.
                    access = _Access(instr, block, idx, aa)
                    self.loads.append(access)
                    stores.append(access)
                if is_barrier(instr, calls_are_checkpoints, summaries):
                    barriers.append(idx)
            self.barriers[id(block)] = barriers
            if stores:
                self.stores.extend(stores)
                self.store_blocks.append(
                    (block, [store.index for store in stores], stores))
        self.reach = reachability(function.blocks, ir_successors)
        self._common: Dict[Tuple[int, int], Optional[Loop]] = {}

    def _war(self, load: _Access, store: _Access) -> Optional[WARViolation]:
        """The unresolved WAR of one (load, store) pair, if any."""
        lblock, sblock = load.block, store.block
        pair_key = (id(lblock), id(sblock))
        if pair_key in self._common:
            common = self._common[pair_key]
        else:
            common = self.loop_info.common_loop(lblock, sblock)
            self._common[pair_key] = common
        war = _classify_pair(
            load, store, self.aa, common, self.reach, self.summaries
        )
        if war is None or _resolved_by_barrier_index(
            war, lblock, load.index, sblock, store.index, self.barriers
        ):
            return None
        return war

    def wars(self, blocks=None) -> Iterator[WARViolation]:
        """Every unresolved WAR, loads in program order and each load's
        stores in program order — the order of an all-pairs scan.

        ``blocks`` restricts both endpoints to those blocks.
        """
        loads, stores = self.loads, self.stores
        if blocks is not None:
            inside = {id(b) for b in blocks}
            loads = [a for a in loads if id(a.block) in inside]
            stores = [a for a in stores if id(a.block) in inside]
        for load in loads:
            for store in stores:
                war = self._war(load, store)
                if war is not None:
                    yield war

    def frontier(self) -> List[Tuple[WARViolation, int, int]]:
        """The Pareto frontier of :meth:`wars`: ``(war, load index,
        store index)`` for the WARs whose candidate positions are not a
        superset of another WAR's.

        For two WARs with the same (load block, store block, kind), the
        candidate positions are purely positional: a later load and an
        earlier store yield a *subset* candidate set, so hitting it also
        hits the other pair.  Keeping only the frontier (maximal load
        index, minimal store index) collapses the quadratic pair blow-up
        of unrolled loops without changing the chosen checkpoints.

        Each load block's loads are visited by descending index; per
        (store block, kind) group, the stores at or after the best store
        index kept so far are skipped before they are classified, and the
        first unresolved WAR below it is kept.  The kind of a pair is
        positional: in one block, ``forward`` exactly when the store
        follows the load; across blocks, ``forward`` exactly when the
        store's block is reachable from the load's.
        """
        loads_by_block: Dict[int, List[_Access]] = {}
        for load in self.loads:
            loads_by_block.setdefault(id(load.block), []).append(load)
        kept: List[Tuple[WARViolation, int, int]] = []
        for loads in loads_by_block.values():
            lblock = loads[0].block
            reach = self.reach[id(lblock)]
            best: Dict[Tuple[int, str], int] = {}
            for load in reversed(loads):
                for sblock, indices, stores in self.store_blocks:
                    if sblock is lblock:
                        split = bisect.bisect_right(indices, load.index)
                        groups = ((BACKWARD, 0, split),
                                  (FORWARD, split, len(stores)))
                    else:
                        kind = FORWARD if id(sblock) in reach else BACKWARD
                        groups = ((kind, 0, len(stores)),)
                    for kind, lo, hi in groups:
                        group = (id(sblock), kind)
                        bound = best.get(group)
                        if bound is not None:
                            hi = bisect.bisect_left(indices, bound, lo, hi)
                        for store in stores[lo:hi]:
                            war = self._war(load, store)
                            if war is not None:
                                best[group] = store.index
                                kept.append((war, load.index, store.index))
                                break
        return kept


def find_wars(
    function,
    aa: AliasAnalysis,
    loop_info: LoopInfo,
    calls_are_checkpoints: bool = True,
    summaries=None,
) -> List[WARViolation]:
    """All unresolved WAR violations of ``function`` (see
    :class:`WARIndex` for the call model), in :meth:`WARIndex.wars`
    order."""
    return list(
        WARIndex(function, aa, loop_info, calls_are_checkpoints, summaries).wars()
    )


def _resolved_by_barrier_index(
    war: WARViolation, lblock, lidx, sblock, sidx, barrier_index
) -> bool:
    """True if a forced checkpoint lies on *every* load->store path.

    We only prove this for segments guaranteed to be on every path: the
    remainder of the load's block, and the prefix of the store's block,
    over the sorted per-block barrier positions.
    """
    lbars = barrier_index[id(lblock)]
    sbars = barrier_index[id(sblock)]
    if lblock is sblock:
        if war.kind == FORWARD:
            pos = bisect.bisect_right(lbars, lidx)
            return pos < len(lbars) and lbars[pos] < sidx
        # wrap path: any barrier after the load or before the store
        return bool(lbars) and (lbars[-1] > lidx or lbars[0] < sidx)
    after_load = bool(lbars) and lbars[-1] > lidx
    before_store = bool(sbars) and sbars[0] < sidx
    return after_load or before_store


def _classify_pair(
    load: _Access,
    store: _Access,
    aa: AliasAnalysis,
    common: Optional[Loop],
    reach,
    summaries=None,
) -> Optional[WARViolation]:
    if load.info is None or store.info is None:
        # Object-granular: the callee may touch any part of its summary
        # objects in any iteration, so the same test serves both the
        # same-iteration and the cross-iteration query.
        overlap = summary_sets_intersect(
            _endpoint_objects(load, summaries, want_mod=False),
            _endpoint_objects(store, summaries, want_mod=True),
        )
        same_iter_alias = cross_alias = overlap
    else:
        same_iter_alias = aa.may_alias_info(
            load.info, load.size, store.info, store.size
        )
        cross_alias = (
            common is not None
            and aa.may_alias_cross_iteration_info(
                load.info, load.size, store.info, store.size, common
            )
        )
    if common is None:
        cross_alias = False
    lblock, sblock = load.block, store.block
    if lblock is sblock:
        if store.index > load.index:
            if same_iter_alias or cross_alias:
                return WARViolation(load.instr, store.instr, FORWARD)
            return None
        # Store textually at/before the load (or the same transparent
        # call, reading and writing once per execution): only reachable
        # around a cycle.
        if common is None or not cross_alias:
            return None
        return WARViolation(load.instr, store.instr, BACKWARD)
    if id(sblock) in reach[id(lblock)]:
        if same_iter_alias or cross_alias:
            return WARViolation(load.instr, store.instr, FORWARD)
        return None
    if common is not None and cross_alias:
        # Same loop, store does not follow the load within an iteration:
        # the path wraps the back edge.
        return WARViolation(load.instr, store.instr, BACKWARD)
    return None


def is_barrier(instr, calls_are_checkpoints: bool, summaries=None) -> bool:
    """Does ``instr`` end an idempotent region: a checkpoint, or a call
    when calls are checkpoints and ``summaries`` do not prove the callee
    transparent?"""
    if isinstance(instr, Checkpoint):
        return True
    if not calls_are_checkpoints or not isinstance(instr, Call):
        return False
    if summaries is not None and summaries.is_transparent_call(instr):
        return False
    return True
