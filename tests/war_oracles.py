"""Reference oracles for WAR discovery and the greedy hitting set.

These are the straightforward algorithms the indexed engine
(:class:`repro.analysis.memdep.WARIndex`) and the range-compressed lazy
greedy (:func:`repro.core.hitting_set.greedy_hitting_set`) replaced:
classify every load against every store, prune dominated WARs
afterwards, and rescan every candidate location for each greedy pick.
The exactness tests hold the product code equal to them.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from repro.analysis.cfg import reachability
from repro.analysis.memdep import (
    WARViolation,
    _Access,
    _classify_pair,
    _resolved_by_barrier_index,
    is_barrier,
)
from repro.core.hitting_set import _stable
from repro.ir.instructions import Call, Load, Store


def scan_wars(function, aa, loop_info, calls_are_checkpoints=True,
              summaries=None) -> List[WARViolation]:
    """Every unresolved WAR by classifying all (load, store) pairs,
    loads in program order, then stores in program order."""
    loads, stores = [], []
    positions: Dict[int, Tuple[object, int]] = {}
    barrier_index: Dict[int, List[int]] = {}
    for block in function.blocks:
        barriers = []
        for idx, instr in enumerate(block.instructions):
            positions[id(instr)] = (block, idx)
            if isinstance(instr, Load):
                loads.append(instr)
            elif isinstance(instr, Store):
                stores.append(instr)
            elif (isinstance(instr, Call) and calls_are_checkpoints
                  and summaries is not None
                  and summaries.is_transparent_call(instr)):
                loads.append(instr)
                stores.append(instr)
            if is_barrier(instr, calls_are_checkpoints, summaries):
                barriers.append(idx)
        barrier_index[id(block)] = barriers
    reach = reachability(function.blocks, lambda block: block.successors)
    wars = []
    for load in loads:
        lblock, lidx = positions[id(load)]
        for store in stores:
            sblock, sidx = positions[id(store)]
            war = _classify_pair(
                _Access(load, lblock, lidx, aa),
                _Access(store, sblock, sidx, aa),
                aa, loop_info.common_loop(lblock, sblock), reach, summaries,
            )
            if war is not None and not _resolved_by_barrier_index(
                    war, lblock, lidx, sblock, sidx, barrier_index):
                wars.append(war)
    return wars


def prune_dominated(wars: List[WARViolation]) -> List[WARViolation]:
    """The Pareto frontier per (load block, store block, kind): sort by
    load index descending, keep each WAR whose store index is a new
    minimum."""
    groups: Dict[Tuple[int, int, str], List[WARViolation]] = {}
    for war in wars:
        key = (id(war.load.parent), id(war.store.parent), war.kind)
        groups.setdefault(key, []).append(war)
    kept = []
    for group in groups.values():
        indexed = sorted(
            ((w.load.parent.index_of(w.load), w.store.parent.index_of(w.store),
              w) for w in group),
            key=lambda t: (-t[0], t[1]),
        )
        best = None
        for _lidx, sidx, war in indexed:
            if best is None or sidx < best:
                kept.append(war)
                best = sidx
    return kept


def scan_greedy(requirements, cost=lambda _key: 1.0) -> List[Hashable]:
    """The greedy hitting set over expanded location sets, rescanning
    every location for the best coverage-per-cost at each step."""
    reqs: List[Set[Hashable]] = []
    for req in requirements:
        if not req:
            raise ValueError("a WAR violation has no candidate locations")
        reqs.append(set(req))
    coverage: Dict[Hashable, int] = {}
    members: Dict[Hashable, List[int]] = {}
    for idx, req in enumerate(reqs):
        for key in req:
            coverage[key] = coverage.get(key, 0) + 1
            members.setdefault(key, []).append(idx)
    inv_cost = {key: 1.0 / max(cost(key), 1e-9) for key in coverage}
    alive = [True] * len(reqs)
    chosen = []
    while any(alive):
        best, best_ratio = None, -1.0
        for key, count in coverage.items():
            if count <= 0:
                continue
            ratio = count * inv_cost[key]
            if ratio > best_ratio or (
                    ratio == best_ratio and _stable(key) > _stable(best)):
                best, best_ratio = key, ratio
        chosen.append(best)
        for idx in members[best]:
            if alive[idx]:
                alive[idx] = False
                for key in reqs[idx]:
                    coverage[key] -= 1
    return chosen
