"""Greedy minimum hitting set for checkpoint placement.

Both the middle-end PDG Checkpoint Inserter and the back-end Hitting Set
Stack Spill Checkpoint Inserter (paper §3.1.2/§3.1.3, after de Kruijf et
al. [11, §4.2.1]) reduce checkpoint placement to: every WAR violation
contributes a *set of candidate locations* that would break it; choose a
minimum-cost set of locations hitting every WAR's set.

A candidate set may name its locations one by one or as :class:`Span`
runs of consecutive positions of one block.  Runs are never expanded
per requirement: each block is cut at the run endpoints, and every
segment between two cuts belongs to exactly the same requirements, so
the greedy counts coverage per segment.
"""

from __future__ import annotations

import bisect
import heapq
from typing import (
    Callable, Dict, Hashable, Iterable, List, NamedTuple, Sequence, Set, Tuple,
)


class Span(NamedTuple):
    """The positions ``(block, lo)`` .. ``(block, hi)``, inclusive (none
    when ``lo > hi``)."""

    block: Hashable
    lo: int
    hi: int


class _Segment:
    """Positions ``lo`` .. ``hi`` of a block between two cuts: a coverage
    class that never equals a location."""

    __slots__ = ("block", "lo", "hi")

    def __init__(self, block: Hashable, lo: int, hi: int):
        self.block = block
        self.lo = lo
        self.hi = hi


def greedy_hitting_set(
    requirements: Sequence[Iterable[Hashable]],
    cost: Callable[[Hashable], float] = lambda _key: 1.0,
) -> List[Hashable]:
    """Pick locations hitting every requirement set, greedily by
    covered-per-cost.

    Each entry of ``requirements`` is the candidate-location set of one
    WAR violation, given as locations and/or :class:`Span` runs; the
    returned list of locations hits every non-empty set.  A ``(block,
    int)`` location and a run over that block name the same position.
    Empty candidate sets are a caller bug and raise ``ValueError``
    (every WAR always admits at least the position just before its
    write).

    Each step picks the location with the highest (coverage / cost,
    :func:`_stable` key).  All positions of one segment share their
    coverage at every step, so among those of equal cost only the last
    one can win the tie-break; the greedy keeps that one per segment and
    cost.  Its heap holds each candidate's ratio from when it was last
    pushed, an upper bound since coverage only falls: a popped entry
    whose ratio is still current is the true maximum.
    """
    entries = []
    cuts: Dict[Hashable, Set[int]] = {}
    for req in requirements:
        keys = set(req)
        spans = [item for item in keys if isinstance(item, Span)]
        if spans:
            keys.difference_update(spans)
            spans = [span for span in spans if span.lo <= span.hi]
            for span in spans:
                cuts.setdefault(span.block, set()).update((span.lo, span.hi + 1))
        if not spans and not keys:
            raise ValueError("a WAR violation has no candidate locations")
        entries.append((spans, keys))

    if cuts:
        # A location inside a spanned block joins the cuts as a
        # one-position run, so it shares its segment's coverage.
        for spans, keys in entries:
            inside = [
                key for key in keys
                if type(key) is tuple and len(key) == 2
                and type(key[1]) is int and key[0] in cuts
            ]
            for block, j in inside:
                keys.discard((block, j))
                spans.append(Span(block, j, j))
                cuts[block].update((j, j + 1))

    # Coverage classes: the segments between consecutive cuts of a
    # spanned block, and every other location on its own.
    segments: Dict[Hashable, Tuple[List[int], List[_Segment]]] = {}
    for block, points in cuts.items():
        ordered = sorted(points)
        segments[block] = (ordered, [
            _Segment(block, lo, hi - 1) for lo, hi in zip(ordered, ordered[1:])
        ])
    req_classes: List[Set[Hashable]] = []
    for spans, classes in entries:
        for span in spans:
            ordered, segs = segments[span.block]
            classes.update(segs[bisect.bisect_left(ordered, span.lo):
                                bisect.bisect_left(ordered, span.hi + 1)])
        req_classes.append(classes)

    coverage: Dict[Hashable, int] = {}
    members: Dict[Hashable, List[int]] = {}
    for idx, classes in enumerate(req_classes):
        for cls in classes:
            coverage[cls] = coverage.get(cls, 0) + 1
            members.setdefault(cls, []).append(idx)

    # Candidates: per segment, the last position of each distinct cost.
    candidates = []
    for cls in coverage:
        if isinstance(cls, _Segment):
            seen: Set[float] = set()
            for j in range(cls.hi, cls.lo - 1, -1):
                key = (cls.block, j)
                inv = 1.0 / max(cost(key), 1e-9)
                if inv not in seen:
                    seen.add(inv)
                    candidates.append((key, inv, cls))
        else:
            candidates.append((cls, 1.0 / max(cost(cls), 1e-9), cls))
    rank = {
        ci: r for r, ci in enumerate(sorted(
            range(len(candidates)), key=lambda ci: _stable(candidates[ci][0])
        ))
    }
    heap = [
        (-(coverage[cls] * inv), -rank[ci], ci)
        for ci, (_key, inv, cls) in enumerate(candidates)
    ]
    heapq.heapify(heap)

    alive = [True] * len(req_classes)
    alive_count = len(req_classes)
    chosen: List[Hashable] = []
    while alive_count:
        neg_ratio, neg_rank, ci = heapq.heappop(heap)
        key, inv, cls = candidates[ci]
        count = coverage[cls]
        if count <= 0:
            continue
        ratio = count * inv
        if ratio != -neg_ratio:
            heapq.heappush(heap, (-ratio, neg_rank, ci))
            continue
        chosen.append(key)
        for idx in members[cls]:
            if not alive[idx]:
                continue
            alive[idx] = False
            alive_count -= 1
            for other in req_classes[idx]:
                coverage[other] -= 1
    return chosen


def _stable(key: Hashable):
    """A deterministic tiebreak ordering for candidate keys."""
    try:
        return tuple(
            part if isinstance(part, (int, str, float)) else str(part)
            for part in key
        )
    except TypeError:
        return (str(key),)
