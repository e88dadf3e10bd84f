"""The PDG Checkpoint Inserter (paper §3.1.2).

For every remaining WAR violation, compute the set of positions that
break it (a checkpoint anywhere strictly after the read and before the
write, on every read->write path), weight positions by loop depth, and
run the greedy minimum hitting set.  Because the Write Clusterer passes
have moved WAR writes next to each other, overlapping candidate sets let
one checkpoint resolve many WARs — the mechanism behind WARio's
checkpoint reduction.

Positions are keyed by (block name, index) so placement is fully
deterministic; among equal-coverage-per-cost candidates the position
directly before a WAR write wins (Ratchet's natural location, usually
the most rarely executed choice when the write is guarded).

Only the WARs on :meth:`~repro.analysis.memdep.WARIndex.frontier` get a
requirement (a dominated WAR's candidate set contains another's), and
each requirement is a handful of :class:`~repro.core.hitting_set.Span`
runs rather than an expanded position list.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..analysis import AliasAnalysis, WARIndex, WARViolation, loop_info
from ..analysis.cfg import ir_successors
from ..analysis.dominators import blocks_on_every_path
from ..analysis.memdep import FORWARD
from ..ir.instructions import CKPT_MIDDLE_END, Checkpoint
from .hitting_set import Span, greedy_hitting_set


def insert_checkpoints(module, alias_mode: str = "precise", summaries=None,
                       points_to=None) -> int:
    """Break every WAR violation in every function; returns the number of
    checkpoints inserted.

    With ``summaries`` (a :class:`~repro.analysis.summaries.SummaryTable`)
    the relaxed call model applies: transparent callees are not barriers,
    and their ref/mod sets participate as WAR endpoints, so a checkpoint
    in the caller can break a WAR that spans the call.

    ``points_to`` is an optional precomputed whole-program points-to map:
    a caller that already solved Andersen's analysis (the pipeline shares
    one solve between this pass and the elision pass) threads it through
    instead of paying a duplicate whole-program solve here.
    """
    if points_to is None:
        from ..analysis.pointsto import module_points_to

        points_to = module_points_to(module, summaries)
    total = 0
    for function in module.defined_functions():
        total += insert_function_checkpoints(
            function, alias_mode, points_to, summaries
        )
    return total


def insert_function_checkpoints(
    function, alias_mode: str = "precise", points_to=None, summaries=None
) -> int:
    aa = AliasAnalysis(function, alias_mode, points_to=points_to)
    li = loop_info(function)
    frontier = WARIndex(
        function, aa, li, calls_are_checkpoints=True, summaries=summaries
    ).frontier()
    if not frontier:
        return 0
    path_cache: Dict = {}
    requirements = []
    # Prefer the position directly before each WAR write on ties.
    preferred: Set[Tuple[str, int]] = set()
    for war, lidx, sidx in frontier:
        requirements.append(
            _candidate_spans(war, lidx, sidx, path_cache))
        preferred.add((war.store.parent.name, sidx))

    blocks_by_name = {b.name: b for b in function.blocks}
    depth_cache: Dict[str, int] = {}

    def cost(key) -> float:
        block_name, _idx = key
        if block_name not in depth_cache:
            depth_cache[block_name] = li.depth_of(blocks_by_name[block_name])
        base = float(10 ** depth_cache[block_name])
        return base * (0.999 if key in preferred else 1.0)

    chosen = greedy_hitting_set(requirements, cost)
    _insert_at(function, chosen, blocks_by_name)
    return len(chosen)


def war_candidate_positions(
    war: WARViolation, articulation_cache=None
) -> List[Tuple[str, int]]:
    """Candidate checkpoint positions for one WAR violation.

    A position ``(block name, j)`` means "insert before instruction j of
    that block".  Valid positions must lie on *every* read->write path:

    * same-block forward WAR: the gaps strictly after the load, up to and
      including just before the store;
    * otherwise: the positions after the load in the load's block (every
      path from the load crosses them), the positions up to the store in
      the store's block (every path into the store crosses them), and all
      positions of any *articulation* block that every load->store path
      traverses — crucial for clustered writes in unrolled loop chains,
      where the single cluster point must cover WARs whose endpoints sit
      in other replicas.

    ``articulation_cache`` is the per-function memo of
    :func:`~repro.analysis.dominators.blocks_on_every_path`.  The
    inserter itself works on the same positions as inclusive
    :class:`~repro.core.hitting_set.Span` runs
    (:func:`_candidate_spans`); this lists them one by one.
    """
    lidx = war.load.parent.index_of(war.load)
    sidx = war.store.parent.index_of(war.store)
    spans = _candidate_spans(war, lidx, sidx, articulation_cache)
    return [
        (span.block, j) for span in spans for j in range(span.lo, span.hi + 1)
    ]


def _candidate_spans(
    war: WARViolation, lidx: int, sidx: int, path_cache=None
) -> List[Span]:
    """:func:`war_candidate_positions` as inclusive runs, for a WAR whose
    load and store sit at ``lidx`` and ``sidx`` of their blocks (a run
    may be empty, ``lo > hi``)."""
    lblock, sblock = war.load.parent, war.store.parent
    if lblock is sblock and war.kind == FORWARD:
        return [Span(lblock.name, lidx + 1, sidx)]
    # Suffix of the load's block (never beyond the terminator), then the
    # prefix of the store's block, after any phis, up to the store —
    # excluding positions after the load when it shares the block
    # (backward same-block WARs have sidx <= lidx, so this is safe).
    spans = [
        Span(lblock.name, lidx + 1, _last_insertion_index(lblock)),
        Span(sblock.name, sblock.first_insertion_index(),
             min(sidx, lidx) if sblock is lblock else sidx),
    ]
    for block in blocks_on_every_path(lblock, sblock, ir_successors,
                                      path_cache):
        spans.append(Span(block.name, block.first_insertion_index(),
                          _last_insertion_index(block)))
    return spans


def _last_insertion_index(block) -> int:
    last = len(block.instructions)
    if block.terminator is not None:
        last -= 1
    return last


def _insert_at(function, chosen, blocks_by_name) -> None:
    by_block: Dict[str, List[int]] = {}
    for block_name, idx in chosen:
        by_block.setdefault(block_name, []).append(idx)
    for block_name, indices in by_block.items():
        block = blocks_by_name[block_name]
        for idx in sorted(indices, reverse=True):
            block.insert(idx, Checkpoint(CKPT_MIDDLE_END))
