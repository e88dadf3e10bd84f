"""Back-end WAR protection for register-spill stack slots.

After register allocation (with dedicated slots per spilled value), a WAR
on a slot can only arise when a slot's reload (read) is followed — within
an iteration or around a loop back edge — by the slot's store (write).

Two inserters are provided (paper §3.1.3):

* ``basic`` — Ratchet's scheme: a checkpoint immediately before every
  offending spill store.
* ``hitting-set`` — WARio's Hitting Set Stack Spill Checkpoint Inserter:
  candidate positions per WAR plus the greedy minimum hitting set, so one
  checkpoint covers the spill WARs that write clustering concentrated.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.cfg import reachability
from ..analysis.dominators import blocks_on_every_path
from ..ir.instructions import CKPT_BACKEND
from .mir import MBlock, MFunction, MInstr, StackSlot

MODES = ("basic", "hitting-set")


@dataclass
class SlotAccess:
    block: MBlock
    index: int
    instr: MInstr
    slot: StackSlot
    is_load: bool


def _slot_accesses(fn: MFunction) -> List[SlotAccess]:
    out: List[SlotAccess] = []
    for block in fn.blocks:
        for idx, instr in enumerate(block.instructions):
            if instr.opcode.startswith("ldr"):
                base = instr.ops[0]
                if isinstance(base, StackSlot):
                    out.append(SlotAccess(block, idx, instr, base, True))
            elif instr.opcode.startswith("str"):
                base = instr.ops[1]
                if isinstance(base, StackSlot):
                    out.append(SlotAccess(block, idx, instr, base, False))
    return out


def _is_barrier(
    instr: MInstr, calls_are_checkpoints: bool, barrier_callees=None
) -> bool:
    if instr.opcode == "checkpoint":
        return True
    if not calls_are_checkpoints or instr.opcode != "bl":
        return False
    if barrier_callees is not None and instr.ops[0] not in barrier_callees:
        # Transparent callee: runs without checkpointing, so the call is
        # not a barrier for the caller's spill slots (it cannot touch
        # them either — they live below the caller's frame pointer).
        return False
    return True


@dataclass
class SpillWAR:
    load: SlotAccess
    store: SlotAccess
    kind: str  # 'forward' | 'backward'


def find_spill_wars(
    fn: MFunction,
    calls_are_checkpoints: bool = True,
    barrier_callees: Optional[Set[str]] = None,
) -> List[SpillWAR]:
    """The unresolved spill WARs of ``fn``, pruned to the Pareto frontier
    (dominated pairs are implied by the kept ones, for both detection and
    placement).

    A WAR counts as resolved when an existing barrier (checkpoint, or a
    call when entry checkpoints are in force) occupies one of its
    candidate positions — i.e. it lies on every load->store path.
    ``barrier_callees`` restricts which calls count: only ``bl`` to a
    name in the set is a barrier (calls to transparent callees do not
    checkpoint).
    """
    return _spill_wars(fn, reachability(fn.blocks, MBlock.successors), {},
                       calls_are_checkpoints, barrier_callees)


def _spill_wars(fn: MFunction, reach, path_cache, calls_are_checkpoints: bool,
                barrier_callees: Optional[Set[str]]) -> List[SpillWAR]:
    """:func:`find_spill_wars` given the :func:`~repro.analysis.cfg.
    reachability` closure of ``fn``'s blocks and a path memo for them
    (:func:`~repro.analysis.dominators.blocks_on_every_path`)."""
    accesses = _slot_accesses(fn)
    by_slot: Dict[int, Tuple[List[SlotAccess], List[SlotAccess]]] = {}
    for access in accesses:
        loads, stores = by_slot.setdefault(id(access.slot), ([], []))
        (loads if access.is_load else stores).append(access)
    pairs: List[SpillWAR] = []
    for loads, stores in by_slot.values():
        for load in loads:
            for store in stores:
                war = _classify(load, store, reach)
                if war is not None:
                    pairs.append(war)
    pairs = _prune_dominated(pairs)
    barriers = {
        block.name: [
            idx for idx, instr in enumerate(block.instructions)
            if _is_barrier(instr, calls_are_checkpoints, barrier_callees)
        ]
        for block in fn.blocks
    }
    return [
        war for war in pairs
        if not any(_holds_barrier(barriers[span.block], span)
                   for span in _candidates(war, path_cache))
    ]


def _holds_barrier(barriers: List[int], span) -> bool:
    """Does the run ``span`` contain one of the sorted ``barriers``?"""
    pos = bisect.bisect_left(barriers, span.lo)
    return pos < len(barriers) and barriers[pos] <= span.hi


def _classify(load: SlotAccess, store: SlotAccess, reach) -> Optional[SpillWAR]:
    if load.block is store.block:
        if store.index > load.index:
            return SpillWAR(load, store, "forward")
        if id(load.block) in reach[id(load.block)]:  # block is in a cycle
            return SpillWAR(load, store, "backward")
        return None
    if id(store.block) in reach[id(load.block)]:
        return SpillWAR(load, store, "forward")
    return None


def _prune_dominated(wars: List[SpillWAR]) -> List[SpillWAR]:
    """Keep only the Pareto frontier per (load block, store block, kind):
    a later load with an earlier store yields a subset candidate set, so
    hitting it hits the dominated pairs too."""
    groups: Dict[Tuple[int, int, str], List[SpillWAR]] = {}
    for war in wars:
        key = (id(war.load.block), id(war.store.block), war.kind)
        groups.setdefault(key, []).append(war)
    kept: List[SpillWAR] = []
    for group in groups.values():
        if len(group) == 1:
            kept.extend(group)
            continue
        indexed = sorted(
            ((w.load.index, w.store.index, w) for w in group),
            key=lambda t: (-t[0], t[1]),
        )
        best_sidx = None
        for _lidx, sidx, war in indexed:
            if best_sidx is None or sidx < best_sidx:
                kept.append(war)
                best_sidx = sidx
    return kept


def _candidates(war: SpillWAR, path_cache=None) -> List:
    """The positions that break ``war`` as inclusive
    :class:`~repro.core.hitting_set.Span` runs (a run may be empty):
    after the load in its block, up to the store in its block, and all
    of each block that every load->store path crosses."""
    # Local import: repro.core imports the backend for its pipeline.
    from ..core.hitting_set import Span

    load, store = war.load, war.store
    if load.block is store.block and war.kind == "forward":
        return [Span(load.block.name, load.index + 1, store.index)]
    spans = [
        Span(load.block.name, load.index + 1, _insertable_end(load.block)),
        Span(store.block.name, 0,
             min(store.index, load.index) if store.block is load.block
             else store.index),
    ]
    for block in blocks_on_every_path(load.block, store.block,
                                      MBlock.successors, path_cache):
        spans.append(Span(block.name, 0, _insertable_end(block)))
    return spans


def _insertable_end(block: MBlock) -> int:
    """Last index at which a checkpoint can be inserted (before the
    trailing branch group)."""
    last = len(block.instructions)
    while last > 0 and block.instructions[last - 1].opcode in ("b", "bcc", "bx_lr"):
        last -= 1
    return last


def insert_spill_checkpoints(
    fn: MFunction,
    mode: str = "hitting-set",
    calls_are_checkpoints: bool = True,
    barrier_callees: Optional[Set[str]] = None,
) -> int:
    """Break all spill-slot WARs of ``fn``; returns checkpoints added."""
    if mode not in MODES:
        raise ValueError(f"unknown spill checkpoint mode {mode!r}")
    reach = reachability(fn.blocks, MBlock.successors)
    path_cache: Dict = {}
    wars = _spill_wars(fn, reach, path_cache, calls_are_checkpoints,
                       barrier_callees)
    if not wars:
        return 0
    if mode == "basic":
        # Ratchet: checkpoint immediately before each offending store.
        chosen: List[Tuple[str, int]] = []
        seen: Set[Tuple[str, int]] = set()
        for war in wars:
            key = (war.store.block.name, war.store.index)
            if key not in seen:
                seen.add(key)
                chosen.append(key)
    else:
        # Local import: repro.core imports the backend for its pipeline.
        from ..core.hitting_set import greedy_hitting_set

        in_cycle = {b.name: id(b) in reach[id(b)] for b in fn.blocks}
        preferred = {(war.store.block.name, war.store.index) for war in wars}
        requirements = [_candidates(war, path_cache) for war in wars]

        def cost(key) -> float:
            base = 10.0 if in_cycle[key[0]] else 1.0
            return base * (0.999 if key in preferred else 1.0)

        chosen = greedy_hitting_set(requirements, cost)
    by_block: Dict[str, List[int]] = {}
    for name, idx in chosen:
        by_block.setdefault(name, []).append(idx)
    for name, indices in by_block.items():
        block = fn.block(name)
        for idx in sorted(indices, reverse=True):
            block.insert(idx, MInstr("checkpoint", cause=CKPT_BACKEND))
    return len(chosen)
