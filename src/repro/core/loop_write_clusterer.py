"""The Loop Write Clusterer (paper §3.1.2, Algorithm 1, Figure 3).

Candidate loops (single-block, >= 1 WAR violation, no calls, insertion
point post-dominating the relocated stores) are unrolled N times; the WAR
stores of all replicas are postponed to the end of the unrolled body;
early exits receive writeback copies of the stores that preceded them;
and reads that may depend on a postponed store are rewritten into a
compare/select chain picking the register value when the addresses
collide.  The result: one checkpoint per N iterations instead of one per
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..analysis import AliasAnalysis, WARIndex, loop_info
from ..analysis.memdep import access_size
from ..ir.block import split_edge
from ..ir.instructions import Call, Checkpoint, ICmp, Load, Select, Store
from ..ir.verifier import verify_function
from ..transforms.unroll import UnrolledLoop, can_unroll, unroll_single_block_loop

DEFAULT_UNROLL_FACTOR = 8


@dataclass
class ClusterReport:
    """What the pass did, for tests and the evaluation harness."""

    loops_considered: int = 0
    loops_transformed: int = 0
    stores_postponed: int = 0
    reads_instrumented: int = 0
    early_exit_writebacks: int = 0


def cluster_loop_writes(
    module,
    unroll_factor: int = DEFAULT_UNROLL_FACTOR,
    alias_mode: str = "precise",
    verify: bool = True,
) -> ClusterReport:
    """Run the Loop Write Clusterer over every function of ``module``."""
    from ..analysis.pointsto import compute_points_to

    report = ClusterReport()
    if unroll_factor < 2:
        return report
    points_to = compute_points_to(module)
    for function in module.defined_functions():
        _run_on_function(function, unroll_factor, alias_mode, report, verify, points_to)
    return report


def _run_on_function(function, factor, alias_mode, report, verify, points_to=None) -> None:
    processed: Set[int] = set()
    while True:
        aa = AliasAnalysis(function, alias_mode, points_to=points_to)
        li = loop_info(function)
        candidate = None
        for loop in sorted(li.loops, key=lambda l: -l.depth):
            if id(loop.header) in processed:
                continue
            report.loops_considered += 1
            processed.add(id(loop.header))
            if is_candidate(loop, aa):
                candidate = loop
                break
        if candidate is None:
            return
        unrolled = unroll_single_block_loop(candidate, factor)
        _transform(function, unrolled, alias_mode, report, points_to)
        if verify:
            verify_function(function)
        report.loops_transformed += 1


def is_candidate(loop, aa: AliasAnalysis) -> bool:
    """Algorithm 1, IsCandidate: unrollable shape, has a WAR, no calls,
    and the insertion point post-dominates the stores (trivially true for
    the single-block form, whose only exit is the terminator)."""
    if not can_unroll(loop):
        return False
    if any(isinstance(i, (Call, Checkpoint)) for i in loop.header.instructions):
        return False
    return _block_has_war(loop, aa)


def _block_has_war(loop, aa: AliasAnalysis) -> bool:
    block = loop.header
    accesses = [i for i in block.instructions if isinstance(i, (Load, Store))]
    for i, first in enumerate(accesses):
        for second in accesses[i:]:
            if isinstance(first, Load) and isinstance(second, Store):
                # same-iteration WAR, or the load of a later iteration
                # re-reading what an earlier iteration's store wrote
                load, store = first, second
                if aa.may_alias(
                    load.pointer, access_size(load), store.pointer, access_size(store)
                ) or aa.may_alias_cross_iteration(
                    load.pointer, access_size(load),
                    store.pointer, access_size(store), loop,
                ):
                    return True
            if isinstance(first, Store) and isinstance(second, Load):
                # backward WAR across the back edge
                if aa.may_alias_cross_iteration(
                    second.pointer, access_size(second),
                    first.pointer, access_size(first), loop,
                ):
                    return True
    return False


def _transform(function, unrolled: UnrolledLoop, alias_mode: str, report: ClusterReport, points_to=None) -> None:
    aa = AliasAnalysis(function, alias_mode, points_to=points_to)
    li = loop_info(function)
    chain = unrolled.chain
    chain_ids = {id(b) for b in chain}

    # The new (unrolled) loop object, for cross-iteration alias queries.
    new_loop = None
    for loop in li.loops:
        if loop.header is unrolled.header:
            new_loop = loop
            break

    # 1. WAR stores of the unrolled body.
    war_store_ids: Set[int] = {
        id(war.store)
        for war in WARIndex(function, aa, li, calls_are_checkpoints=True).wars(
            blocks=chain)
    }

    ordered: List[Tuple[object, object]] = []  # (block, instr) in chain order
    for block in chain:
        for instr in block.instructions:
            ordered.append((block, instr))
    position = {id(instr): i for i, (_, instr) in enumerate(ordered)}

    candidates = [
        instr
        for _, instr in ordered
        if isinstance(instr, Store) and id(instr) in war_store_ids
    ]
    if not candidates:
        return

    # 2. Postpone-legality, to a fixed point (a store that stays put can
    #    block an earlier mover).
    postponed = list(candidates)
    while True:
        postponed_ids = {id(s) for s in postponed}
        kept = [
            s for s in postponed
            if _may_postpone(s, ordered, position, postponed_ids, aa)
        ]
        if len(kept) == len(postponed):
            break
        postponed = kept
    if not postponed:
        return
    postponed_ids = {id(s) for s in postponed}

    # 3. Dependent reads: loads after a postponed store that may alias it.
    reads_to_fix: Dict[int, List[Store]] = {}
    load_objs: Dict[int, Load] = {}
    for store in postponed:
        spos = position[id(store)]
        ssize = access_size(store)
        for _, instr in ordered[spos + 1 :]:
            if isinstance(instr, Load) and aa.may_alias(
                instr.pointer, access_size(instr), store.pointer, ssize
            ):
                reads_to_fix.setdefault(id(instr), []).append(store)
                load_objs[id(instr)] = instr

    # 4. Move the stores to the end of the last replica (Figure 3,
    #    ClusterWarWrites).  Original relative order is preserved.
    last_block = chain[-1]
    for store in postponed:
        store.parent.remove(store)
    insert_at = len(last_block.instructions)
    if last_block.terminator is not None:
        insert_at -= 1
    for offset, store in enumerate(postponed):
        last_block.insert(insert_at + offset, store)
    report.stores_postponed += len(postponed)

    # 5. Early exits (Figure 3, ModifyEarlyExits): every exit edge that
    #    followed a postponed store gets a writeback copy of it.
    for k, block in enumerate(chain[:-1]):
        term = block.terminator
        exit_targets = [t for t in term.targets if id(t) not in chain_ids]
        if not exit_targets:
            continue
        exit_target = exit_targets[0]
        preceding = [s for s in postponed if position[id(s)] < _term_position(position, block)]
        if not preceding:
            continue
        writeback_block = split_edge(block, exit_target, f"{block.name}.wb")
        for store in preceding:
            copy = Store(store.value, store.pointer)
            writeback_block.insert_before_terminator(copy)
            report.early_exit_writebacks += 1

    # 6. Dependent-read select chains (Figure 3, InstrumentReads).
    for load_id, stores in reads_to_fix.items():
        load = load_objs[load_id]
        _instrument_read(function, load, stores)
        report.reads_instrumented += 1


def _term_position(position: Dict[int, int], block) -> int:
    return position[id(block.terminator)]


def _may_postpone(store: Store, ordered, position, postponed_ids: Set[int], aa: AliasAnalysis) -> bool:
    """A store may move to the insertion point if nothing between its
    original position and the end of the chain both aliases it and stays
    in place (aliasing loads are handled with runtime checks instead)."""
    spos = position[id(store)]
    ssize = access_size(store)
    for _, instr in ordered[spos + 1 :]:
        if isinstance(instr, (Call, Checkpoint)):
            return False
        if isinstance(instr, Store):
            if id(instr) in postponed_ids:
                continue
            if aa.may_alias(instr.pointer, access_size(instr), store.pointer, ssize):
                return False
    return True


def _instrument_read(function, load: Load, stores: List[Store]) -> None:
    """Replace ``load`` with a select chain over the postponed stores
    (Algorithm 1, InstrumentReads): if the load address equals a
    postponed store's address, forward the register value instead.

    Later stores take precedence, so the chain is built in original
    program order with each select overriding the previous result.
    """
    block = load.parent
    insert_at = block.index_of(load) + 1
    result = load
    for store in stores:
        cmp = ICmp("eq", load.pointer, store.pointer, f"{load.name}.chk")
        block.insert(insert_at, cmp)
        insert_at += 1
        sel = Select(cmp, store.value, result, f"{load.name}.fwd")
        block.insert(insert_at, sel)
        insert_at += 1
        result = sel
    # All other users of the load now see the final select.
    chain_members = {id(result)}
    node = result
    while isinstance(node, Select) and node is not load:
        chain_members.add(id(node))
        node = node.false_value
    for instr in function.instructions():
        if id(instr) in chain_members or instr is load:
            continue
        instr.replace_uses_of(load, result)
