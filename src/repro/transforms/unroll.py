"""Loop unrolling for single-basic-block loops with early exits.

This is the UnrollLoop step of WARio's Loop Write Clusterer (paper
Algorithm 1 / Figure 3): the body is replicated N times, each replica
keeping its own exit test (so any trip count remains correct), and the
final replica feeding the header phis.  The exit edge is pre-split so all
replicas exit through one dedicated block holding LCSSA phis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.loops import Loop
from ..ir.block import split_edge
from ..ir.instructions import CondBranch, Phi
from ..ir.values import Value


class UnrollError(Exception):
    """Raised when a loop does not have the supported shape."""


@dataclass
class UnrolledLoop:
    """Result of unrolling: the replica chain and the dedicated exit."""

    header: object            # replica 0 == the original header block
    chain: List               # all replicas in execution order (len == N)
    exit_block: object        # dedicated exit holding the LCSSA phis
    factor: int


def can_unroll(loop: Loop) -> bool:
    """Supported shape: single-block loop (header == latch) whose
    terminator is a 2-way branch between the header and one exit, or that
    only exits via a conditional branch; entry through a preheader."""
    if not loop.is_single_block():
        return False
    header = loop.header
    if loop.single_latch is not header:
        return False
    term = header.terminator
    if isinstance(term, CondBranch):
        targets = term.targets
        if header not in targets:
            return False
        exits = [t for t in targets if t is not header]
        return len(exits) == 1
    return False


def unroll_single_block_loop(loop: Loop, factor: int) -> UnrolledLoop:
    """Unroll ``loop`` by ``factor`` (>= 2).  Returns the replica chain."""
    if factor < 2:
        raise UnrollError("unroll factor must be >= 2")
    if not can_unroll(loop):
        raise UnrollError(f"unsupported loop shape at {loop.header.name}")
    header = loop.header
    function = header.parent
    term = header.terminator
    exit_target = term.true_target if term.true_target is not header else term.false_target

    # 1. Dedicated exit block on the (single) exit edge.
    exit_block = split_edge(header, exit_target, f"{header.name}.exit")

    # 2. LCSSA: values defined in the header and used outside flow through
    #    phis in the dedicated exit block.
    _make_lcssa(header, exit_block, function)

    # 3. Replicate the body.  Capture the branch orientation now: the
    #    header's terminator is retargeted as replicas are chained in.
    true_is_continue = term.true_target is header
    original_condition = term.condition
    header_phis = header.phis()
    latch_values = {id(phi): phi.incoming_for(header) for phi in header_phis}
    # value maps: replica k sees the header phi as the value computed by
    # replica k-1 (for k == 0 the phi itself).
    prev_map: Dict[int, Value] = {id(phi): phi for phi in header_phis}
    chain = [header]
    body = [i for i in header.instructions if not isinstance(i, Phi)]

    exit_phis = exit_block.phis()
    for k in range(1, factor):
        clone_block = function.add_block(f"{header.name}.unroll{k}", after=chain[-1])
        cur_map: Dict[int, Value] = {}
        for phi in header_phis:
            incoming = latch_values[id(phi)]
            cur_map[id(phi)] = _lookup(prev_map, incoming)
        for instr in body:
            if instr.is_terminator:
                continue
            copy = instr.clone()
            copy.loc = instr.loc
            for i, op in enumerate(copy.operands):
                copy.operands[i] = _lookup_chained(cur_map, prev_map, op)
            cur_map[id(instr)] = copy
            clone_block.append(copy)
        # Replica terminator: same test; the continue edge provisionally
        # targets the header and is retargeted when the next replica (or
        # the final back edge) is wired up.
        cond = _lookup_chained(cur_map, prev_map, original_condition)
        if true_is_continue:
            clone_block.append(CondBranch(cond, header, exit_block))
        else:
            clone_block.append(CondBranch(cond, exit_block, header))
        # Exit phis gain an incoming from this replica.
        for phi in exit_phis:
            original = phi.incoming_for(header)
            phi.add_incoming(_lookup_chained(cur_map, prev_map, original), clone_block)
        # Previous replica now falls through here instead of looping.
        chain[-1].replace_successor(header, clone_block)
        prev_map = _merge_maps(prev_map, cur_map)
        chain.append(clone_block)

    # 4. Close the loop: the last replica already branches back to the
    #    header; the header phis take their latch values from it.
    last = chain[-1]
    for phi in header_phis:
        incoming = latch_values[id(phi)]
        mapped = _lookup(prev_map, incoming)
        phi.remove_incoming(header)
        phi.add_incoming(mapped, last)
    return UnrolledLoop(header=header, chain=chain, exit_block=exit_block, factor=factor)


def _make_lcssa(header, exit_block, function) -> None:
    """Route all out-of-loop uses of header-defined values through phis in
    the dedicated exit block."""
    header_values = [
        i for i in header.instructions if i.type.size != 0 or isinstance(i, Phi)
    ]
    in_loop = {id(header)}
    for value in header_values:
        outside_users = []
        for block in function.blocks:
            if id(block) in in_loop or block is exit_block:
                continue
            for instr in block.instructions:
                if any(op is value for op in instr.operands):
                    outside_users.append(instr)
        exit_uses = [
            instr
            for instr in exit_block.instructions
            if not isinstance(instr, Phi) and any(op is value for op in instr.operands)
        ]
        outside_users.extend(exit_uses)
        if not outside_users:
            continue
        phi = Phi(value.type, f"{value.name}.lcssa")
        phi.add_incoming(value, header)
        exit_block.insert(0, phi)
        for instr in outside_users:
            instr.replace_uses_of(value, phi)


def _lookup(mapping: Dict[int, Value], value: Value) -> Value:
    return mapping.get(id(value), value)


def _lookup_chained(cur: Dict[int, Value], prev: Dict[int, Value], value: Value) -> Value:
    if id(value) in cur:
        return cur[id(value)]
    return prev.get(id(value), value)


def _merge_maps(prev: Dict[int, Value], cur: Dict[int, Value]) -> Dict[int, Value]:
    merged = dict(prev)
    merged.update(cur)
    return merged
