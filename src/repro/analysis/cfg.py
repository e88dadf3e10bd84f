"""CFG traversal orders and reachability over IR functions."""

from __future__ import annotations

from typing import Dict, List, Set


def reverse_postorder(function) -> List:
    """Blocks in reverse postorder from the entry (unreachable blocks last).

    The depth-first walk keeps an explicit stack of successor iterators,
    so a deep CFG cannot exhaust the interpreter's recursion limit; it
    visits successors in the same order as the recursive walk would.
    """
    entry = function.entry
    visited: Set[int] = {id(entry)}
    order: List = []
    stack = [(entry, iter(entry.successors))]
    while stack:
        block, successors = stack[-1]
        for succ in successors:
            if id(succ) not in visited:
                visited.add(id(succ))
                stack.append((succ, iter(succ.successors)))
                break
        else:
            stack.pop()
            order.append(block)
    rpo = list(reversed(order))
    for block in function.blocks:
        if id(block) not in visited:
            rpo.append(block)
    return rpo


def reachable_blocks(function) -> Set[int]:
    """Ids of blocks reachable from entry."""
    seen: Set[int] = set()
    stack = [function.entry]
    while stack:
        block = stack.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        stack.extend(block.successors)
    return seen


def reachability(function) -> Dict[int, Set[int]]:
    """For each block id, the set of block ids reachable via >= 1 edge.

    O(V * E) DFS per block; functions here are small enough for that.
    """
    result: Dict[int, Set[int]] = {}
    for block in function.blocks:
        seen: Set[int] = set()
        stack = list(block.successors)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.successors)
        result[id(block)] = seen
    return result


def predecessors_map(function) -> Dict[int, List]:
    """Map block id -> predecessor blocks, computed in one pass."""
    preds: Dict[int, List] = {id(b): [] for b in function.blocks}
    for block in function.blocks:
        for succ in block.successors:
            preds[id(succ)].append(block)
    return preds
