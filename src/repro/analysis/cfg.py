"""The graph core: traversal order and reachability of any directed graph.

A graph is given as ``(entry, successors)``: a start node and a function
from a node to its successor nodes in order.  IR blocks, machine blocks
and test nodes all fit; nodes are told apart by identity.  The dominator
tree (:mod:`repro.analysis.dominators`) and the natural-loop finder
(:mod:`repro.analysis.loops`) work on the :class:`Graph` numbering.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Set

#: The successor function of IR blocks (a property there; machine
#: blocks have a ``successors()`` method, so ``MBlock.successors``).
ir_successors = attrgetter("successors")


class Graph:
    """The nodes reachable from ``entry``, numbered in reverse postorder.

    ``nodes[i]`` is the node numbered ``i`` (the entry is 0), and
    ``succs[i]`` and ``preds[i]`` its successor and predecessor numbers,
    in successor order and in order of their sources' numbers.
    ``successors`` is called once per reachable node.  The depth-first
    walk keeps an explicit stack of successor iterators, so a deep graph
    cannot exhaust the interpreter's recursion limit; it visits
    successors in the same order as the recursive walk would.
    """

    def __init__(self, entry, successors):
        out = {id(entry): list(successors(entry))}  # also the visited set
        order: List = []  # postorder, reversed below
        stack = [(entry, iter(out[id(entry)]))]
        while stack:
            node, pending = stack[-1]
            for succ in pending:
                if id(succ) not in out:
                    targets = out[id(succ)] = list(successors(succ))
                    stack.append((succ, iter(targets)))
                    break
            else:
                stack.pop()
                order.append(node)
        order.reverse()
        self.nodes: List = order
        self.number: Dict[int, int] = {id(node): i for i, node in enumerate(order)}
        number = self.number
        self.succs: List[List[int]] = [
            [number[id(succ)] for succ in out[id(node)]] for node in order
        ]
        self.preds: List[List[int]] = [[] for _ in order]
        for i, targets in enumerate(self.succs):
            for j in targets:
                self.preds[j].append(i)

    def __contains__(self, node) -> bool:
        return id(node) in self.number


def reverse_postorder(function) -> List:
    """Blocks in reverse postorder from the entry (unreachable blocks
    last, in layout order)."""
    graph = Graph(function.entry, ir_successors)
    return graph.nodes + [b for b in function.blocks if b not in graph]


def reachability(nodes, successors) -> Dict[int, Set[int]]:
    """For each of ``nodes`` (by id), the ids of the nodes it reaches
    over one or more edges.  Every successor must be one of ``nodes``.

    One depth-first walk per node, O(V * E); functions here are small
    enough for that.
    """
    out = {id(node): [id(succ) for succ in successors(node)] for node in nodes}
    result: Dict[int, Set[int]] = {}
    for node in nodes:
        seen: Set[int] = set()
        stack = list(out[id(node)])
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(out[current])
        result[id(node)] = seen
    return result
