"""Dominator trees (Cooper-Harvey-Kennedy) over the graph core, plus
dominance frontiers and the blocks every path crosses."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .cfg import Graph, ir_successors


class DominatorTree:
    """Immediate-dominator tree of a :class:`~repro.analysis.cfg.Graph`
    with O(1) ``dominates`` queries.

    The Cooper-Harvey-Kennedy fixpoint runs on the graph's reverse-
    postorder numbers, where a node's immediate dominator always has a
    smaller number than the node.  ``blocks`` are the reachable nodes in
    reverse postorder, ``root`` the entry; unreachable nodes are in no
    dominance relation.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.blocks = graph.nodes
        self.root = graph.nodes[0]
        count = len(graph.nodes)
        idom = [-1] * count
        idom[0] = 0
        changed = True
        while changed:
            changed = False
            for node in range(1, count):
                new = -1
                for pred in graph.preds[node]:
                    if idom[pred] < 0:
                        continue
                    if new < 0:
                        new = pred
                        continue
                    while pred != new:  # intersect the two dominator chains
                        while pred > new:
                            pred = idom[pred]
                        while new > pred:
                            new = idom[new]
                if idom[node] != new:
                    idom[node] = new
                    changed = True
        idom[0] = -1  # the root has no immediate dominator
        self._idom = idom
        self._children: List[List[int]] = [[] for _ in range(count)]
        for node in range(1, count):
            self._children[idom[node]].append(node)
        # Each subtree occupies the interval [pre, pre + size) of a
        # preorder numbering; parents precede children in node order.
        size = [1] * count
        for node in range(count - 1, 0, -1):
            size[idom[node]] += size[node]
        pre = [0] * count
        free = [1] * count  # the next unused preorder slot under a node
        for node in range(1, count):
            parent = idom[node]
            pre[node] = free[parent]
            free[parent] += size[node]
            free[node] = pre[node] + 1
        self._pre = pre
        self._size = size

    def idom(self, block) -> Optional[object]:
        node = self.graph.number.get(id(block))
        if not node:  # the root, or unreachable
            return None
        return self.blocks[self._idom[node]]

    def children(self, block) -> List:
        node = self.graph.number.get(id(block))
        if node is None:
            return []
        return [self.blocks[child] for child in self._children[node]]

    def dominates(self, a, b) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        number = self.graph.number
        node_a, node_b = number.get(id(a)), number.get(id(b))
        if node_a is None or node_b is None:
            return False
        return self.dominates_number(node_a, node_b)

    def dominates_number(self, a: int, b: int) -> bool:
        """:meth:`dominates` on the graph's node numbers."""
        return 0 <= self._pre[b] - self._pre[a] < self._size[a]

    def strictly_dominates(self, a, b) -> bool:
        return a is not b and self.dominates(a, b)


def dominator_tree(function) -> DominatorTree:
    return DominatorTree(Graph(function.entry, ir_successors))


def dominance_frontiers(function, domtree: Optional[DominatorTree] = None) -> Dict[int, Set]:
    """Cytron et al. dominance frontiers: id(block) -> set of blocks."""
    domtree = domtree or dominator_tree(function)
    graph, idom = domtree.graph, domtree._idom
    frontiers: Dict[int, Set] = {id(b): set() for b in function.blocks}
    for node, preds in enumerate(graph.preds):
        if len(preds) < 2:
            continue
        block = graph.nodes[node]
        for runner in preds:
            while runner != idom[node]:
                frontiers[id(graph.nodes[runner])].add(block)
                runner = idom[runner]
    return frontiers


def blocks_on_every_path(source, target, successors, cache=None) -> List:
    """Nodes (other than ``source`` and ``target``) that every path from
    ``source``'s exit to ``target``'s entry must traverse, nearest to
    ``target`` first.

    Classic equivalence: a node lies on every such path iff it dominates
    ``target`` in the graph rooted at a virtual node whose successors are
    ``source``'s successors.  One dominator tree serves all queries from
    the same source.

    ``cache`` is a dict the caller keeps for one graph while its edges do
    not change (a placement pass): it memoises each source's dominator
    tree (keyed by the source's id) and each pair's answer (keyed by the
    pair of ids).
    """
    if cache is None:
        cache = {}
    pair = (id(source), id(target))
    out = cache.get(pair)
    if out is not None:
        return out
    domtree = cache.get(id(source))
    if domtree is None:
        root = object()
        exits = list(successors(source))
        domtree = DominatorTree(Graph(
            root, lambda node: exits if node is root else successors(node)))
        cache[id(source)] = domtree
    # ``source`` strictly dominates nothing here: a path through it goes on
    # through one of its successors, which the root reaches directly.
    nodes, idom = domtree.blocks, domtree._idom
    out = []
    node = idom[domtree.graph.number.get(id(target), 0)]
    while node > 0:  # up to, not including, the virtual root
        out.append(nodes[node])
        node = idom[node]
    cache[pair] = out
    return out
