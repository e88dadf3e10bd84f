"""Dominator and post-dominator trees (Cooper-Harvey-Kennedy) plus
dominance frontiers, over the IR CFG."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .cfg import predecessors_map, reverse_postorder


class DominatorTree:
    """Immediate-dominator tree with O(depth) ``dominates`` queries."""

    def __init__(self, idom: Dict[int, object], root, blocks: List):
        self._idom = idom  # id(block) -> idom block (root maps to itself)
        self.root = root
        self.blocks = blocks
        self._children: Dict[int, List] = {id(b): [] for b in blocks}
        for block in blocks:
            parent = idom.get(id(block))
            if parent is not None and parent is not block:
                self._children[id(parent)].append(block)
        self._depth: Dict[int, int] = {}
        self._compute_depths()

    def _compute_depths(self):
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            self._depth[id(node)] = d
            for child in self._children[id(node)]:
                stack.append((child, d + 1))

    def idom(self, block) -> Optional[object]:
        parent = self._idom.get(id(block))
        return None if parent is block else parent

    def children(self, block) -> List:
        return self._children.get(id(block), [])

    def dominates(self, a, b) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        node = b
        depth_a = self._depth.get(id(a))
        if depth_a is None or id(b) not in self._depth:
            return False
        while node is not None and self._depth[id(node)] >= depth_a:
            if node is a:
                return True
            parent = self._idom.get(id(node))
            node = None if parent is node else parent
        return False

    def strictly_dominates(self, a, b) -> bool:
        return a is not b and self.dominates(a, b)

    def preorder(self) -> List:
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self._children[id(node)]))
        return out


def _chk_idoms(nodes: List, entry, preds_of) -> Dict[int, object]:
    """Cooper-Harvey-Kennedy iterative idom computation.

    ``nodes`` must be in reverse postorder starting at ``entry``;
    unreachable nodes are skipped.
    """
    rpo_index = {id(b): i for i, b in enumerate(nodes)}
    idom: Dict[int, object] = {id(entry): entry}

    def intersect(a, b):
        while a is not b:
            while rpo_index[id(a)] > rpo_index[id(b)]:
                a = idom[id(a)]
            while rpo_index[id(b)] > rpo_index[id(a)]:
                b = idom[id(b)]
        return a

    changed = True
    while changed:
        changed = False
        for block in nodes:
            if block is entry:
                continue
            new_idom = None
            for pred in preds_of(block):
                if id(pred) not in rpo_index:
                    continue  # unreachable predecessor
                if id(pred) in idom:
                    new_idom = pred if new_idom is None else intersect(pred, new_idom)
            if new_idom is None:
                continue
            if idom.get(id(block)) is not new_idom:
                idom[id(block)] = new_idom
                changed = True
    return idom


def dominator_tree(function) -> DominatorTree:
    rpo = reverse_postorder(function)
    preds = predecessors_map(function)
    reachable = {id(b) for b in rpo}
    # reverse_postorder appends unreachable blocks at the end; drop them.
    seen: Set[int] = set()
    stack = [function.entry]
    while stack:
        b = stack.pop()
        if id(b) in seen:
            continue
        seen.add(id(b))
        stack.extend(b.successors)
    rpo = [b for b in rpo if id(b) in seen]
    idom = _chk_idoms(rpo, function.entry, lambda b: preds[id(b)])
    return DominatorTree(idom, function.entry, rpo)


class PostDominatorTree:
    """Post-dominator relation, handling multiple exit blocks through a
    virtual sink that every ``ret``-terminated block edges to."""

    def __init__(self, function):
        exits = [b for b in function.blocks if not b.successors]
        self._sink = object()
        succ_map: Dict[int, List] = {}
        for block in function.blocks:
            succs = list(block.successors)
            if not succs:
                succs = [self._sink]
            succ_map[id(block)] = succs
        pred_map: Dict[int, List] = {id(b): [] for b in function.blocks}
        pred_map[id(self._sink)] = list(exits)
        for block in function.blocks:
            for succ in block.successors:
                pred_map[id(succ)].append(block)

        # Reverse postorder on the reversed CFG, rooted at the sink,
        # depth-first over an explicit stack of predecessor iterators so
        # deep CFGs cannot exhaust the recursion limit.
        order: List = []
        visited: Set[int] = {id(self._sink)}
        stack = [(self._sink, iter(pred_map[id(self._sink)]))]
        while stack:
            node, preds = stack[-1]
            for nxt in preds:
                if id(nxt) not in visited:
                    visited.add(id(nxt))
                    stack.append((nxt, iter(pred_map[id(nxt)])))
                    break
            else:
                stack.pop()
                order.append(node)
        rpo = list(reversed(order))
        idom = _chk_idoms(rpo, self._sink, lambda n: succ_map.get(id(n), []))
        self._idom = idom
        self._rpo = rpo
        self._depth: Dict[int, int] = {id(self._sink): 0}
        children: Dict[int, List] = {id(n): [] for n in rpo}
        for node in rpo:
            parent = idom.get(id(node))
            if parent is not None and parent is not node:
                children[id(parent)].append(node)
        stack = [(self._sink, 0)]
        while stack:
            node, d = stack.pop()
            self._depth[id(node)] = d
            for child in children[id(node)]:
                stack.append((child, d + 1))

    def post_dominates(self, a, b) -> bool:
        """True if every path from ``b`` to function exit passes ``a``."""
        if id(a) not in self._depth or id(b) not in self._depth:
            return False
        node = b
        depth_a = self._depth[id(a)]
        while node is not None and self._depth.get(id(node), -1) >= depth_a:
            if node is a:
                return True
            parent = self._idom.get(id(node))
            node = None if parent is node else parent
        return False


def post_dominator_tree(function) -> PostDominatorTree:
    return PostDominatorTree(function)


def dominance_frontiers(function, domtree: Optional[DominatorTree] = None) -> Dict[int, Set]:
    """Cytron et al. dominance frontiers: id(block) -> set of blocks."""
    domtree = domtree or dominator_tree(function)
    preds = predecessors_map(function)
    frontiers: Dict[int, Set] = {id(b): set() for b in function.blocks}
    for block in domtree.blocks:
        block_preds = [p for p in preds[id(block)] if id(p) in {id(x) for x in domtree.blocks}]
        if len(block_preds) < 2:
            continue
        for pred in block_preds:
            runner = pred
            while runner is not None and runner is not domtree.idom(block):
                frontiers[id(runner)].add(block)
                runner = domtree.idom(runner)
                if runner is None:
                    break
    return frontiers
