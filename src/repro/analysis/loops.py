"""Natural-loop detection and the loop forest.

WARio's Loop Write Clusterer consumes exactly this information: the loop
header, latch(es), body blocks, exit edges, and nesting depth (used as the
checkpoint-location cost in the hitting set).  :func:`natural_loops` is
the one loop finder: :func:`loop_info` runs it on IR functions and
:func:`repro.analysis.progress.loop_forest` on machine and IR functions
alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .dominators import DominatorTree, dominator_tree


class Loop:
    """A natural loop: ``header`` plus the blocks of all its back edges,
    in reverse postorder (so the header comes first)."""

    def __init__(self, header, blocks: List, latches: List):
        self.header = header
        self.blocks = blocks
        self._block_ids = {id(block) for block in blocks}
        self.latches = latches
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    def contains(self, block) -> bool:
        return id(block) in self._block_ids

    @property
    def depth(self) -> int:
        d, loop = 1, self.parent
        while loop is not None:
            d += 1
            loop = loop.parent
        return d

    @property
    def single_latch(self) -> Optional[object]:
        return self.latches[0] if len(self.latches) == 1 else None

    def exit_edges(self) -> List[Tuple[object, object]]:
        """(inside_block, outside_block) pairs leaving the loop."""
        edges = []
        for block in self.blocks:
            for succ in block.successors:
                if not self.contains(succ):
                    edges.append((block, succ))
        return edges

    def is_single_block(self) -> bool:
        return len(self.blocks) == 1

    def __repr__(self):
        return f"<Loop header={self.header.name} depth={self.depth} blocks={len(self.blocks)}>"


class LoopInfo:
    """The loop forest of a function."""

    def __init__(self, loops: List[Loop], function):
        self.loops = loops
        self.function = function
        self._innermost: Dict[int, Loop] = {}
        for loop in sorted(self.loops, key=lambda l: l.depth):
            for block in loop.blocks:
                self._innermost[id(block)] = loop

    def innermost_loop_of(self, block) -> Optional[Loop]:
        return self._innermost.get(id(block))

    def depth_of(self, block) -> int:
        loop = self.innermost_loop_of(block)
        return loop.depth if loop is not None else 0

    def common_loop(self, block_a, block_b) -> Optional[Loop]:
        """Innermost loop containing both blocks, or None."""
        loop = self.innermost_loop_of(block_a)
        while loop is not None:
            if loop.contains(block_b):
                return loop
            loop = loop.parent
        return None

    def __iter__(self):
        return iter(self.loops)


def natural_loops(domtree: DominatorTree) -> List[Loop]:
    """The natural loops of ``domtree``'s graph, nested.

    A back edge is an edge whose target dominates its source; a loop is
    its header plus every node that reaches one of its latches without
    passing the header.  Loops are listed in order of discovery: their
    first back edge in reverse postorder, then successor order.  Each
    loop's parent is the smallest other loop containing its header.
    """
    graph = domtree.graph
    members: Dict[int, set] = {}  # header number -> member numbers
    latches: Dict[int, List[int]] = {}
    for source, targets in enumerate(graph.succs):
        for header in targets:
            if header > source or not domtree.dominates_number(header, source):
                continue  # a header precedes its latches in reverse postorder
            body = members.setdefault(header, {header})
            latches.setdefault(header, []).append(source)
            body.add(source)
            stack = [source]
            while stack:
                node = stack.pop()
                if node == header:
                    continue  # do not walk above the header
                for pred in graph.preds[node]:
                    if pred not in body:
                        body.add(pred)
                        stack.append(pred)
    nodes = graph.nodes
    loops = [
        Loop(nodes[header], [nodes[n] for n in sorted(body)],
             [nodes[n] for n in latches[header]])
        for header, body in members.items()
    ]
    by_size = sorted(loops, key=lambda l: len(l.blocks))
    for loop in loops:
        for candidate in by_size:
            if candidate is loop or len(candidate.blocks) <= len(loop.blocks):
                continue
            if candidate.contains(loop.header):
                loop.parent = candidate
                candidate.children.append(loop)
                break
    return loops


def loop_info(function, domtree: Optional[DominatorTree] = None) -> LoopInfo:
    """The natural loops of an IR function."""
    domtree = domtree or dominator_tree(function)
    return LoopInfo(natural_loops(domtree), function)


def affine_chain(value) -> Tuple[object, int]:
    """Decompose ``value`` as ``base + offset`` through a chain of
    constant adds/subs (as loop rotation and unrolling produce)."""
    from ..ir.instructions import BinaryOp
    from ..ir.values import Constant, as_signed

    offset = 0
    for _ in range(64):  # bound the walk
        if (
            isinstance(value, BinaryOp)
            and value.op in ("add", "sub")
            and isinstance(value.rhs, Constant)
        ):
            step = as_signed(value.rhs.value)
            offset += -step if value.op == "sub" else step
            value = value.lhs
            continue
        break
    return value, offset


def find_induction_variables(loop: Loop) -> Dict[int, Tuple[object, int]]:
    """Simple induction variables of ``loop``.

    Returns id(phi) -> (phi, step) for header phis of the form
    ``phi = [init, preheader], [phi +/- C, latch]`` with constant C (or
    a chain of them, as produced by unrolling).  This is the SCEV slice
    that the precise (NOELLE-style) alias analysis uses to disambiguate
    ``a[i]`` from ``a[i+c]``.
    """
    out: Dict[int, Tuple[object, int]] = {}
    for phi in loop.header.phis():
        steps = []
        for value, pred in phi.incoming:
            if not loop.contains(pred):
                continue  # entry value
            base, step = affine_chain(value)
            if base is not phi:
                break
            steps.append(step)
        else:
            if steps and all(s == steps[0] for s in steps):
                out[id(phi)] = (phi, steps[0])
    return out
