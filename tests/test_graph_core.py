"""The graph core against brute force on random digraphs.

:class:`repro.analysis.cfg.Graph`, :class:`repro.analysis.dominators.
DominatorTree`, :func:`~repro.analysis.dominators.blocks_on_every_path`,
:func:`~repro.analysis.loops.natural_loops` and
:func:`~repro.analysis.cfg.reachability` serve IR blocks, machine blocks
and the progress certifier's loop forest alike.  Each is held here to
its definition, decided by removing nodes and searching what is left,
on graphs of up to 12 nodes with self-loops, repeated edges,
unreachable nodes and cycles with two entries; so is the reducibility
check of :func:`~repro.analysis.progress.loop_forest`.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from repro.analysis.cfg import Graph, reachability, reverse_postorder
from repro.analysis.dominators import DominatorTree, blocks_on_every_path
from repro.analysis.loops import natural_loops
from repro.analysis.progress import IrreducibleCFG, loop_forest

from .test_analysis import _recursive_rpo


class _Node:
    def __init__(self, name):
        self.name = name
        self.successors = []

    def __repr__(self):
        return self.name


def _successors(node):
    return node.successors


def _graph(edges):
    """Nodes ``0 .. len(edges) - 1``, node ``i`` with successors
    ``edges[i]`` in order; node 0 is the entry."""
    nodes = [_Node(str(i)) for i in range(len(edges))]
    for node, out in zip(nodes, edges):
        node.successors = [nodes[j] for j in out]
    return nodes


@st.composite
def digraphs(draw):
    count = draw(st.integers(1, 12))
    return _graph([
        draw(st.lists(st.integers(0, count - 1), max_size=3))
        for _ in range(count)
    ])


def _reached(starts, removed=None):
    """Nodes reachable from ``starts`` (themselves included) with
    ``removed`` deleted from the graph."""
    seen = set()
    stack = [node for node in starts if node is not removed]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(s for s in node.successors if s is not removed)
    return seen


_SELF_LOOP = _graph([[1], [1, 2], []])
_UNREACHABLE = _graph([[1], [], [1, 2]])
_TWO_ENTRY_CYCLE = _graph([[1, 2], [2], [1, 3], []])


@settings(max_examples=150, deadline=None)
@given(digraphs())
@example(_SELF_LOOP)
@example(_UNREACHABLE)
@example(_TWO_ENTRY_CYCLE)
def test_numbering_and_reachability(nodes):
    entry = nodes[0]
    graph = Graph(entry, _successors)
    function = SimpleNamespace(entry=entry, blocks=nodes)
    assert reverse_postorder(function) == _recursive_rpo(function)
    assert graph.nodes == reverse_postorder(function)[:len(graph.nodes)]
    assert {id(n) for n in nodes if n in graph} == _reached([entry])
    for i, node in enumerate(graph.nodes):
        assert [graph.nodes[j] for j in graph.succs[i]] == node.successors
        assert sorted(graph.preds[i]) == graph.preds[i]
        assert len(graph.preds[i]) == sum(
            succs.count(i) for succs in graph.succs)
    reach = reachability(nodes, _successors)
    for node in nodes:
        assert reach[id(node)] == _reached(node.successors)


@settings(max_examples=150, deadline=None)
@given(digraphs())
@example(_SELF_LOOP)
@example(_UNREACHABLE)
@example(_TWO_ENTRY_CYCLE)
def test_dominates_exactly_when_removal_cuts_the_entry_off(nodes):
    entry = nodes[0]
    domtree = DominatorTree(Graph(entry, _successors))
    reachable = _reached([entry])
    for a in nodes:
        cut = _reached([entry], removed=a)
        for b in nodes:
            expected = id(a) in reachable and id(b) in reachable \
                and id(b) not in cut
            assert domtree.dominates(a, b) == expected, (a, b)
    for b in nodes:
        strict = [a for a in nodes if a is not b and domtree.dominates(a, b)]
        idom = domtree.idom(b)
        if not strict:
            assert idom is None
            continue
        # the immediate dominator is the strict dominator nearest to b
        assert idom in strict
        assert all(domtree.dominates(a, idom) for a in strict)
        assert b in domtree.children(idom)


@settings(max_examples=150, deadline=None)
@given(digraphs())
@example(_SELF_LOOP)
@example(_UNREACHABLE)
@example(_TWO_ENTRY_CYCLE)
def test_blocks_on_every_path_are_the_cut_nodes(nodes):
    cache = {}
    for source in nodes:
        reached = _reached(source.successors)
        for target in nodes:
            on_every_path = blocks_on_every_path(source, target, _successors,
                                                 cache)
            if id(target) not in reached:
                assert on_every_path == []
                continue
            cuts = [
                x for x in nodes
                if x is not source and x is not target
                and id(target) not in _reached(source.successors, removed=x)
            ]
            assert sorted(on_every_path, key=nodes.index) == cuts
            # nearest to the target first: each cuts off the ones before
            for i, near in enumerate(on_every_path):
                for far in on_every_path[i + 1:]:
                    assert id(near) not in _reached(source.successors,
                                                    removed=far)


@settings(max_examples=150, deadline=None)
@given(digraphs())
@example(_SELF_LOOP)
@example(_UNREACHABLE)
@example(_TWO_ENTRY_CYCLE)
def test_natural_loops_grow_from_latches_to_the_header(nodes):
    entry = nodes[0]
    graph = Graph(entry, _successors)
    domtree = DominatorTree(graph)
    reachable = _reached([entry])
    latches = {}  # header -> latches, in order of discovery
    for node in graph.nodes:
        for succ in node.successors:
            if id(node) not in _reached([entry], removed=succ):
                latches.setdefault(succ, []).append(node)
    loops = natural_loops(domtree)
    assert [loop.header for loop in loops] == list(latches)
    for loop in loops:
        assert loop.latches == latches[loop.header]
        # a latch reaches itself: a node is in the loop when the latch
        # is reached from it with the header removed
        body = [loop.header] + [
            x for x in nodes
            if x is not loop.header and id(x) in reachable
            and any(id(latch) in _reached([x], removed=loop.header)
                    for latch in loop.latches)
        ]
        assert sorted(loop.blocks, key=graph.nodes.index) == loop.blocks
        assert loop.blocks[0] is loop.header
        assert sorted(loop.blocks, key=nodes.index) == \
            sorted(body, key=nodes.index)
    # each loop nests inside the smallest other loop holding its header,
    # and natural loops never overlap without nesting
    for loop in loops:
        holders = [other for other in loops if other is not loop
                   and len(other.blocks) > len(loop.blocks)
                   and other.contains(loop.header)]
        if not holders:
            assert loop.parent is None
            continue
        assert loop.parent is min(holders, key=lambda l: len(l.blocks))
        assert loop in loop.parent.children
        assert all(loop.parent.contains(block) for block in loop.blocks)


@settings(max_examples=150, deadline=None)
@given(digraphs())
@example(_SELF_LOOP)
@example(_TWO_ENTRY_CYCLE)
def test_loop_forest_refuses_exactly_the_irreducible_graphs(nodes):
    """An edge going backwards in the recursive walk's reverse postorder
    whose target does not dominate its source makes the graph
    irreducible."""
    entry = nodes[0]
    function = SimpleNamespace(entry=entry, blocks=nodes)
    reachable = _reached([entry])
    index = {id(node): i for i, node in enumerate(_recursive_rpo(function))
             if id(node) in reachable}
    irreducible = any(
        index[id(succ)] <= index[id(node)]
        and id(node) in _reached([entry], removed=succ)
        for node in nodes if id(node) in reachable
        for succ in node.successors
    )
    try:
        loop_forest(entry, _successors)
    except IrreducibleCFG:
        assert irreducible
    else:
        assert not irreducible
