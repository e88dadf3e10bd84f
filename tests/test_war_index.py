"""Exactness of the indexed WAR engine and the range-compressed greedy.

:class:`repro.analysis.memdep.WARIndex` must report exactly the WARs of
an all-pairs scan, in the same order, and its frontier must be exactly
the scan's WARs with the dominated ones pruned.  The greedy hitting set
over :class:`repro.core.hitting_set.Span` runs must pick exactly what
the rescanning greedy picks over the expanded position sets.  The
reference algorithms live in ``war_oracles.py``.
"""

import random
from dataclasses import replace

import pytest

from war_oracles import prune_dominated, scan_greedy, scan_wars

from repro.analysis import (
    ALIAS_MODES,
    CONSERVATIVE,
    AliasAnalysis,
    WARIndex,
    compute_points_to,
    compute_summaries,
    loop_info,
)
from repro.analysis.dominators import blocks_on_every_path
from repro.analysis.memdep import FORWARD
from repro.benchsuite import BENCHMARKS
from repro.core import ENVIRONMENTS, greedy_hitting_set, run_middle_end
from repro.core.hitting_set import Span
from repro.frontend import compile_source, compile_sources
from repro.ir.instructions import Load, Store
from repro.ir.values import Argument, GlobalVariable
from repro.transforms import promote_memory_to_registers


def _war_ids(wars):
    return [(id(w.load), id(w.store), w.kind) for w in wars]


def _assert_index_exact(function, aa, calls_are_checkpoints=True,
                        summaries=None):
    li = loop_info(function)
    oracle = scan_wars(function, aa, li, calls_are_checkpoints, summaries)
    index = WARIndex(function, aa, li, calls_are_checkpoints, summaries)
    assert _war_ids(index.wars()) == _war_ids(oracle)
    assert (next(index.wars(), None) is None) == (not oracle)

    frontier = index.frontier()
    assert sorted(_war_ids(w for w, _l, _s in frontier)) == sorted(
        _war_ids(prune_dominated(oracle)))
    for war, lidx, sidx in frontier:
        assert war.load.parent.instructions[lidx] is war.load
        assert war.store.parent.instructions[sidx] is war.store

    half = function.blocks[: max(1, len(function.blocks) // 2)]
    inside = {id(b) for b in half}
    assert _war_ids(index.wars(blocks=half)) == _war_ids(
        w for w in oracle
        if id(w.load.parent) in inside and id(w.store.parent) in inside
    )
    return oracle


def _transformed(bench):
    """A benchmark's IR as the checkpoint inserter sees it under
    ``wario``: every middle-end transform done, nothing inserted."""
    module = compile_sources([BENCHMARKS[bench].source], bench)
    run_middle_end(module, replace(ENVIRONMENTS["wario"], instrument=False))
    return module


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_index_matches_scan_on_transformed_benchmarks(bench):
    module = _transformed(bench)
    points_to = compute_points_to(module)
    for mode in ALIAS_MODES:
        summaries = compute_summaries(module, alias_mode=mode)
        for function in module.defined_functions():
            for table in (None, summaries):
                aa = AliasAnalysis(
                    function, mode,
                    points_to=points_to if table is None
                    else table.arg_points_to,
                )
                _assert_index_exact(function, aa, summaries=table)


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_index_matches_scan_on_front_end_output(bench):
    # Unoptimised: calls are not inlined, so call barriers and the
    # argument-rooted accesses of every callee are exercised.
    module = compile_sources([BENCHMARKS[bench].source], bench)
    points_to = compute_points_to(module)
    for function in module.defined_functions():
        for mode in (CONSERVATIVE, "precise"):
            aa = AliasAnalysis(function, mode, points_to=points_to)
            for calls_are_checkpoints in (True, False):
                _assert_index_exact(function, aa, calls_are_checkpoints)


TOP_SRC = """
unsigned int g;
void touch(unsigned int *p) {
    unsigned int x = p[0];
    g = x + 1;
    unsigned int y = g;
    p[1] = y;
}
int main(void) { touch(&g); return 0; }
"""


def _argument_rooted(instr):
    pointer = instr.pointer
    while not isinstance(pointer, (Argument, GlobalVariable)):
        pointer = pointer.base
    return isinstance(pointer, Argument)


def test_top_endpoints_meet_every_access_on_either_side():
    """Under ``conservative`` an argument-rooted pointer has no object
    set (TOP): a TOP load must still meet the store to @g, and the load
    of @g must still meet a TOP store."""
    module = compile_source(TOP_SRC)
    (touch,) = [f for f in module.defined_functions() if f.name == "touch"]
    promote_memory_to_registers(touch)  # p itself, not a reload of it
    aa = AliasAnalysis(touch, CONSERVATIVE)
    top = [i for i in touch.instructions()
           if isinstance(i, (Load, Store)) and _argument_rooted(i)]
    assert {type(i) for i in top} == {Load, Store}
    assert all(aa.classify(i.pointer).possible_bases() is None for i in top)

    wars = _assert_index_exact(touch, aa)
    pairs = {(_argument_rooted(w.load), _argument_rooted(w.store))
             for w in wars if w.kind == FORWARD}
    assert (True, False) in pairs  # TOP load p[0] -> store @g
    assert (False, True) in pairs  # load @g -> TOP store p[1]


def _random_instance(rng, spans):
    """Requirements over a few blocks at random loop depths, the
    inserter's costs (10**depth, 0.999 for preferred positions), as
    span runs when ``spans`` else expanded position lists."""
    blocks = [f"b{i}" for i in range(rng.randint(1, 4))]
    depth = {b: rng.randint(0, 2) for b in blocks}
    size = {b: rng.randint(1, 12) for b in blocks}
    requirements, expanded, preferred = [], [], set()
    for _ in range(rng.randint(1, 12)):
        runs = []
        for block in rng.sample(blocks, rng.randint(1, len(blocks))):
            lo = rng.randint(0, size[block] - 1)
            hi = rng.randint(lo, size[block] - 1)
            runs.append(Span(block, lo, hi))
            preferred.add((block, rng.randint(lo, hi)))
        requirements.append(runs)
        expanded.append([(b, j) for b, lo, hi in runs
                         for j in range(lo, hi + 1)])

    def cost(key):
        return 10.0 ** depth[key[0]] * (0.999 if key in preferred else 1.0)

    return (requirements if spans else expanded), expanded, cost


def test_lazy_greedy_matches_scan_greedy():
    for seed in range(300):
        reqs, expanded, cost = _random_instance(random.Random(seed), False)
        assert greedy_hitting_set(reqs, cost) == scan_greedy(expanded, cost), seed


def test_span_requirements_match_expanded():
    for seed in range(300):
        reqs, expanded, cost = _random_instance(random.Random(seed), True)
        assert greedy_hitting_set(reqs, cost) == scan_greedy(expanded, cost), seed


def test_several_preferred_positions_in_one_segment():
    # Both requirements cover b[0..9] alike, so it is one segment; of its
    # three preferred positions the greedy must take the last one, as
    # the scan over the expanded sets does.
    preferred = {("b", 2), ("b", 5), ("b", 7)}

    def cost(key):
        return 0.999 if key in preferred else 1.0

    reqs = [[Span("b", 0, 9)], [Span("b", 0, 9), Span("c", 0, 3)]]
    expanded = [[("b", j) for j in range(10)],
                [("b", j) for j in range(10)] + [("c", j) for j in range(4)]]
    assert greedy_hitting_set(reqs, cost) == [("b", 7)]
    assert scan_greedy(expanded, cost) == [("b", 7)]


def test_locations_and_spans_share_positions():
    # A plain location inside a spanned block counts toward the same
    # coverage as the runs over it: b3 hits both requirements.
    reqs = [[Span("b", 0, 5)], [("b", 3), ("c", 1)]]
    expanded = [[("b", j) for j in range(6)], [("b", 3), ("c", 1)]]
    assert scan_greedy(expanded) == [("b", 3)]
    assert greedy_hitting_set(reqs) == [("b", 3)]


def test_empty_span_requirement_rejected():
    with pytest.raises(ValueError):
        greedy_hitting_set([[Span("b", 3, 2)]])


class _Node:
    def __init__(self, name):
        self.name = name
        self.succs = []


def test_path_memo_belongs_to_the_caller():
    """The dominator memo lives in the cache the caller passes, so the
    same nodes with a new edge are not answered from an earlier graph's
    memo."""
    a, b, c, d = (_Node(n) for n in "abcd")
    a.succs, b.succs, c.succs = [b], [c], [d]
    succs = lambda node: node.succs  # noqa: E731
    cache = {}
    assert blocks_on_every_path(a, d, succs, cache) == [c, b]
    assert id(a) in cache and (id(a), id(d)) in cache

    a.succs = [b, c]  # a may now skip b
    assert blocks_on_every_path(a, d, succs, {}) == [c]
    assert blocks_on_every_path(a, d, succs) == [c]
