"""Unit tests for the shared dataflow engine (:mod:`repro.analysis.dataflow`):
the round-robin solver, forward/backward CFG problems, and the two
recurring lattices (flagged-fact maps and interval sets)."""

from repro.analysis.dataflow import (
    BACKWARD,
    BK,
    FW,
    CFGProblem,
    interval_add,
    interval_covers,
    interval_intersect,
    interval_sub,
    intervals_overlap,
    intersect_must_set,
    merge_flagged_facts,
    solve,
)


class Block:
    """A toy CFG node: a name, successor list, and use/def sets."""

    def __init__(self, name, uses=(), defs=()):
        self.name = name
        self.succs = []
        self.uses = set(uses)
        self.defs = set(defs)

    def __repr__(self):
        return f"Block({self.name})"


def _chain(*blocks):
    for a, b in zip(blocks, blocks[1:]):
        a.succs.append(b)
    return blocks


# ---------------------------------------------------------------------------
# solver semantics
# ---------------------------------------------------------------------------


class _ReachingDefs(CFGProblem):
    """Forward may-analysis: the set of defs reaching each block entry,
    with back-edge-carried defs tagged BK in a parallel flag map."""

    def __init__(self, blocks):
        super().__init__(blocks, successors=lambda b: b.succs)

    def key(self, block):
        return block.name

    def initial(self, block):
        return {} if block is self.blocks[0] else None

    def transfer(self, block, state):
        state = dict(state)
        for name in block.defs:
            state[name] = (name, state.get(name, (name, 0))[1] | FW)
        return state

    def flow(self, out, block, succ, is_back):
        if is_back:
            return {k: (v, f | BK) for k, (v, f) in out.items()}
        return dict(out)

    def merge(self, existing, incoming, block):
        return merge_flagged_facts(existing, incoming)


def test_forward_may_fixpoint_with_back_edge_tagging():
    entry, loop, exit_ = _chain(
        Block("entry", defs={"x"}), Block("loop", defs={"y"}), Block("exit")
    )
    loop.succs.insert(0, loop)  # self loop: y wraps a back edge
    ins = solve(_ReachingDefs([entry, loop, exit_]))
    assert ins["entry"] == {}
    # x reached the loop entry forward; once around the back edge it is
    # also BK.  y only enters via the back edge.
    assert ins["loop"]["x"] == ("x", FW | BK)
    assert ins["loop"]["y"] == ("y", FW | BK)
    assert ins["exit"]["x"][1] & FW


def test_unreachable_blocks_stay_none():
    entry, exit_ = _chain(Block("entry"), Block("exit"))
    dead = Block("dead")
    dead.succs.append(exit_)  # an edge out of dead code must not flow
    dead.defs = {"z"}
    ins = solve(_ReachingDefs([entry, dead, exit_]))
    assert ins["dead"] is None
    assert "z" not in ins["exit"]


def test_cfg_problem_back_edge_classification():
    entry, loop, exit_ = _chain(Block("a"), Block("b"), Block("c"))
    loop.succs.insert(0, entry)  # retreating edge b -> a
    problem = _ReachingDefs([entry, loop, exit_])
    edges = {(b.name, s.name): back
             for b in problem.nodes() for s, back in problem.edges(b)}
    assert edges[("b", "a")] is True
    assert edges[("a", "b")] is False
    assert edges[("b", "c")] is False


# ---------------------------------------------------------------------------
# backward direction (liveness)
# ---------------------------------------------------------------------------


class _Liveness(CFGProblem):
    """The classic backward may-analysis; in the solver's orientation the
    per-node state is the live-*out* set and transfer computes live-in."""

    def __init__(self, blocks):
        super().__init__(blocks, successors=lambda b: b.succs,
                         direction=BACKWARD)

    def key(self, block):
        return block.name

    def initial(self, block):
        return set()

    def transfer(self, block, state):
        return (set(state) - block.defs) | block.uses

    def flow(self, out, block, succ, is_back):
        return set(out)

    def merge(self, existing, incoming, block):
        before = len(existing)
        existing |= incoming
        return len(existing) != before


def test_backward_liveness_over_a_loop():
    b0, b1, b2 = _chain(
        Block("b0", defs={"x"}),
        Block("b1", uses={"x"}, defs={"y"}),
        Block("b2", uses={"y"}),
    )
    b1.succs.insert(0, b1)  # b1 loops: x stays live across iterations
    live_out = solve(_Liveness([b0, b1, b2]))
    assert live_out["b0"] == {"x"}
    assert live_out["b1"] == {"x", "y"}
    assert live_out["b2"] == set()


# ---------------------------------------------------------------------------
# lattice helpers
# ---------------------------------------------------------------------------


def test_merge_flagged_facts_widens_flags_only():
    into = {1: ("a", FW)}
    assert merge_flagged_facts(into, {1: ("a", BK)}) is True
    assert into[1] == ("a", FW | BK)
    assert merge_flagged_facts(into, {1: ("a", FW)}) is False
    assert merge_flagged_facts(into, {2: ("b", FW)}) is True
    assert into[2] == ("b", FW)


def test_intersect_must_set():
    s = {1, 2, 3}
    assert intersect_must_set(s, {2, 3, 4}) is True
    assert s == {2, 3}
    assert intersect_must_set(s, {2, 3, 4}) is False


def test_interval_set_operations():
    ivs = interval_add([], (0, 4))
    ivs = interval_add(ivs, (8, 12))
    assert ivs == [(0, 4), (8, 12)]
    # touching intervals coalesce
    assert interval_add(ivs, (4, 8)) == [(0, 12)]
    assert interval_sub([(0, 12)], (4, 8)) == [(0, 4), (8, 12)]
    assert interval_sub([(0, 4)], (0, 4)) == []
    assert interval_intersect([(0, 8)], [(4, 12), (20, 24)]) == [(4, 8)]
    assert intervals_overlap((0, 4), (3, 5))
    assert not intervals_overlap((0, 4), (4, 8))  # half-open


def test_interval_covers():
    covered = [(0, 4), (8, 16)]
    assert interval_covers(covered, [(0, 4)])
    assert interval_covers(covered, [(8, 12), (12, 16)])
    assert not interval_covers(covered, [(2, 10)])  # gap at [4, 8)
    assert not interval_covers([], [(0, 1)])
    assert interval_covers(covered, [])


def test_solver_merge_receives_join_node():
    joins = []

    class _Recording(_ReachingDefs):
        def merge(self, existing, incoming, block):
            joins.append(block.name)
            return merge_flagged_facts(existing, incoming)

    a, c = Block("a", defs={"x"}), Block("c")
    b = Block("b", defs={"y"})
    a.succs = [b, c]
    b.succs = [c]
    solve(_Recording([a, b, c]))
    assert "c" in joins  # c is the diamond's join point
