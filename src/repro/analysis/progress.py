"""Static forward-progress certification (paper §6, Surbatovich et al.).

An intermittently-powered device only completes a program if every
checkpoint-delimited region fits inside one power-on window: correctness
of intermittent execution includes *progress*, not just memory
consistency.  This module is the third leg of the certification stack
after WAR-freedom and idempotence — a sound, machine-level bound on the
worst-case cycle cost of every region.

Three layers:

**Loop trip bounds** (:func:`loop_trip_bounds`) are inferred on the
instrumented middle-end IR: a loop whose dominating exit compares a
constant-step induction variable (:func:`repro.analysis.loops.
find_induction_variables`) against a constant, starting from a constant
entry value, gets a closed-form bound on its body executions.  Anything
else is the lattice top, ``unbounded`` (represented as ``float("inf")``).
The back end preserves block names (instruction selection creates one
machine block per IR block), so the IR bounds transfer to machine loops
by header name.

**Region bounds** are computed on the final machine IR with the
emulator's real :class:`~repro.emulator.costs.CostModel` — the very
costs the differential validator's dynamic runs are charged — not the
middle-end estimate table.  Branches are assumed taken (worst case:
base cost plus the pipeline refill), a checkpoint's commit cost is
charged to the *following* region (matching
``Machine._take_checkpoint``, which records ``region_cycles`` before
resetting), and calls compose callee summaries bottom-up over the
Tarjan SCC order of :mod:`repro.analysis.summaries` (a recursive SCC is
``unbounded``).  Within a function, loops are collapsed innermost-first
into summary nodes and the resulting DAG is evaluated with the generic
worklist solver of :mod:`repro.analysis.dataflow`.

**The IR estimate** (:class:`IRProgress`) runs the same summariser over
the middle-end IR, charging the estimate table :func:`ir_cost` (derived
from the same ``CostModel``).  It is the progress sub-proof of
checkpoint elision (:mod:`repro.analysis.redundancy`), which must bound
a merged region before the back end exists, and it locates the
checkpoints of the region-bound pass (:mod:`repro.core.region_bound`).

Every path set is summarised by four components (the *progress
lattice*, see ``docs/PROGRESS.md``):

* ``through`` — the dearest checkpoint-free entry-to-exit path, or
  ``None`` when every path crosses a checkpoint;
* ``pre``    — per ending checkpoint, the dearest entry-to-*first*-
  checkpoint prefix;
* ``post``   — the dearest last-checkpoint-to-exit suffix;
* ``gaps``   — per ending checkpoint, the dearest complete interior
  checkpoint-to-checkpoint gap.

The **diagnostics** (``progress-*`` family, certify level):

* ``progress-unbounded`` — a loop with no inferable trip bound has a
  checkpoint-free iteration path (or the function is recursive /
  structurally unanalysable): under a short-enough power-on window the
  program livelocks.  Warning normally, error when certifying against
  an explicit ``--budget``.
* ``progress-budget-exceeded`` — a region's worst-case bound exceeds
  the requested cycle budget.
* ``progress-region-bound-unsound`` — the middle end's
  :mod:`repro.core.region_bound` pass promised ``max_region_cycles``,
  but the machine-level bound exceeds it: the IR estimate did not
  survive the back end (spills, prologues, call expansion).

Certificates are per-function JSON dicts (schema in
``docs/PROGRESS.md``); :func:`progress_bound` folds a module's
certificates into the single program-level bound the fault-injection
differential compares dynamic gaps against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..diagnostics import LEVEL_CERTIFY, DiagnosticEngine
from ..emulator.costs import DEFAULT_COSTS, CostModel
from ..ir.instructions import Call, Checkpoint
from ..ir.values import as_signed
from .cfg import Graph, ir_successors
from .dataflow import DataflowProblem, solve
from .dominators import DominatorTree, dominator_tree
from .loops import (
    Loop, affine_chain, find_induction_variables, loop_info, natural_loops,
)

#: The lattice top: no finite bound.
UNBOUNDED = float("inf")

_M32 = 0xFFFFFFFF


class IrreducibleCFG(Exception):
    """The CFG has a cycle its natural loops do not capture (a retreating
    edge whose target does not dominate its source), or is not a DAG
    once they are collapsed, so no structural bound exists.  The caller
    degrades to ``unbounded``."""


# ---------------------------------------------------------------------------
# Loop trip-bound inference (middle-end IR)
# ---------------------------------------------------------------------------

#: ``a pred b`` ⇔ ``b SWAP[pred] a``
_SWAP = {
    "eq": "eq", "ne": "ne",
    "ult": "ugt", "ugt": "ult", "ule": "uge", "uge": "ule",
    "slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
}

_NEGATE = {
    "eq": "ne", "ne": "eq",
    "ult": "uge", "uge": "ult", "ule": "ugt", "ugt": "ule",
    "slt": "sge", "sge": "slt", "sle": "sgt", "sgt": "sle",
}


def _count_true(pred: str, start: int, step: int, limit: int) -> Optional[int]:
    """How many ``k >= 0`` satisfy ``pred(start + k*step, limit)``
    before the first failure; ``None`` when the sequence never fails
    (or wraps in a way the closed forms do not cover)."""
    if pred in ("slt", "sle", "sgt", "sge"):
        s, b = as_signed(start), as_signed(limit)
    else:
        s, b = start & _M32, limit & _M32
    if pred in ("slt", "ult"):
        if s >= b:
            return 0
        return None if step <= 0 else -((s - b) // step)
    if pred in ("sle", "ule"):
        if s > b:
            return 0
        return None if step <= 0 else (b - s) // step + 1
    if pred in ("sgt", "ugt"):
        if s <= b:
            return 0
        return None if step >= 0 else -((b - s) // -step)
    if pred in ("sge", "uge"):
        if s < b:
            return 0
        return None if step >= 0 else (s - b) // -step + 1
    if pred == "ne":
        if s == b:
            return 0
        if step > 0 and b > s and (b - s) % step == 0:
            return (b - s) // step
        if step < 0 and s > b and (s - b) % -step == 0:
            return (s - b) // -step
        return None
    if pred == "eq":
        return 1 if s == b else 0
    return None


def _entry_constant(loop, phi) -> Optional[int]:
    from ..ir.values import Constant

    entering = [v for v, pred in phi.incoming if not loop.contains(pred)]
    if len(entering) == 1 and isinstance(entering[0], Constant):
        return entering[0].value
    return None


def argument_constants(module) -> Dict[str, Dict[int, Tuple[int, ...]]]:
    """Whole-program constant-argument sets: for each defined function,
    the constant values each parameter takes across *all* call sites in
    the module.  A parameter that any call site passes a non-constant
    value for (or a function with no call sites at all) is absent — its
    value set is unknown.

    Mini-C has no indirect calls and ``main`` is the only external
    entry, so every way a parameter can be bound appears as a literal
    ``Call`` operand somewhere in the module."""
    from ..ir.instructions import Call
    from ..ir.values import Constant

    defined = {fn.name: fn for fn in module.defined_functions()}
    values: Dict[str, Dict[int, set]] = {name: {} for name in defined}
    poisoned: Dict[str, set] = {name: set() for name in defined}
    called: set = set()
    for fn in defined.values():
        for block in fn.blocks:
            for instr in block.instructions:
                if not isinstance(instr, Call):
                    continue
                callee = instr.callee.name
                if callee not in defined:
                    continue
                called.add(callee)
                for index, arg in enumerate(instr.args):
                    if isinstance(arg, Constant):
                        values[callee].setdefault(index, set()).add(arg.value)
                    else:
                        poisoned[callee].add(index)
    return {
        name: {
            index: tuple(sorted(vals))
            for index, vals in per_arg.items()
            if index not in poisoned[name]
        }
        for name, per_arg in values.items()
        if name in called
    }


def _limit_values(value, offset: int,
                  arg_values: Optional[Dict[int, Tuple[int, ...]]]):
    """The constant values an affine-chased loop limit can take: a
    literal constant, or a parameter whose call sites all pass
    constants.  ``None`` when the limit is not statically enumerable."""
    from ..ir.values import Argument, Constant

    if isinstance(value, Constant):
        return (value.value + offset,)
    if isinstance(value, Argument) and arg_values:
        vals = arg_values.get(value.index)
        if vals:
            return tuple(v + offset for v in vals)
    return None


def loop_trip_bounds(
    function,
    arg_values: Optional[Dict[int, Tuple[int, ...]]] = None,
) -> Dict[str, float]:
    """Per loop-header block name, the maximum number of body executions
    each time the loop is entered (:data:`UNBOUNDED` when no dominating
    exit yields a closed form).

    Only exits that dominate every latch may bound the trip count — a
    test inside a conditional can be skipped by an iteration, so it
    guarantees nothing.  The inferred count is widened by one so both
    top- and bottom-tested rotations are covered.
    """
    from ..ir.instructions import Branch, CondBranch, ICmp

    domtree = dominator_tree(function)
    info = loop_info(function, domtree)
    bounds: Dict[str, float] = {}
    for loop in info.loops:
        ivs = {
            id(phi): (phi, step)
            for phi, step in find_induction_variables(loop).values()
        }
        best = UNBOUNDED
        for inside, _outside in loop.exit_edges():
            if not all(domtree.dominates(inside, latch) for latch in loop.latches):
                continue
            term = inside.terminator
            if isinstance(term, Branch):
                best = min(best, 1)  # unconditionally leaves the loop
                continue
            if not isinstance(term, CondBranch):
                continue
            exits_true = not loop.contains(term.true_target)
            exits_false = not loop.contains(term.false_target)
            if exits_true and exits_false:
                best = min(best, 1)
                continue
            cond = term.condition
            if not isinstance(cond, ICmp):
                continue
            base_l, off_l = affine_chain(cond.lhs)
            base_r, off_r = affine_chain(cond.rhs)
            pred = cond.predicate
            if id(base_l) in ivs:
                phi, step = ivs[id(base_l)]
                offset = off_l
                limits = _limit_values(base_r, off_r, arg_values)
            elif id(base_r) in ivs:
                phi, step = ivs[id(base_r)]
                offset = off_r
                limits = _limit_values(base_l, off_l, arg_values)
                pred = _SWAP[pred]
            else:
                continue
            if not limits:
                continue
            init = _entry_constant(loop, phi)
            if init is None:
                continue
            continue_pred = _NEGATE[pred] if exits_true else pred
            counts = [
                _count_true(continue_pred, init + offset, step, limit)
                for limit in limits
            ]
            if all(count is not None for count in counts):
                best = min(best, max(counts) + 1)
        bounds[loop.header.name] = best
    return bounds


# ---------------------------------------------------------------------------
# The progress lattice: path summaries over machine IR
# ---------------------------------------------------------------------------

class PathSummary:
    """Worst-case cycle summary of a set of paths (see module docs)."""

    __slots__ = ("through", "pre", "post", "gaps")

    def __init__(self, through=0, pre=None, post=None, gaps=None):
        self.through: Optional[float] = through
        self.pre: Dict[str, float] = pre or {}
        self.post: Optional[float] = post
        self.gaps: Dict[str, float] = gaps or {}

    def copy(self) -> "PathSummary":
        return PathSummary(self.through, dict(self.pre), self.post,
                           dict(self.gaps))

    def __repr__(self):
        return (f"<PathSummary through={self.through} pre={self.pre} "
                f"post={self.post} gaps={self.gaps}>")


def _merge_max(into: Dict[str, float], new: Dict[str, float],
               shift: float = 0) -> bool:
    changed = False
    for label, value in new.items():
        value = value + shift
        if into.get(label, -1) < value:
            into[label] = value
            changed = True
    return changed


def _seq(a: PathSummary, b: PathSummary) -> PathSummary:
    """Sequential composition: every path of ``a`` followed by every
    path of ``b``."""
    out = PathSummary(
        through=(a.through + b.through
                 if a.through is not None and b.through is not None else None),
        pre=dict(a.pre),
        post=b.post,
        gaps=dict(a.gaps),
    )
    if a.through is not None:
        _merge_max(out.pre, b.pre, a.through)
    if a.post is not None and b.through is not None:
        candidate = a.post + b.through
        if out.post is None or candidate > out.post:
            out.post = candidate
    _merge_max(out.gaps, b.gaps)
    if a.post is not None:
        _merge_max(out.gaps, b.pre, a.post)
    return out


def _join_into(existing: PathSummary, incoming: PathSummary) -> bool:
    """Path-alternative join (pointwise max); mutates ``existing``."""
    changed = False
    if incoming.through is not None and (
        existing.through is None or incoming.through > existing.through
    ):
        existing.through = incoming.through
        changed = True
    if incoming.post is not None and (
        existing.post is None or incoming.post > existing.post
    ):
        existing.post = incoming.post
        changed = True
    changed |= _merge_max(existing.pre, incoming.pre)
    changed |= _merge_max(existing.gaps, incoming.gaps)
    return changed


def _power(body: PathSummary, trips: float) -> PathSummary:
    """``body`` iterated up to ``trips`` times (``trips`` may be
    :data:`UNBOUNDED`; the caller clamps to at least one)."""
    if trips <= 1:
        return body.copy()
    if body.through is None:
        # Every iteration checkpoints: iterating only adds the
        # wrap-around gap (last checkpoint of one iteration to the first
        # of the next); an unbounded trip count is still fully bounded.
        out = PathSummary(None, dict(body.pre), body.post, dict(body.gaps))
        if body.post is not None:
            _merge_max(out.gaps, body.pre, body.post)
        return out
    if trips == UNBOUNDED:
        out = PathSummary(
            UNBOUNDED,
            {label: UNBOUNDED for label in body.pre},
            UNBOUNDED if body.post is not None else None,
            dict(body.gaps),
        )
        if body.post is not None:
            for label in body.pre:
                out.gaps[label] = UNBOUNDED
        return out
    through = body.through
    out = PathSummary(
        through * trips,
        {label: value + through * (trips - 1)
         for label, value in body.pre.items()},
        body.post + through * (trips - 1) if body.post is not None else None,
        dict(body.gaps),
    )
    if body.post is not None:
        _merge_max(out.gaps, body.pre, body.post + through * (trips - 2))
    return out


# ---------------------------------------------------------------------------
# The loop forest: the shared finder plus a reducibility check
# ---------------------------------------------------------------------------

def loop_forest(entry, successors) -> List[Loop]:
    """The natural loops (:func:`~repro.analysis.loops.natural_loops`) of
    the function whose entry block is ``entry``; ``successors`` is a
    function from a block to its successor blocks (a method on machine
    blocks, a property on IR blocks).

    Raises :class:`IrreducibleCFG` when a retreating edge (one going
    backwards in reverse postorder) is not a back edge: its target does
    not dominate its source, so the loops do not capture every cycle."""
    domtree = DominatorTree(Graph(entry, successors))
    graph = domtree.graph
    for source, targets in enumerate(graph.succs):
        for target in targets:
            if target <= source and not domtree.dominates_number(target, source):
                raise IrreducibleCFG(
                    f"retreating edge {graph.nodes[source].name} → "
                    f"{graph.nodes[target].name} whose target does not "
                    f"dominate its source"
                )
    return natural_loops(domtree)


# ---------------------------------------------------------------------------
# Region condensation + the worklist solve
# ---------------------------------------------------------------------------

class _RegionProblem(DataflowProblem):
    """Forward max-cost propagation over one condensed (DAG) region.

    Nodes are block names or collapsed-loop headers; the in-state at a
    node is the :class:`PathSummary` of all region-entry→node-entry
    paths.  ``transfer`` appends the node's own summary; joins take the
    pointwise maximum.  The condensation is guaranteed acyclic before
    the solver runs, so the round-robin fixpoint is one pass."""

    def __init__(self, order, edges, summaries, entry):
        self._order = order            # node keys, topologically sorted
        self._edges = edges            # key -> [key]
        self._summaries = summaries    # key -> PathSummary
        self._entry = entry

    def nodes(self):
        return self._order

    def key(self, node):
        return node

    def edges(self, node):
        for succ in self._edges[node]:
            yield succ, False

    def initial(self, node):
        return PathSummary() if node == self._entry else None

    def transfer(self, node, state):
        return _seq(state, self._summaries[node])

    def flow(self, out, node, succ, is_back):
        return out.copy()

    def merge(self, existing, incoming, node):
        return _join_into(existing, incoming)


def _barrier(label: str, cost: float) -> PathSummary:
    """An instruction that ends the open gap at ``label`` and charges
    ``cost`` to the region it starts: a checkpoint (its commit cost, as
    the emulator accounts ``region_cycles``), or at IR level a call whose
    callee's entry checkpoint ends the gap."""
    return PathSummary(None, {label: 0}, cost, {})


def _splice(label: str, cost: float, callee: PathSummary) -> PathSummary:
    """A call costing ``cost`` that splices in its callee's summary: the
    callee's prefix to its first checkpoint ends the caller's gap at
    ``label`` and its suffix opens the next (its interior gaps are
    bounded in its own summary)."""
    pre = {label: cost + max(callee.pre.values())} if callee.pre else {}
    through = None if callee.through is None else cost + callee.through
    return PathSummary(through, pre, callee.post, {})


def _block_summary(block, costs: CostModel,
                   callee_summaries: Dict[str, PathSummary]) -> PathSummary:
    """Fold one machine block's instructions into a summary.

    Branches charge the taken cost (base + pipeline refill) — the sound
    worst case.  A checkpoint ends the current gap *before* its commit
    cost and charges the commit to the following region, exactly as the
    emulator accounts ``region_cycles``.  A call splices in the callee's
    summary (its interior gaps are certified in the callee's own
    certificate)."""
    summary = PathSummary()
    for index, instr in enumerate(block.instructions):
        op = instr.opcode
        if op == "checkpoint":
            atom = _barrier(f"{block.name}@{index}", costs.checkpoint_cycles)
        elif op == "bl":
            callee = instr.ops[0]
            target = callee_summaries.get(callee)
            if target is None:
                # Unknown or external callee: nothing is bounded.
                atom = PathSummary(UNBOUNDED, {}, None, {})
            else:
                atom = _splice(f"{block.name}@{index}:bl:{callee}",
                               costs.cost_of(instr) + costs.pipeline_refill,
                               target)
        elif op in ("b", "bcc", "bx_lr"):
            atom = PathSummary(costs.cost_of(instr) + costs.pipeline_refill)
        else:
            atom = PathSummary(costs.cost_of(instr))
        summary = _seq(summary, atom)
    return summary


def _condense(members, entry: str, loops: List[Loop],
              succs: Dict[str, List[str]],
              node_summaries: Dict[object, PathSummary],
              iteration: bool):
    """Evaluate one region (a whole function body, or a loop body with
    its back edges cut) over its condensed node graph.

    Returns ``(exit summary, iteration summary or None)``: the exit
    summary joins every path leaving the region or ending in it (at a
    return or in a loop that never exits), the iteration summary joins
    the paths reaching a latch (only requested for loops,
    ``iteration=True``)."""
    top: Dict[str, object] = {}
    for name in members:
        top[name] = name
    for loop in loops:
        key = ("loop", loop.header.name)
        for block in loop.blocks:
            top[block.name] = key

    keys: List[object] = []
    for name in members:  # membership order = layout order
        key = top[name]
        if key not in node_summaries:
            raise IrreducibleCFG(f"node {key} has no summary")
        if key not in keys:
            keys.append(key)
    entry_key = top[entry]

    edges: Dict[object, List[object]] = {key: [] for key in keys}
    exits, moving = set(), set()
    for name in members:
        if not succs[name]:
            exits.add(top[name])
        for succ in succs[name]:
            if succ not in top:
                exits.add(top[name])
                continue
            source, target = top[name], top[succ]
            if source == target:
                continue
            moving.add(source)
            if target == entry_key:
                if iteration:
                    continue  # the loop's own back edge
                raise IrreducibleCFG(f"residual back edge into {entry}")
            if isinstance(target, tuple) and succ != target[1]:
                raise IrreducibleCFG(f"side entry into loop at {target[1]}")
            if target not in edges[source]:
                edges[source].append(target)
    exit_sources = [key for key in keys if key in exits
                    or isinstance(key, tuple) and key not in moving]

    # Topological order (Kahn); residual cycles mean the positional
    # back-edge classification missed something — degrade, don't loop.
    incoming = {key: 0 for key in keys}
    for source in keys:
        for target in edges[source]:
            incoming[target] += 1
    ready = [key for key in keys if incoming[key] == 0]
    topo: List[object] = []
    while ready:
        key = ready.pop(0)
        topo.append(key)
        for target in edges[key]:
            incoming[target] -= 1
            if incoming[target] == 0:
                ready.append(target)
    if len(topo) != len(keys):
        raise IrreducibleCFG("condensed region is not acyclic")

    states = solve(_RegionProblem(topo, edges, node_summaries, entry_key))

    def out_state(key) -> Optional[PathSummary]:
        state = states.get(key)
        if state is None:
            return None
        return _seq(state, node_summaries[key])

    exit_summary: Optional[PathSummary] = None
    for key in exit_sources:
        out = out_state(key)
        if out is None:
            continue
        if exit_summary is None:
            exit_summary = out
        else:
            _join_into(exit_summary, out)

    iteration_summary: Optional[PathSummary] = None
    if iteration:
        # latches: any member block with an edge back to the entry block
        latch_keys = []
        for name in members:
            if entry in succs[name]:
                key = top[name]
                if key not in latch_keys:
                    latch_keys.append(key)
        for key in latch_keys:
            out = out_state(key)
            if out is None:
                continue
            if iteration_summary is None:
                iteration_summary = out
            else:
                _join_into(iteration_summary, out)
    return exit_summary, iteration_summary


def _summarize(blocks, successors, block_summaries: Dict[str, PathSummary],
               trips: Dict[str, float]):
    """Whole-function path summary plus per-loop metadata: the one
    summariser behind the machine certificate and the IR estimate.

    ``blocks`` are the function's blocks in layout order, entry first,
    and ``successors`` is as for :func:`loop_forest`;
    ``block_summaries`` maps each block name to its own summary, and
    ``trips`` each loop-header name to its trip bound (missing:
    :data:`UNBOUNDED`).  Loops collapse innermost-first into summary
    nodes — the body iterated up to its trip bound, then one partial pass
    to the exit edge — and the function body is solved over the
    resulting DAG."""
    loops = loop_forest(blocks[0], successors)
    succs = {block.name: [succ.name for succ in successors(block)]
             for block in blocks}
    node_summaries: Dict[object, PathSummary] = dict(block_summaries)

    loops_meta: List[Dict[str, object]] = []
    # Innermost first: children before parents.
    for loop in sorted(loops, key=lambda l: len(l.blocks)):
        header = loop.header.name
        bound = trips.get(header, UNBOUNDED)
        members = [b.name for b in blocks if loop.contains(b)]
        partial, body = _condense(
            members, header, loop.children, succs, node_summaries,
            iteration=True,
        )
        if body is None:
            raise IrreducibleCFG(f"loop at {header} has no latch path")
        iterated = _power(body, max(bound, 1))
        node_summaries[("loop", header)] = (
            _seq(iterated, partial) if partial is not None else iterated
        )
        loops_meta.append({
            "header": header,
            "trip_bound": None if bound == UNBOUNDED else int(bound),
            "checkpoint_free_iteration": body.through is not None,
        })

    members = [block.name for block in blocks]
    top_loops = [loop for loop in loops if loop.parent is None]
    summary, _ = _condense(
        members, blocks[0].name, top_loops, succs, node_summaries,
        iteration=False,
    )
    if summary is None:
        summary = PathSummary(UNBOUNDED, {}, None, {})
    return summary, loops_meta


# ---------------------------------------------------------------------------
# Certificates + diagnostics
# ---------------------------------------------------------------------------

def _bound_json(value: Optional[float]):
    if value is None or value == UNBOUNDED:
        return None
    return int(value)


def _certificate(name: str, summary: PathSummary,
                 loops_meta: List[Dict[str, object]],
                 notes: List[str]) -> Dict[str, object]:
    regions: List[Dict[str, object]] = []
    for label, value in sorted(summary.pre.items()):
        regions.append({"kind": "entry", "to": label,
                        "bound": _bound_json(value)})
    for label, value in sorted(summary.gaps.items()):
        regions.append({"kind": "interior", "to": label,
                        "bound": _bound_json(value)})
    if summary.post is not None:
        regions.append({"kind": "exit", "to": "return",
                        "bound": _bound_json(summary.post)})
    if summary.through is not None:
        regions.append({"kind": "through", "to": "return",
                        "bound": _bound_json(summary.through)})
    bounds = [region["bound"] for region in regions]
    unbounded = any(bound is None for bound in bounds)
    max_bound = None if unbounded or not bounds else max(bounds)
    return {
        "function": name,
        "verdict": "unbounded" if unbounded else "bounded",
        "max_bound": max_bound,
        "regions": regions,
        "loops": loops_meta,
        "notes": notes,
    }


def certify_module_progress(
    ir_module,
    mmodule,
    cost_model: Optional[CostModel] = None,
    engine: Optional[DiagnosticEngine] = None,
    budget: Optional[int] = None,
    region_budget: Optional[int] = None,
):
    """Certify forward progress of a lowered module.

    ``ir_module`` is the instrumented middle-end IR (trip bounds),
    ``mmodule`` the lowered machine module (cycle costs).  ``budget``
    is the caller's cycle budget per region (``progress-*`` findings
    harden to errors against it); ``region_budget`` is the middle end's
    own ``max_region_cycles`` promise, cross-checked at machine level.
    Returns ``(engine, certificates)``."""
    from .summaries import _call_graph_sccs, _calls_self

    costs = cost_model or DEFAULT_COSTS
    engine = engine or DiagnosticEngine()
    certificates: List[Dict[str, object]] = []
    summaries: Dict[str, PathSummary] = {}
    unbounded_severity = engine.error if budget is not None else engine.warning

    arg_constants = argument_constants(ir_module)
    trip_bounds = {
        fn.name: loop_trip_bounds(fn, arg_constants.get(fn.name))
        for fn in ir_module.defined_functions()
    }

    for scc in _call_graph_sccs(ir_module):
        recursive = len(scc) > 1 or _calls_self(scc[0])
        for fn in scc:
            mfn = mmodule.functions.get(fn.name)
            if mfn is None:
                continue
            notes: List[str] = []
            if recursive:
                summary = PathSummary(UNBOUNDED, {}, None, {})
                loops_meta: List[Dict[str, object]] = []
                notes.append("recursive call cycle: no structural bound")
                unbounded_severity(
                    "progress-unbounded",
                    f"@{fn.name}: recursive call cycle "
                    f"({', '.join(f.name for f in scc)}) — regions spanning "
                    f"the recursion have no inferable cycle bound",
                    function=fn.name, level=LEVEL_CERTIFY,
                )
            else:
                try:
                    summary, loops_meta = _summarize(
                        mfn.blocks, lambda block: block.successors(),
                        {block.name: _block_summary(block, costs, summaries)
                         for block in mfn.blocks},
                        trip_bounds.get(fn.name, {}),
                    )
                except IrreducibleCFG as exc:
                    summary = PathSummary(UNBOUNDED, {}, None, {})
                    loops_meta = []
                    notes.append(f"unanalysable control flow: {exc}")
                    unbounded_severity(
                        "progress-unbounded",
                        f"@{fn.name}: {exc} — no structural region bound",
                        function=fn.name, level=LEVEL_CERTIFY,
                    )
                for meta in loops_meta:
                    if meta["trip_bound"] is None and \
                            meta["checkpoint_free_iteration"]:
                        unbounded_severity(
                            "progress-unbounded",
                            f"@{fn.name}: loop at {meta['header']} has no "
                            f"inferable trip bound and a checkpoint-free "
                            f"iteration path — it can livelock under a "
                            f"short power-on window",
                            function=fn.name, level=LEVEL_CERTIFY,
                        )
            summaries[fn.name] = summary
            certificate = _certificate(fn.name, summary, loops_meta, notes)
            certificates.append(certificate)

            max_bound = certificate["max_bound"]
            if budget is not None and certificate["verdict"] == "bounded" \
                    and max_bound is not None and max_bound > budget:
                engine.error(
                    "progress-budget-exceeded",
                    f"@{fn.name}: worst-case region bound {max_bound} "
                    f"cycles exceeds the progress budget {budget}",
                    function=fn.name, level=LEVEL_CERTIFY,
                )
            if region_budget is not None and max_bound is not None \
                    and max_bound > region_budget:
                engine.warning(
                    "progress-region-bound-unsound",
                    f"@{fn.name}: the middle-end region_bound pass promised "
                    f"≤ {region_budget} estimated cycles per region, but the "
                    f"machine-level bound is {max_bound} — the IR estimate "
                    f"did not survive the back end",
                    function=fn.name, level=LEVEL_CERTIFY,
                )
    certificates.sort(key=lambda cert: cert["function"])
    return engine, certificates


def progress_bound(certificates: List[Dict[str, object]]) -> Optional[int]:
    """Fold per-function certificates into the program-level region
    bound (``None`` = unbounded).

    The entry function's summary already composes callee prologue and
    epilogue gaps at every call site, so only *interior* gaps of the
    other functions (certified locally, spliced out of call atoms) need
    to be folded in on top of the entry function's full region list."""
    best = 0
    for certificate in certificates:
        is_entry = certificate["function"] == "main"
        for region in certificate["regions"]:
            if not is_entry and region["kind"] not in ("interior",):
                continue
            if region["bound"] is None:
                return None
            if region["bound"] > best:
                best = region["bound"]
    return best


def module_progress_verdict(certificates) -> str:
    """``bounded`` iff every certificate is bounded."""
    return (
        "bounded"
        if all(c["verdict"] == "bounded" for c in certificates)
        else "unbounded"
    )


# ---------------------------------------------------------------------------
# The IR estimate: the middle-end cost table and the elision bound
# ---------------------------------------------------------------------------

#: Rough middle-end cycle estimate of an opcode the table does not list
#: (the back end expands some IR instructions into several machine ones).
_DEFAULT_COST = 2


def _derive_costs(model: CostModel) -> Dict[str, int]:
    """Build the middle-end estimate table from the emulator's real
    :class:`~repro.emulator.costs.CostModel`, so the two cannot silently
    diverge (``tests/test_region_bound.py`` pins the parity).

    The ``+`` terms are the back end's expansion overhead per IR op:
    one address-materialising instruction around each memory access,
    argument marshalling plus the taken-``bl`` refill around each call,
    and the ``mul``/``sub`` fix-up pair the remainder lowering emits
    after its division."""
    base = model.base_costs
    div = base["udiv"]
    return {
        "load": base["ldr"] + 1,
        "store": base["str"] + 1,
        # plus the callee, which is bounded separately
        "call": base["bl"] + model.pipeline_refill + 4,
        "udiv": div + 1,
        "sdiv": base["sdiv"] + 1,
        "urem": div + base["mul"] + base["sub"] + 2,
        "srem": base["sdiv"] + base["mul"] + base["sub"] + 2,
        "checkpoint": base["checkpoint"],  # charged as checkpoint_cycles
        "phi": 0,
    }


_COSTS = _derive_costs(DEFAULT_COSTS)


def ir_cost(instr) -> int:
    """Estimated cycles of one middle-end instruction."""
    return _COSTS.get(instr.opcode, _DEFAULT_COST)


def _peak(summary: PathSummary) -> float:
    """The dearest gap a summary closes or leaves open."""
    bounds = list(summary.pre.values()) + list(summary.gaps.values())
    bounds += [b for b in (summary.post, summary.through) if b is not None]
    return max(bounds, default=0.0)


class IRProgress:
    """Worst-case estimated checkpoint-free gap of a middle-end function,
    with any of its checkpoints treated as absent, and where the next
    region-bound checkpoint goes.

    The middle-end analogue of :func:`certify_module_progress`, on the
    same summariser: per-block atoms over :func:`ir_cost`, loops
    collapsed innermost-first under :func:`loop_trip_bounds`, and one
    call model: transparent callees are spliced in bottom-up (they have
    no entry checkpoint, so their interior joins the caller's open
    region) and opaque calls end the region.  The elision pass's progress
    sub-proof reads :meth:`worst_gap`; the region-bound pass
    (:mod:`repro.core.region_bound`) inserts at :meth:`first_overflow`.
    A recursive or irreducible shape yields :data:`UNBOUNDED`.
    """

    def __init__(self, function, summaries=None, arg_constants=None):
        self.function = function
        self.summaries = summaries
        if arg_constants is None and function.parent is not None:
            arg_constants = argument_constants(function.parent)
        #: per-function constant-argument sets for trip-bound inference
        #: (:func:`argument_constants`)
        self.arg_constants = arg_constants or {}
        self._callee_memo: Dict[str, PathSummary] = {}
        self._trips_memo: Dict[str, Dict[str, float]] = {}
        self._visiting: set = set()

    def _trip_bounds(self, function) -> Dict[str, float]:
        bounds = self._trips_memo.get(function.name)
        if bounds is None:
            bounds = loop_trip_bounds(
                function, self.arg_constants.get(function.name)
            )
            self._trips_memo[function.name] = bounds
        return bounds

    def _callee_summary(self, callee) -> PathSummary:
        summary = self._callee_memo.get(callee.name)
        if summary is not None:
            return summary
        if callee.is_declaration or callee.name in self._visiting:
            # external body or recursion: no finite composition
            summary = PathSummary(UNBOUNDED, {}, None, {})
        else:
            self._visiting.add(callee.name)
            try:
                summary = self._summarize(callee, frozenset())
            except IrreducibleCFG:
                summary = PathSummary(UNBOUNDED, {}, None, {})
            finally:
                self._visiting.discard(callee.name)
        self._callee_memo[callee.name] = summary
        return summary

    def _atom(self, block, index, instr) -> PathSummary:
        if isinstance(instr, Checkpoint):
            return _barrier(f"{block.name}@{index}", ir_cost(instr))
        if not isinstance(instr, Call):
            return PathSummary(ir_cost(instr))
        if (self.summaries is not None
                and self.summaries.is_transparent_call(instr)):
            return _splice(f"{block.name}@{index}:call:{instr.callee.name}",
                           ir_cost(instr), self._callee_summary(instr.callee))
        # opaque callee: its machine-level entry checkpoint ends the gap
        return _barrier(f"{block.name}@{index}:call", ir_cost(instr))

    def _block_summary(self, block, ignore) -> PathSummary:
        summary = PathSummary()
        for index, instr in enumerate(block.instructions):
            # an abstractly-elided checkpoint is absent
            if id(instr) not in ignore:
                summary = _seq(summary, self._atom(block, index, instr))
        return summary

    def _summarize(self, function, ignore, probes=False) -> PathSummary:
        """The function's summary; with ``probes``, a label on each block's
        entry records the open gap without closing it, and a transparent
        function starts with its call's cost, where its regions begin."""
        blocks = {block.name: self._block_summary(block, ignore)
                  for block in function.blocks}
        if probes:
            for block in function.blocks:
                probe = PathSummary(0, {f"{block.name}:entry": 0})
                blocks[block.name] = _seq(probe, blocks[block.name])
            if self.summaries is not None \
                    and function.name in self.summaries.transparent:
                entry = function.entry.name
                call = PathSummary(_COSTS["call"])
                blocks[entry] = _seq(call, blocks[entry])
        summary, _loops = _summarize(function.blocks, ir_successors, blocks,
                                     self._trip_bounds(function))
        return summary

    def worst_gap(self, ignore=frozenset()) -> float:
        """The largest checkpoint-free bound anywhere in the function with
        the ``ignore`` checkpoints (instruction ids) treated as absent
        (:data:`UNBOUNDED` when any region has no structural bound)."""
        try:
            return _peak(self._summarize(self.function, frozenset(ignore)))
        except IrreducibleCFG:
            return UNBOUNDED

    def first_overflow(self, budget: int):
        """``(block, index)`` where the next checkpoint must go for every
        estimated gap to fit ``budget``, or ``None`` when they all do.

        One probed solve gives the dearest gap entering each block, and a
        scan of each block in reverse postorder, atom by atom, returns the
        first point where a gap crosses the budget.  A block entered over
        budget is past its crossing until its first barrier: the crossing
        lies upstream, or, when no crossing is left, at a loop header whose
        iterations build the gap, which then gets a checkpoint after its
        phis, on every iteration.  A header gets at most one, and a
        crossing is returned only if a checkpoint's charge and the
        instruction fit the budget, so inserting until ``None`` ends.
        Raises ``ValueError`` when they do not, when the CFG is
        irreducible, or when a reachable block has no estimate."""
        name = self.function.name
        try:
            summary = self._summarize(self.function, frozenset(), probes=True)
        except IrreducibleCFG as exc:
            raise ValueError(
                f"@{name}: {exc} — no structural region bound") from None
        graph = Graph(self.function.entry, ir_successors)
        header = None
        for number, block in enumerate(graph.nodes):
            label = f"{block.name}:entry"
            gap = max(summary.pre.get(label, -1), summary.gaps.get(label, -1))
            if gap < 0:
                raise ValueError(f"@{name}: no estimate reaches {block.name}")
            start = block.first_insertion_index()
            if header is None and gap > budget \
                    and max(graph.preds[number], default=-1) >= number \
                    and not isinstance(block.instructions[start], Checkpoint):
                header = block, start
            for index, instr in enumerate(block.instructions):
                atom = self._atom(block, index, instr)
                step = _seq(PathSummary(None, {}, gap, {}), atom)
                if gap <= budget < _peak(step):
                    fresh = _peak(_seq(_barrier("", _COSTS["checkpoint"]),
                                       atom))
                    if fresh > budget:
                        raise ValueError(
                            f"@{name}: budget {budget} is below the estimate "
                            f"of one {instr.opcode} ({fresh} cycles)")
                    return block, max(index, start)
                gap = step.post
        return header


__all__ = [
    "UNBOUNDED", "IrreducibleCFG", "PathSummary",
    "argument_constants", "loop_trip_bounds", "loop_forest",
    "certify_module_progress", "progress_bound", "module_progress_verdict",
    "ir_cost", "IRProgress",
]
