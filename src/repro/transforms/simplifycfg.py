"""CFG simplification: unreachable-block removal, constant-branch folding,
linear block merging, and forwarding-block elimination.

Running this after IR generation turns the front end's rotated loops into
the single-basic-block form that the Loop Write Clusterer targets
(paper Figure 3 shows loops in exactly this shape).
"""

from __future__ import annotations

from ..analysis.cfg import Graph, ir_successors
from ..ir.instructions import Branch, CondBranch
from ..ir.values import Constant


def simplify_cfg(function) -> bool:
    """Run all simplifications to a fixed point; True if anything changed."""
    changed_any = False
    while True:
        changed = (
            _fold_constant_branches(function)
            | _remove_unreachable(function)
            | _merge_linear_blocks(function)
            | _remove_forwarding_blocks(function)
        )
        changed_any |= changed
        if not changed:
            return changed_any


def _fold_constant_branches(function) -> bool:
    changed = False
    for block in function.blocks:
        term = block.terminator
        if not isinstance(term, CondBranch):
            continue
        if term.true_target is term.false_target:
            target = term.true_target
        elif isinstance(term.condition, Constant):
            target = term.true_target if term.condition.value else term.false_target
            dead = term.false_target if term.condition.value else term.true_target
            if dead is not target:
                for phi in dead.phis():
                    phi.remove_incoming(block)
        else:
            continue
        block.remove(term)
        block.append(Branch(target))
        changed = True
    return changed


def _remove_unreachable(function) -> bool:
    reachable = Graph(function.entry, ir_successors)
    dead = [b for b in function.blocks if b not in reachable]
    if not dead:
        return False
    dead_ids = {id(b) for b in dead}
    for block in function.blocks:
        if id(block) in dead_ids:
            continue
        for phi in block.phis():
            for pred in list(phi.incoming_blocks):
                if id(pred) in dead_ids:
                    phi.remove_incoming(pred)
    for block in dead:
        function.remove_block(block)
    return True


def _merge_linear_blocks(function) -> bool:
    """Merge B -> S when B's only successor is S and S's only pred is B."""
    changed = False
    for block in list(function.blocks):
        if block.parent is None:
            continue
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        succ = term.target
        if succ is block or succ is function.entry:
            continue
        if len(succ.predecessors) != 1:
            continue
        # Fold single-incoming phis of succ.
        for phi in list(succ.phis()):
            incoming = phi.incoming_for(block)
            succ.remove(phi)
            function.replace_all_uses(phi, incoming)
        block.remove(term)
        for instr in list(succ.instructions):
            succ.remove(instr)
            block.append(instr)
        # succ's successors now see `block` as their predecessor.
        for nxt in block.successors:
            for phi in nxt.phis():
                for i, pred in enumerate(phi.incoming_blocks):
                    if pred is succ:
                        phi.incoming_blocks[i] = block
        function.remove_block(succ)
        changed = True
    return changed


def _remove_forwarding_blocks(function) -> bool:
    """Delete blocks that contain only ``br X`` (no phis)."""
    changed = False
    for block in list(function.blocks):
        if block is function.entry or block.parent is None:
            continue
        if len(block.instructions) != 1:
            continue
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        target = term.target
        if target is block:
            continue
        preds = block.predecessors
        # Abort if any pred already branches to target: merging the edges
        # would leave target's phis ambiguous.
        if any(target in p.successors for p in preds):
            continue
        target_phis = target.phis()
        for pred in preds:
            pred.replace_successor(block, target)
            for phi in target_phis:
                value = phi.incoming_for(block)
                phi.add_incoming(value, pred)
        for phi in target_phis:
            phi.remove_incoming(block)
        function.remove_block(block)
        changed = True
    return changed


def run_on_module(module) -> bool:
    changed = False
    for function in module.defined_functions():
        changed |= simplify_cfg(function)
    return changed
