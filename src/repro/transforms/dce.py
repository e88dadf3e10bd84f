"""Dead code elimination.

Removes unused side-effect-free instructions.  Loads from NVM are pure in
our machine model, so dead loads are removed too — important for WAR
accuracy, since a dead load would otherwise manufacture WAR violations
(and therefore checkpoints) that -O3-compiled code would not contain.
"""

from __future__ import annotations

from ..ir.instructions import Phi


def _removable(instr) -> bool:
    if instr.has_side_effects:
        return False
    if isinstance(instr, Phi):
        return True
    return True  # pure arithmetic, loads, geps, casts, selects


def eliminate_dead_code(function) -> int:
    """Iteratively remove dead instructions; returns the removal count."""
    removed = 0
    changed = True
    while changed:
        changed = False
        counts = function.uses_count()
        for block in function.blocks:
            for instr in list(block.instructions):
                if instr.is_terminator or not _removable(instr):
                    continue
                uses = counts.get(id(instr), 0)
                self_uses = sum(1 for op in instr.operands if op is instr)
                if uses - self_uses == 0:
                    block.remove(instr)
                    removed += 1
                    changed = True
    return removed


def run_on_module(module) -> int:
    return sum(eliminate_dead_code(f) for f in module.defined_functions())
