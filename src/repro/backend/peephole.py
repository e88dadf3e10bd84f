"""Machine-level cleanups run between instruction selection and register
allocation: dead-definition elimination (address arithmetic left over by
load/store folding) keeps register pressure — and therefore spill WARs —
close to what a production back end would produce."""

from __future__ import annotations

from typing import Set

from .mir import MFunction

#: Opcodes with no side effect beyond defining their destination.
_PURE = {
    "mov", "adr", "lea",
    "add", "sub", "mul", "udiv", "sdiv",
    "and", "orr", "eor", "lsl", "lsr", "asr",
    "sxtb", "uxtb", "sxth", "uxth",
    "cmov",
}


def eliminate_dead_defs(fn: MFunction) -> int:
    """Remove pure instructions whose destination vreg is never read."""
    removed = 0
    changed = True
    while changed:
        changed = False
        used: Set[int] = set()
        for instr in fn.instructions():
            for reg in instr.uses():
                used.add(reg.id)
        for block in fn.blocks:
            kept = []
            for instr in block.instructions:
                if (
                    instr.opcode in _PURE
                    and instr.dst is not None
                    and not instr.dst.is_phys
                    and instr.dst.id not in used
                ):
                    removed += 1
                    changed = True
                    continue
                kept.append(instr)
            block.instructions = kept
    return removed
