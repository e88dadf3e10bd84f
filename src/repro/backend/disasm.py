"""Disassembler: objdump-style listings of encoded programs.

Useful for debugging generated code and for golden tests: every flat
instruction with its index, byte address, encoded size, and resolved
operands (branch targets shown as ``-> index (label)``).
"""

from __future__ import annotations

from typing import List, Optional

from .encoder import Program
from .mir import MInstr, StackSlot, VReg


def _operand_str(op) -> str:
    if isinstance(op, VReg):
        return op.phys or f"%{op.name}"
    if isinstance(op, StackSlot):
        return f"[sp, #{op.offset}]" if op.offset >= 0 else f"[slot{op.index}]"
    if isinstance(op, str):
        return op
    return f"#{op}" if isinstance(op, int) else str(op)


def format_instruction(instr: MInstr, index: Optional[int] = None) -> str:
    op = instr.opcode
    if instr.cond:
        op = f"{op}.{instr.cond}"
    parts: List[str] = []
    if instr.dst is not None:
        parts.append(_operand_str(instr.dst))
    if instr.opcode in ("b", "bcc", "bl") and instr.ops:
        target = instr.ops[0]
        label = f" ({instr.comment})" if instr.comment else ""
        parts.append(f"-> {target}{label}")
    elif instr.opcode in ("ldr", "ldrb", "ldrh"):
        base, offset = instr.ops
        parts.append(f"[{_operand_str(base)}, #{offset}]"
                     if not isinstance(base, StackSlot)
                     else _operand_str(base))
    elif instr.opcode in ("str", "strb", "strh"):
        value, base, offset = instr.ops
        parts.append(_operand_str(value))
        parts.append(f"[{_operand_str(base)}, #{offset}]"
                     if not isinstance(base, StackSlot)
                     else _operand_str(base))
    elif instr.opcode == "adr" and instr.comment:
        parts.append(f"#{instr.ops[0]} ({instr.comment})")
    else:
        parts.extend(_operand_str(o) for o in instr.ops)
    if instr.regs:
        parts.append("{" + ", ".join(instr.regs) + "}")
    if instr.cause:
        parts.append(f"!{instr.cause}")
    body = f"{op:<12}" + ", ".join(p for p in parts if p)
    return body.rstrip()


def disassemble(program: Program, start: int = 0, count: Optional[int] = None) -> str:
    """A full (or windowed) listing of the program."""
    lines: List[str] = []
    end = len(program.instrs) if count is None else min(start + count, len(program.instrs))
    address = sum(program.sizes[:start])
    entry_of = {idx: name for name, idx in program.func_entry.items()}
    for idx in range(start, end):
        if idx in entry_of:
            lines.append(f"\n{entry_of[idx]}:")
        instr = program.instrs[idx]
        size = program.sizes[idx]
        lines.append(
            f"  {idx:>6}  0x{address:05x}  ({size}B)  {format_instruction(instr, idx)}"
        )
        address += size
    header = (
        f"; program {program.name}: {len(program.instrs)} instructions, "
        f".text {program.text_size} bytes\n"
    )
    return header + "\n".join(lines).lstrip("\n")


def render_compile_listing(program: Program, env_name: str) -> str:
    """The canonical ``repro compile`` artifact: environment summary line
    plus the full listing, written to stdout or to the ``-o`` file (the
    golden manifest's ``cli`` section pins both)."""
    checkpoints = sum(1 for i in program.instrs if i.opcode == "checkpoint")
    summary = f"; environment: {env_name}, static checkpoints: {checkpoints}\n"
    return summary + disassemble(program) + "\n"
