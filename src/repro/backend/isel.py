"""Instruction selection: IR -> machine IR with virtual registers.

Includes SSA destruction (phi elimination via sequentialised parallel
copies) and compare/branch fusion.  The output is fully explicit: every
block ends with branches, every call carries its argument vregs, and
``ret``/``checkpoint`` remain pseudo-ops expanded by frame lowering.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    Checkpoint,
    CondBranch,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue
from .mir import ARG_REGS, PREDICATE_TO_COND, MBlock, MFunction, MInstr, VReg

_BINOP_TO_MOP = {
    "add": "add", "sub": "sub", "mul": "mul",
    "udiv": "udiv", "sdiv": "sdiv",
    "and": "and", "or": "orr", "xor": "eor",
    "shl": "lsl", "lshr": "lsr", "ashr": "asr",
}

#: ops accepting a small immediate second operand
_IMM_OK = {"add", "sub", "and", "orr", "eor", "lsl", "lsr", "asr"}


class SelectionError(Exception):
    pass


def _mem_op(size: int, load: bool) -> str:
    base = "ldr" if load else "str"
    return base + {1: "b", 2: "h", 4: ""}[size]


class InstructionSelector:
    """Lowers one IR function to an :class:`MFunction`."""

    def __init__(self, ir_function):
        self.ir_function = ir_function
        self.mfn = MFunction(ir_function.name)
        self.value_map: Dict[int, VReg] = {}
        self.slot_map: Dict[int, object] = {}   # id(alloca) -> StackSlot
        self.block_map: Dict[int, MBlock] = {}
        self.cur: Optional[MBlock] = None
        self.fused: set = set()                 # ids of fused icmps
        self._block_cache: Dict[object, VReg] = {}  # per-block adr/imm CSE
        self.cur_loc = None                     # loc of the IR instr being lowered

    # -- emission helpers --------------------------------------------------
    def emit(self, opcode: str, dst=None, ops=None, **attrs) -> MInstr:
        attrs.setdefault("loc", self.cur_loc)
        return self.cur.append(MInstr(opcode, dst, ops or [], **attrs))

    def vreg_for(self, value) -> VReg:
        reg = self.value_map.get(id(value))
        if reg is None:
            reg = VReg(getattr(value, "name", "") or "v")
            self.value_map[id(value)] = reg
        return reg

    def operand(self, value) -> VReg:
        """Materialise an IR value into a register at the current point.

        Constants and global addresses are CSE'd per block, as a
        production back end's rematerialisation/MachineCSE would arrange.
        """
        if isinstance(value, Constant):
            key = ("imm", value.value)
            reg = self._block_cache.get(key)
            if reg is None:
                reg = VReg("c")
                self.emit("mov", reg, [value.value])
                self._block_cache[key] = reg
            return reg
        if isinstance(value, GlobalVariable):
            key = ("adr", value.name, 0)
            reg = self._block_cache.get(key)
            if reg is None:
                reg = VReg(f"addr_{value.name}")
                self.emit("adr", reg, [value.name, 0])
                self._block_cache[key] = reg
            return reg
        if isinstance(value, UndefValue):
            reg = VReg("undef")
            self.emit("mov", reg, [0])
            return reg
        if isinstance(value, Argument):
            return self.vreg_for(value)
        return self.vreg_for(value)

    def imm_or_reg(self, value, allow_imm: bool = True, limit: int = 256):
        if allow_imm and isinstance(value, Constant) and 0 <= value.value < limit:
            return value.value
        return self.operand(value)

    # -- driver ------------------------------------------------------------
    def run(self) -> MFunction:
        fn = self.ir_function
        self.mfn.num_args = len(fn.args)
        self.mfn.makes_calls = any(
            isinstance(i, Call) for i in fn.instructions()
        )
        self._find_fusable()
        for block in fn.blocks:
            self.block_map[id(block)] = self.mfn.add_block(block.name)
        # Copy incoming arguments out of r0-r3 into fresh vregs.
        self.cur = self.block_map[id(fn.entry)]
        for i, arg in enumerate(fn.args):
            phys = VReg(ARG_REGS[i], phys=ARG_REGS[i])
            self.emit("mov", self.vreg_for(arg), [phys])
        for block in fn.blocks:
            self.cur = self.block_map[id(block)]
            self._block_cache = {}
            for instr in block.instructions:
                self.cur_loc = instr.loc
                self.lower(instr)
            self.cur_loc = None
        self._eliminate_phis()
        # Alloca -> slot mapping, kept for the machine-level WAR verifier
        # to relate IR pointer bases to concrete frame slots.
        self.mfn.alloca_slots = dict(self.slot_map)
        return self.mfn

    def _find_fusable(self) -> None:
        """ICmps whose single use is a branch/select in the same block can
        feed the flags directly instead of materialising 0/1."""
        counts: Dict[int, int] = {}
        single_user: Dict[int, object] = {}
        for instr in self.ir_function.instructions():
            for op in instr.operands:
                counts[id(op)] = counts.get(id(op), 0) + 1
                single_user[id(op)] = instr
        for instr in self.ir_function.instructions():
            if not isinstance(instr, ICmp):
                continue
            if counts.get(id(instr), 0) != 1:
                continue
            user = single_user[id(instr)]
            if isinstance(user, (CondBranch, Select)) and user.parent is instr.parent:
                if isinstance(user, Select) and user.condition is not instr:
                    continue
                self.fused.add(id(instr))

    # -- per-instruction lowering ----------------------------------------------
    def lower(self, instr) -> None:
        if isinstance(instr, Phi):
            self.vreg_for(instr)  # defined by predecessor copies
            return
        if isinstance(instr, Alloca):
            size = max(4, (instr.allocated_type.size + 3) & ~3)
            slot = self.mfn.new_slot(size, kind="local")
            self.slot_map[id(instr)] = slot
            self.emit("lea", self.vreg_for(instr), [slot])
            return
        if isinstance(instr, Load):
            base, offset = self.address_of(instr.pointer)
            size = instr.type.size
            self.emit(
                _mem_op(size, True), self.vreg_for(instr), [base, offset],
                ir_mem=instr,
            )
            return
        if isinstance(instr, Store):
            value = self.operand(instr.value)
            base, offset = self.address_of(instr.pointer)
            size = instr.pointer.type.pointee.size
            self.emit(
                _mem_op(size, False), None, [value, base, offset],
                ir_mem=instr,
            )
            return
        if isinstance(instr, BinaryOp):
            self.lower_binop(instr)
            return
        if isinstance(instr, GetElementPtr):
            self.lower_gep(instr)
            return
        if isinstance(instr, Cast):
            self.lower_cast(instr)
            return
        if isinstance(instr, ICmp):
            if id(instr) in self.fused:
                return  # emitted at the user
            self.emit_compare(instr)
            dst = self.vreg_for(instr)
            self.emit("mov", dst, [0])
            self.emit("cmov", dst, [1], cond=PREDICATE_TO_COND[instr.predicate])
            return
        if isinstance(instr, Select):
            self.lower_select(instr)
            return
        if isinstance(instr, Branch):
            self.emit("b", ops=[instr.target.name])
            return
        if isinstance(instr, CondBranch):
            self.lower_condbr(instr)
            return
        if isinstance(instr, Call):
            args = [self.operand(a) for a in instr.args]
            dst = self.vreg_for(instr) if instr.type.size != 0 else None
            self.emit("bl", dst, [instr.callee.name], args=args)
            return
        if isinstance(instr, Ret):
            ops = [self.operand(instr.value)] if instr.value is not None else []
            self.emit("ret", ops=ops)
            self.emit("bx_lr")
            return
        if isinstance(instr, Checkpoint):
            self.emit("checkpoint", cause=instr.cause)
            return
        raise SelectionError(f"cannot select {instr!r}")

    def lower_binop(self, instr: BinaryOp) -> None:
        dst = self.vreg_for(instr)
        if instr.op in ("urem", "srem"):
            # r = a - (a / b) * b
            a = self.operand(instr.lhs)
            b = self.operand(instr.rhs)
            quot, prod = VReg("q"), VReg("m")
            self.emit("udiv" if instr.op == "urem" else "sdiv", quot, [a, b])
            self.emit("mul", prod, [quot, b])
            self.emit("sub", dst, [a, prod])
            return
        mop = _BINOP_TO_MOP[instr.op]
        lhs = self.operand(instr.lhs)
        if mop in ("mul", "udiv", "sdiv"):
            rhs = self.operand(instr.rhs)
        else:
            limit = 32 if mop in ("lsl", "lsr", "asr") else 256
            rhs = self.imm_or_reg(instr.rhs, mop in _IMM_OK, limit)
        self.emit(mop, dst, [lhs, rhs])

    def address_of(self, pointer) -> tuple:
        """(base_reg, byte_offset) addressing for a load/store pointer,
        folding constant-index GEPs into the offset field."""
        if isinstance(pointer, GetElementPtr) and isinstance(pointer.index, Constant):
            index = pointer.index.value
            if index >= 1 << 31:
                index -= 1 << 32
            offset = index * pointer.element_size
            if 0 <= offset < 4096:
                return self.operand(pointer.base), offset
        return self.operand(pointer), 0

    def lower_gep(self, instr: GetElementPtr) -> None:
        base = instr.base
        size = instr.element_size
        index = instr.index
        if isinstance(base, GlobalVariable) and isinstance(index, Constant):
            offset = index.value
            if offset >= 1 << 31:
                offset -= 1 << 32
            offset *= size
            key = ("adr", base.name, offset)
            cached = self._block_cache.get(key)
            if cached is None:
                cached = self.vreg_for(instr)
                self.emit("adr", cached, [base.name, offset])
                self._block_cache[key] = cached
            else:
                self.value_map[id(instr)] = cached
            return
        if isinstance(index, Constant):
            offset = (index.value if index.value < 1 << 31 else index.value - (1 << 32)) * size
            if offset == 0:
                # pure decay: reuse the base register
                self.value_map[id(instr)] = self.operand(base)
                return
            base_reg = self.operand(base)
            dst = self.vreg_for(instr)
            if 0 <= offset < 4096:
                self.emit("add", dst, [base_reg, offset])
            elif -4096 < offset < 0:
                self.emit("sub", dst, [base_reg, -offset])
            else:
                tmp = VReg("off")
                self.emit("mov", tmp, [offset & 0xFFFFFFFF])
                self.emit("add", dst, [base_reg, tmp])
            return
        base_reg = self.operand(base)
        idx_reg = self.operand(index)
        dst = self.vreg_for(instr)
        if size == 1:
            self.emit("add", dst, [base_reg, idx_reg])
        elif size & (size - 1) == 0:
            shift = size.bit_length() - 1
            scaled = VReg("sc")
            self.emit("lsl", scaled, [idx_reg, shift])
            self.emit("add", dst, [base_reg, scaled])
        else:
            tmp = VReg("sz")
            self.emit("mov", tmp, [size])
            scaled = VReg("sc")
            self.emit("mul", scaled, [idx_reg, tmp])
            self.emit("add", dst, [base_reg, scaled])

    def lower_cast(self, instr: Cast) -> None:
        src = self.operand(instr.value)
        dst = self.vreg_for(instr)
        src_bits = getattr(instr.value.type, "bits", 32)
        if instr.op == "zext":
            if src_bits == 8:
                self.emit("uxtb", dst, [src])
            elif src_bits == 16:
                self.emit("uxth", dst, [src])
            else:
                self.emit("mov", dst, [src])  # i1 values are already 0/1
        elif instr.op == "sext":
            if src_bits == 8:
                self.emit("sxtb", dst, [src])
            elif src_bits == 16:
                self.emit("sxth", dst, [src])
            else:
                self.emit("mov", dst, [src])
        else:  # trunc (the store/extend consumers mask as needed), inttoptr
            self.emit("mov", dst, [src])

    def emit_compare(self, icmp: ICmp) -> None:
        lhs = self.operand(icmp.lhs)
        rhs = self.imm_or_reg(icmp.rhs)
        self.emit("cmp", None, [lhs, rhs])

    def lower_select(self, instr: Select) -> None:
        dst = self.vreg_for(instr)
        cond = instr.condition
        fval = self.operand(instr.false_value)
        tval = self.imm_or_reg(instr.true_value)
        if isinstance(cond, ICmp) and id(cond) in self.fused:
            self.emit("mov", dst, [fval])
            self.emit_compare(cond)
            self.emit("cmov", dst, [tval], cond=PREDICATE_TO_COND[cond.predicate])
        else:
            cond_reg = self.operand(cond)
            self.emit("mov", dst, [fval])
            self.emit("cmp", None, [cond_reg, 0])
            self.emit("cmov", dst, [tval], cond="ne")

    def lower_condbr(self, instr: CondBranch) -> None:
        cond = instr.condition
        if isinstance(cond, ICmp) and id(cond) in self.fused:
            self.emit_compare(cond)
            cc = PREDICATE_TO_COND[cond.predicate]
        else:
            reg = self.operand(cond)
            self.emit("cmp", None, [reg, 0])
            cc = "ne"
        self.emit("bcc", ops=[instr.true_target.name], cond=cc)
        self.emit("b", ops=[instr.false_target.name])

    # -- phi elimination -----------------------------------------------------------
    def _eliminate_phis(self) -> None:
        for block in self.ir_function.blocks:
            phis = block.phis()
            if not phis:
                continue
            for pred in block.predecessors:
                copies: List[Tuple[VReg, object]] = []
                for phi in phis:
                    incoming = phi.incoming_for(pred)
                    dst = self.vreg_for(phi)
                    if isinstance(incoming, Constant):
                        copies.append((dst, incoming.value))
                    elif isinstance(incoming, UndefValue):
                        copies.append((dst, 0))
                    elif isinstance(incoming, GlobalVariable):
                        copies.append((dst, ("adr", incoming.name)))
                    else:
                        copies.append((dst, self.vreg_for(incoming)))
                self._insert_parallel_copies(self.block_map[id(pred)], copies)

    def _insert_parallel_copies(self, mblock: MBlock, copies) -> None:
        """Sequentialise a parallel copy set, breaking cycles via a temp,
        and insert before the block's trailing branch group."""
        insert_at = len(mblock.instructions)
        while insert_at > 0 and mblock.instructions[insert_at - 1].opcode in ("b", "bcc"):
            insert_at -= 1

        seq: List[MInstr] = []
        pending = [(dst, src) for dst, src in copies if dst is not src]
        while pending:
            progressed = False
            for i, (dst, src) in enumerate(pending):
                if any(s is dst for _, s in pending if isinstance(s, VReg)):
                    continue
                if isinstance(src, tuple) and src[0] == "adr":
                    seq.append(MInstr("adr", dst, [src[1], 0]))
                elif isinstance(src, int):
                    seq.append(MInstr("mov", dst, [src]))
                else:
                    seq.append(MInstr("mov", dst, [src]))
                pending.pop(i)
                progressed = True
                break
            if not progressed:
                # cycle: free one destination through a temporary
                dst, src = pending[0]
                tmp = VReg("cyc")
                seq.append(MInstr("mov", tmp, [dst]))
                pending = [
                    (d, tmp if (isinstance(s, VReg) and s is dst) else s)
                    for d, s in pending
                ]
        for offset, minstr in enumerate(seq):
            mblock.insert(insert_at + offset, minstr)
