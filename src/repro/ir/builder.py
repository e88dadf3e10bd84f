"""IRBuilder: convenience API for emitting instructions.

Mirrors LLVM's ``IRBuilder``: hold an insertion point (a block, appending at
the end, or a specific index) and call typed helpers.
"""

from __future__ import annotations

from typing import Optional

from .block import BasicBlock
from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    Checkpoint,
    CondBranch,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from .types import IntType, Type
from .values import Constant, Value


class IRBuilder:
    """Appends instructions at a movable insertion point."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block
        self.index: Optional[int] = None  # None = append at end
        #: Current source location (``repro.diagnostics.SourceLoc`` or
        #: None); stamped onto every inserted instruction that has none.
        self.loc = None

    # -- positioning -----------------------------------------------------
    def position_at_end(self, block: BasicBlock) -> "IRBuilder":
        self.block = block
        self.index = None
        return self

    def _insert(self, instr: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        if self.loc is not None and instr.loc is None:
            instr.loc = self.loc
        if self.index is None:
            self.block.append(instr)
        else:
            self.block.insert(self.index, instr)
            self.index += 1
        return instr

    # -- constants ----------------------------------------------------------
    @staticmethod
    def const(value: int, ty: Optional[Type] = None) -> Constant:
        return Constant(value, ty or IntType(32))

    # -- memory ----------------------------------------------------------------
    def alloca(self, allocated_type: Type, name: str = "") -> Alloca:
        return self._insert(Alloca(allocated_type, name))

    def load(self, ptr: Value, name: str = "") -> Load:
        return self._insert(Load(ptr, name))

    def store(self, value: Value, ptr: Value) -> Store:
        return self._insert(Store(value, ptr))

    def gep(self, base: Value, index: Value, name: str = "") -> GetElementPtr:
        return self._insert(GetElementPtr(base, index, name))

    # -- arithmetic --------------------------------------------------------------
    def binop(self, op: str, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        return self._insert(BinaryOp(op, lhs, rhs, name))

    def add(self, lhs, rhs, name=""):
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs, rhs, name=""):
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs, rhs, name=""):
        return self.binop("mul", lhs, rhs, name)

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmp:
        return self._insert(ICmp(predicate, lhs, rhs, name))

    def select(self, cond: Value, tv: Value, fv: Value, name: str = "") -> Select:
        return self._insert(Select(cond, tv, fv, name))

    def cast(self, op: str, value: Value, to_type: Type, name: str = "") -> Cast:
        return self._insert(Cast(op, value, to_type, name))

    # -- control flow ---------------------------------------------------------------
    def br(self, target: BasicBlock) -> Branch:
        return self._insert(Branch(target))

    def cond_br(self, cond: Value, true_target: BasicBlock, false_target: BasicBlock) -> CondBranch:
        return self._insert(CondBranch(cond, true_target, false_target))

    def call(self, callee, args, name: str = "") -> Call:
        return self._insert(Call(callee, args, name))

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self._insert(Ret(value))

    def phi(self, ty: Type, name: str = "") -> Phi:
        return self._insert(Phi(ty, name))

    def checkpoint(self, cause: str) -> Checkpoint:
        return self._insert(Checkpoint(cause))
