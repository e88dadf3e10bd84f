"""Instruction set of the repro IR.

An instruction is itself the SSA :class:`~repro.ir.values.Value` it defines
(instructions of ``void`` type define nothing).  Block operands of
terminators and phi incoming blocks are kept separate from the SSA operand
list so that generic operand rewriting (RAUW) never has to special-case
them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .types import I1, I32, VOID, PointerType, Type, is_integer, is_pointer
from .values import Value

#: Binary integer opcodes.  All operate on i32 (or same-width) operands.
BINARY_OPS = (
    "add", "sub", "mul",
    "udiv", "sdiv", "urem", "srem",
    "and", "or", "xor",
    "shl", "lshr", "ashr",
)

#: Integer comparison predicates (LLVM naming).
ICMP_PREDICATES = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")

#: Checkpoint causes, used for the paper's Figure 5 accounting.
CKPT_MIDDLE_END = "middle-end-war"
CKPT_BACKEND = "back-end-war"
CKPT_FUNCTION_ENTRY = "function-entry"
CKPT_FUNCTION_EXIT = "function-exit"
#: extension (paper §6, Location-specific Checkpoints): checkpoints that
#: only bound the idempotent-region length, not break a WAR
CKPT_REGION_BOUND = "region-bound"
CKPT_CAUSES = (
    CKPT_MIDDLE_END,
    CKPT_BACKEND,
    CKPT_FUNCTION_ENTRY,
    CKPT_FUNCTION_EXIT,
    CKPT_REGION_BOUND,
)


class Instruction(Value):
    """Base class for all IR instructions."""

    opcode = "<abstract>"

    #: Originating mini-C source location (a ``repro.diagnostics.SourceLoc``)
    #: or None.  Stamped by the IR builder, preserved by clone sites, and
    #: threaded into machine IR so diagnostics at every level can point at
    #: source.  Deliberately NOT part of structural identity.
    loc = None

    def __init__(self, ty: Type, operands, name: str = ""):
        super().__init__(ty, name)
        self.operands: List[Value] = list(operands)
        self.parent = None  # owning BasicBlock, set on insertion

    # -- classification -------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return False

    @property
    def may_read_memory(self) -> bool:
        return False

    @property
    def may_write_memory(self) -> bool:
        return False

    @property
    def has_side_effects(self) -> bool:
        """True if the instruction cannot be removed even when unused."""
        return self.may_write_memory or self.is_terminator

    @property
    def function(self):
        return self.parent.parent if self.parent is not None else None

    # -- operand manipulation -------------------------------------------
    def replace_uses_of(self, old: Value, new: Value) -> None:
        """Replace every operand occurrence of ``old`` with ``new``."""
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new

    def clone(self) -> "Instruction":
        """Shallow clone: same operands, no parent.  Terminator targets and
        phi incoming lists are copied as fresh lists."""
        raise NotImplementedError

    def __repr__(self):
        from .printer import instruction_to_str

        return f"<{instruction_to_str(self)}>"


class Alloca(Instruction):
    """Stack allocation of one value of ``allocated_type``.

    Yields a pointer into the (non-volatile) stack frame.
    """

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = ""):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type

    def clone(self):
        return Alloca(self.allocated_type, self.name)


class Load(Instruction):
    """Read one value from memory.  Result type is the pointee type."""

    opcode = "load"

    def __init__(self, ptr: Value, name: str = ""):
        if not is_pointer(ptr.type):
            raise TypeError(f"load of non-pointer {ptr!r}")
        super().__init__(ptr.type.pointee, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def may_read_memory(self) -> bool:
        return True

    def clone(self):
        return Load(self.pointer, self.name)


class Store(Instruction):
    """Write ``value`` to memory at ``pointer``.  Produces no SSA value."""

    opcode = "store"

    def __init__(self, value: Value, ptr: Value):
        if not is_pointer(ptr.type):
            raise TypeError(f"store to non-pointer {ptr!r}")
        super().__init__(VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]

    @property
    def may_write_memory(self) -> bool:
        return True

    def clone(self):
        return Store(self.value, self.pointer)


class BinaryOp(Instruction):
    """Two-operand integer arithmetic/logic."""

    def __init__(self, op: str, lhs: Value, rhs: Value, name: str = ""):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        super().__init__(lhs.type if is_integer(lhs.type) else I32, [lhs, rhs], name)
        self.op = op

    @property
    def opcode(self):
        return self.op

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def clone(self):
        return BinaryOp(self.op, self.lhs, self.rhs, self.name)


class ICmp(Instruction):
    """Integer comparison producing an i1."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def clone(self):
        return ICmp(self.predicate, self.lhs, self.rhs, self.name)


class Select(Instruction):
    """``cond ? true_value : false_value`` without a branch."""

    opcode = "select"

    def __init__(self, cond: Value, true_value: Value, false_value: Value, name: str = ""):
        super().__init__(true_value.type, [cond, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]

    def clone(self):
        return Select(self.condition, self.true_value, self.false_value, self.name)


class GetElementPtr(Instruction):
    """Pointer arithmetic: address of element ``index`` relative to ``base``.

    If the base pointee is an array the result points at its element type
    (one GEP == one subscript); otherwise the result has the base type and
    the index is scaled by the pointee size.
    """

    opcode = "getelementptr"

    def __init__(self, base: Value, index: Value, name: str = ""):
        if not is_pointer(base.type):
            raise TypeError(f"gep on non-pointer {base!r}")
        pointee = base.type.pointee
        from .types import ArrayType

        elem = pointee.element if isinstance(pointee, ArrayType) else pointee
        super().__init__(PointerType(elem), [base, index], name)

    @property
    def base(self) -> Value:
        return self.operands[0]

    @property
    def index(self) -> Value:
        return self.operands[1]

    @property
    def element_size(self) -> int:
        return self.type.pointee.size

    def clone(self):
        return GetElementPtr(self.base, self.index, self.name)


class Cast(Instruction):
    """Width-changing integer casts (``zext``, ``sext``, ``trunc``) and
    ``inttoptr``, which gives an integer used as an address a pointer
    type."""

    def __init__(self, op: str, value: Value, to_type: Type, name: str = ""):
        if op not in ("zext", "sext", "trunc", "inttoptr"):
            raise ValueError(f"unknown cast {op!r}")
        if (op == "inttoptr") != is_pointer(to_type):
            raise TypeError(f"{op} cannot produce {to_type}")
        super().__init__(to_type, [value], name)
        self.op = op

    @property
    def opcode(self):
        return self.op

    @property
    def value(self) -> Value:
        return self.operands[0]

    def clone(self):
        return Cast(self.op, self.value, self.type, self.name)


class Branch(Instruction):
    """Unconditional branch."""

    opcode = "br"

    def __init__(self, target):
        super().__init__(VOID, [])
        self.targets = [target]

    @property
    def target(self):
        return self.targets[0]

    @property
    def is_terminator(self) -> bool:
        return True

    def clone(self):
        return Branch(self.target)


class CondBranch(Instruction):
    """Two-way conditional branch on an i1."""

    opcode = "condbr"

    def __init__(self, cond: Value, true_target, false_target):
        super().__init__(VOID, [cond])
        self.targets = [true_target, false_target]

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_target(self):
        return self.targets[0]

    @property
    def false_target(self):
        return self.targets[1]

    @property
    def is_terminator(self) -> bool:
        return True

    def clone(self):
        return CondBranch(self.condition, self.true_target, self.false_target)


class Call(Instruction):
    """Direct call to a module function."""

    opcode = "call"

    def __init__(self, callee, args, name: str = ""):
        super().__init__(callee.return_type, list(args), name)
        self.callee = callee

    @property
    def args(self):
        return self.operands

    @property
    def may_read_memory(self) -> bool:
        return True

    @property
    def may_write_memory(self) -> bool:
        return True

    def clone(self):
        return Call(self.callee, list(self.operands), self.name)


class Ret(Instruction):
    """Function return, optionally with a value."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])
        self.targets = []

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    @property
    def is_terminator(self) -> bool:
        return True

    def clone(self):
        return Ret(self.value)


class Phi(Instruction):
    """SSA phi node.  ``operands[i]`` flows in from ``incoming_blocks[i]``."""

    opcode = "phi"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, [], name)
        self.incoming_blocks: List = []

    def add_incoming(self, value: Value, block) -> None:
        self.operands.append(value)
        self.incoming_blocks.append(block)

    @property
    def incoming(self) -> List[Tuple[Value, object]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for(self, block) -> Optional[Value]:
        for value, pred in self.incoming:
            if pred is block:
                return value
        return None

    def set_incoming_for(self, block, value: Value) -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                self.operands[i] = value
                return
        self.add_incoming(value, block)

    def remove_incoming(self, block) -> None:
        for i, pred in enumerate(self.incoming_blocks):
            if pred is block:
                del self.operands[i]
                del self.incoming_blocks[i]
                return

    def clone(self):
        phi = Phi(self.type, self.name)
        for value, block in self.incoming:
            phi.add_incoming(value, block)
        return phi


class Checkpoint(Instruction):
    """Checkpoint intrinsic: save the volatile register file to NVM.

    Inserted by the checkpoint-placement passes; lowered by the back end to
    a call into the double-buffered checkpoint runtime.  ``cause`` drives
    the checkpoint-cause statistics (paper Figure 5).
    """

    opcode = "checkpoint"

    def __init__(self, cause: str = CKPT_MIDDLE_END):
        if cause not in CKPT_CAUSES:
            raise ValueError(f"unknown checkpoint cause {cause!r}")
        super().__init__(VOID, [])
        self.cause = cause

    @property
    def has_side_effects(self) -> bool:
        return True

    def clone(self):
        return Checkpoint(self.cause)
