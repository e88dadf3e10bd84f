"""Machine IR: a Thumb-2-flavoured target with virtual registers.

The machine model mirrors what WARio targets (§4.1): ARMv7-M with r0-r12,
sp, lr; a non-volatile byte-addressable main memory holding globals and
the stack; volatile registers saved only by checkpoints.

Register convention (fixed by the backend):

* ``r0``-``r3``, ``r12`` — reserved: argument/return registers and spill
  scratch.  Never allocated to live ranges.
* ``r4``-``r11`` — allocatable, callee-saved (pushed in the prologue).
* ``sp``/``lr`` — stack pointer / link register.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..analysis.dataflow import DataflowProblem, intersect_must_set, solve

#: Condition codes (Thumb naming).
CONDITIONS = ("eq", "ne", "lt", "le", "gt", "ge", "lo", "ls", "hi", "hs")

#: ICmp predicate -> condition code.
PREDICATE_TO_COND = {
    "eq": "eq", "ne": "ne",
    "slt": "lt", "sle": "le", "sgt": "gt", "sge": "ge",
    "ult": "lo", "ule": "ls", "ugt": "hi", "uge": "hs",
}

INVERT_COND = {
    "eq": "ne", "ne": "eq",
    "lt": "ge", "ge": "lt", "le": "gt", "gt": "le",
    "lo": "hs", "hs": "lo", "ls": "hi", "hi": "ls",
}

ALLOCATABLE = tuple(f"r{i}" for i in range(4, 12))
ARG_REGS = ("r0", "r1", "r2", "r3")
SCRATCH = ("r0", "r1", "r12")


class VReg:
    """A virtual register (pre-allocation) or a pinned physical register."""

    _counter = itertools.count()

    def __init__(self, name: str = "", phys: Optional[str] = None):
        self.id = next(VReg._counter)
        self.name = name or f"t{self.id}"
        self.phys = phys  # assigned physical register after RA (or pinned)

    @property
    def is_phys(self) -> bool:
        return self.phys is not None

    def __repr__(self):
        return f"%{self.phys or self.name}"


@dataclass
class StackSlot:
    """One stack-frame slot.  ``offset`` (bytes from sp after the prologue
    frame allocation) is assigned during frame lowering."""

    index: int
    size: int = 4
    kind: str = "spill"  # 'spill' | 'local'
    offset: int = -1

    def __repr__(self):
        return f"[slot{self.index}:{self.kind}]"

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other


class MInstr:
    """One machine instruction.

    ``dst`` is the defined register (or None); ``ops`` holds the operand
    list — a mix of :class:`VReg`, ints (immediates), :class:`StackSlot`,
    and strings (labels / global names) depending on the opcode.
    """

    def __init__(self, opcode: str, dst: Optional[VReg] = None, ops: Optional[list] = None, **attrs):
        self.opcode = opcode
        self.dst = dst
        self.ops = list(ops or [])
        self.cond: Optional[str] = attrs.pop("cond", None)
        self.cause: Optional[str] = attrs.pop("cause", None)      # checkpoints
        self.args: List[VReg] = attrs.pop("args", [])             # bl
        self.regs: List[str] = attrs.pop("regs", [])              # push/pop
        self.comment: str = attrs.pop("comment", "")
        #: Originating source location (repro.diagnostics.SourceLoc) — set
        #: by isel from the lowered IR instruction, inherited by expansion.
        self.loc = attrs.pop("loc", None)
        #: The IR Load/Store this memory instruction lowers, when any.
        #: Lets MIR-level verifiers delegate IR-memory alias questions to
        #: the middle-end analyses instead of re-deriving them from
        #: register contents.
        self.ir_mem = attrs.pop("ir_mem", None)
        if attrs:
            raise TypeError(f"unknown MInstr attrs: {sorted(attrs)}")
        self.parent: Optional["MBlock"] = None

    # -- pickling ---------------------------------------------------------
    # ``parent`` and ``ir_mem`` are back-references into the machine/IR
    # graphs that only the in-process verifiers use; serialising them
    # drags entire modules into every pickled Program (≈10x the payload)
    # and risks deep recursion.  The compile cache and the parallel
    # evaluation workers therefore ship instructions without them.
    def __getstate__(self):
        state = dict(self.__dict__)
        state["parent"] = None
        state["ir_mem"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- classification helpers ------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.opcode in ("b", "bx_lr")

    def branch_targets(self) -> List[str]:
        if self.opcode in ("b", "bcc"):
            return [self.ops[0]]
        return []

    def uses(self) -> List[VReg]:
        """Registers read by this instruction."""
        used = [op for op in self.ops if isinstance(op, VReg)]
        used.extend(self.args)
        if self.opcode == "cmov" and self.dst is not None:
            used.append(self.dst)  # conditional move reads the destination
        if self.opcode == "ret" and self.dst is not None:
            pass
        return used

    def defs(self) -> List[VReg]:
        return [self.dst] if self.dst is not None else []

    def __repr__(self):
        parts = [self.opcode]
        if self.cond:
            parts[0] += f".{self.cond}"
        if self.dst is not None:
            parts.append(repr(self.dst))
        parts.extend(repr(o) if isinstance(o, VReg) else str(o) for o in self.ops)
        if self.args:
            parts.append("args=" + ",".join(map(repr, self.args)))
        if self.regs:
            parts.append("{" + ",".join(self.regs) + "}")
        if self.cause:
            parts.append(f"!{self.cause}")
        return " ".join(parts)


class MBlock:
    """A machine basic block."""

    def __init__(self, name: str, parent: Optional["MFunction"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[MInstr] = []

    def append(self, instr: MInstr) -> MInstr:
        self.instructions.append(instr)
        instr.parent = self
        return instr

    def insert(self, index: int, instr: MInstr) -> MInstr:
        self.instructions.insert(index, instr)
        instr.parent = self
        return instr

    def successors(self) -> List["MBlock"]:
        out: List[MBlock] = []
        fn = self.parent
        for instr in reversed(self.instructions):
            if instr.opcode in ("b", "bcc"):
                out.append(fn.block(instr.ops[0]))
                continue
            break
        return out

    def __iter__(self):
        return iter(self.instructions)

    def __repr__(self):
        return f"<MBlock {self.name} ({len(self.instructions)})>"


class MFunction:
    """A machine function: blocks in layout order plus frame information."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: List[MBlock] = []
        self._by_name: Dict[str, MBlock] = {}
        self.slots: List[StackSlot] = []
        self.frame_size = 0           # assigned at frame lowering
        self.saved_regs: List[str] = []
        self.saved_low: List[str] = []   # r4-r7 + lr (Thumb narrow push)
        self.saved_high: List[str] = []  # r8-r11 (push.w group)
        self.num_args = 0
        self.makes_calls = False
        #: id(ir Alloca) -> StackSlot, populated by instruction selection;
        #: consumed by the machine-level WAR verifier.
        self.alloca_slots: Dict[int, StackSlot] = {}

    def add_block(self, name: str) -> MBlock:
        if name in self._by_name:
            raise ValueError(f"duplicate machine block {name}")
        block = MBlock(name, self)
        self.blocks.append(block)
        self._by_name[name] = block
        return block

    def block(self, name: str) -> MBlock:
        return self._by_name[name]

    def new_slot(self, size: int = 4, kind: str = "spill") -> StackSlot:
        slot = StackSlot(len(self.slots), size, kind)
        self.slots.append(slot)
        return slot

    def instructions(self) -> Iterable[MInstr]:
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self):
        return f"<MFunction {self.name} ({len(self.blocks)} blocks)>"


class MModule:
    """The machine program: functions plus global data layout."""

    def __init__(self, name: str = "program"):
        self.name = name
        self.functions: Dict[str, MFunction] = {}
        self.globals: Dict[str, object] = {}  # name -> ir GlobalVariable

    def add_function(self, fn: MFunction) -> MFunction:
        self.functions[fn.name] = fn
        return fn

    def __repr__(self):
        return f"<MModule {self.name} ({len(self.functions)} functions)>"


class MIRVerificationError(Exception):
    """A machine function violated a structural invariant."""

    def __init__(self, function: str, problems: List[str]):
        self.function = function
        self.problems = problems
        super().__init__(
            f"machine IR verification failed for '{function}':\n  "
            + "\n  ".join(problems)
        )


#: Opcodes allowed in a block's trailing control group.  ``successors()``
#: walks this suffix, so any branch outside it would silently change the
#: CFG the backend analyses see.
_CONTROL = ("b", "bcc", "bx_lr")


def verify_mfunction(fn: MFunction, after_regalloc: bool = False) -> None:
    """Structural machine-IR verifier.

    Checks, at any point of the backend pipeline:

    * every block is non-empty and ends with a terminator (``b``/``bx_lr``,
      or the ``ret`` pseudo that frame lowering later expands),
    * branches appear only in the trailing control group of a block and
      target existing blocks,
    * every :class:`StackSlot` operand is registered with the function and
      stored at its own ``index``.

    With ``after_regalloc=False`` additionally runs a defined-before-use
    dataflow over virtual registers; with ``after_regalloc=True`` instead
    requires every register operand to be physical (``bl`` argument lists
    are exempt — the call expansion resolves them against the stack).

    Raises :class:`MIRVerificationError` on the first offending function.
    """
    problems: List[str] = []

    for block in fn.blocks:
        if not block.instructions:
            problems.append(f"block '{block.name}' is empty")
            continue
        last = block.instructions[-1]
        if not (last.is_terminator or last.opcode in ("ret", "bcc")):
            problems.append(
                f"block '{block.name}' does not end with a terminator "
                f"(ends with '{last.opcode}')"
            )
        in_control_tail = True
        for instr in reversed(block.instructions):
            if instr.opcode in _CONTROL:
                if not in_control_tail:
                    problems.append(
                        f"block '{block.name}': branch '{instr.opcode}' is "
                        f"not in the trailing control group"
                    )
            else:
                in_control_tail = False
        for instr in block.instructions:
            for target in instr.branch_targets():
                if target not in fn._by_name:
                    problems.append(
                        f"block '{block.name}': branch to unknown block "
                        f"'{target}'"
                    )
            for op in instr.ops:
                if isinstance(op, StackSlot):
                    if not (
                        0 <= op.index < len(fn.slots)
                        and fn.slots[op.index] is op
                    ):
                        problems.append(
                            f"block '{block.name}': '{instr.opcode}' uses "
                            f"unregistered stack slot {op!r}"
                        )

    if after_regalloc:
        for block in fn.blocks:
            for instr in block.instructions:
                for reg in instr.defs() + [
                    op for op in instr.ops if isinstance(op, VReg)
                ]:
                    if not reg.is_phys:
                        problems.append(
                            f"block '{block.name}': virtual register "
                            f"{reg!r} survives register allocation in "
                            f"'{instr.opcode}'"
                        )
    else:
        problems.extend(_check_defined_before_use(fn))

    if problems:
        raise MIRVerificationError(fn.name, problems)


class _DefinedBeforeUse(DataflowProblem):
    """Forward must-dataflow on the shared engine: the set of vreg ids
    defined on *every* path from entry (``None`` = unreachable, so dead
    blocks have vacuous paths and are never checked)."""

    def __init__(self, fn: MFunction):
        self.fn = fn

    def nodes(self):
        return self.fn.blocks

    def key(self, block) -> str:
        return block.name

    def edges(self, block):
        for succ in block.successors():
            yield succ, False

    def initial(self, block) -> Optional[set]:
        return set() if block is self.fn.blocks[0] else None

    def transfer(self, block, state: set) -> set:
        state = set(state)
        for instr in block.instructions:
            for reg in instr.defs():
                if not reg.is_phys:
                    state.add(reg.id)
        return state

    def flow(self, out: set, block, succ, is_back: bool) -> set:
        return set(out)

    def merge(self, existing: set, incoming: set, block) -> bool:
        return intersect_must_set(existing, incoming)


def _check_defined_before_use(fn: MFunction) -> List[str]:
    """Forward must-dataflow: every (non-physical) vreg use is dominated
    by a definition on every path from entry."""
    if not fn.blocks:
        return []
    problems: List[str] = []
    for block in fn.blocks:
        try:
            block.successors()
        except KeyError:
            return problems  # broken targets already reported

    problem = _DefinedBeforeUse(fn)
    in_states = solve(problem)
    for block in fn.blocks:
        state = in_states[block.name]
        if state is None:
            continue  # unreachable: vacuous paths
        state = set(state)
        for instr in block.instructions:
            for reg in instr.uses():
                if not reg.is_phys and reg.id not in state:
                    problems.append(
                        f"block '{block.name}': {reg!r} used by "
                        f"'{instr.opcode}' before any definition reaches it"
                    )
            for reg in instr.defs():
                if not reg.is_phys:
                    state.add(reg.id)
    return problems


def mfunction_to_str(fn: MFunction) -> str:
    lines = [f"{fn.name}:"]
    for block in fn.blocks:
        lines.append(f".{block.name}:")
        for instr in block.instructions:
            lines.append(f"    {instr!r}")
    return "\n".join(lines)
