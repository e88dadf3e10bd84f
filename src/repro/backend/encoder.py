"""Program encoding: flatten machine functions into one executable image.

Produces the :class:`Program` the emulator runs, plus the Thumb-2 size
model behind the paper's code-size comparison (Table 2).  Branches to the
immediately following block become fallthroughs (removed), as a block
layout pass would arrange on the real target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .mir import MInstr, MModule

#: Flat address space layout.
GLOBALS_BASE = 0x1000
STACK_TOP = 0x100000
MEMORY_SIZE = 0x100000

#: lr value that terminates execution when returned to.
HALT_ADDRESS = -1


@dataclass
class Program:
    """A fully linked, executable image."""

    name: str
    instrs: List[MInstr] = field(default_factory=list)
    func_entry: Dict[str, int] = field(default_factory=dict)
    global_addr: Dict[str, int] = field(default_factory=dict)
    initial_memory: bytes = b""
    text_size: int = 0
    sizes: List[int] = field(default_factory=list)
    function_of_index: List[str] = field(default_factory=list)
    #: content-address of this program in :mod:`repro.cache` (set by
    #: ``iclang``); empty for programs built by hand from MIR.
    cache_key: str = ""
    #: middle-end checkpoints removed by the certificate-guided elision
    #: pass (:mod:`repro.core.checkpoint_elim`); 0 when the pass was off
    elisions: int = 0

    @property
    def entry(self) -> int:
        return self.func_entry["main"]

    # The emulator attaches its predecoded instruction stream to the
    # program (``_decoded_cache``) so repeated Machine constructions skip
    # re-decoding.  It holds function objects — never pickle it.
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_decoded_cache", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def encode_size(instr: MInstr) -> int:
    """Approximate Thumb-2 encoding size in bytes."""
    op = instr.opcode
    if op == "mov":
        src = instr.ops[0]
        if isinstance(src, int):
            if 0 <= src < 256:
                return 2
            if src < 65536:
                return 4
            return 8  # movw + movt
        return 2
    if op == "adr":
        return 8  # movw + movt of a data address
    if op in ("add", "sub", "and", "orr", "eor", "lsl", "lsr", "asr"):
        rhs = instr.ops[1] if len(instr.ops) > 1 else None
        if isinstance(rhs, int) and rhs >= 8:
            return 4
        return 2
    if op in ("mul", "udiv", "sdiv"):
        return 4
    if op == "cmp":
        return 2
    if op in ("ldr", "str", "ldrb", "strb", "ldrh", "strh"):
        offset = instr.ops[-1] if isinstance(instr.ops[-1], int) else 0
        return 2 if 0 <= offset <= 124 else 4
    if op in ("b", "bcc"):
        return 2
    if op == "bl":
        return 4
    if op == "checkpoint":
        return 4  # a branch-and-link into the checkpoint routine
    if op == "cmov":
        return 4  # IT + mov
    if op in ("push", "pop"):
        return 2
    if op in ("sxtb", "uxtb", "sxth", "uxth"):
        return 2
    if op in ("addsp", "subsp"):
        return 2 if instr.ops[0] <= 508 else 4
    if op in ("cpsid", "cpsie", "bx_lr", "nop"):
        return 2
    if op == "lea":
        return 2
    raise ValueError(f"no size model for {op!r}")


def encode_module(mmodule: MModule) -> Program:
    """Link and flatten a machine module into a :class:`Program`."""
    program = Program(mmodule.name)

    # --- data layout ----------------------------------------------------
    addr = GLOBALS_BASE
    memory = bytearray(MEMORY_SIZE)
    for name, gv in mmodule.globals.items():
        size = gv.value_type.size
        align = min(4, max(1, gv.value_type.size)) if size else 4
        addr = (addr + 3) & ~3
        program.global_addr[name] = addr
        data = gv.initial_bytes()
        memory[addr : addr + len(data)] = data
        addr += max(size, 1)
    program.initial_memory = bytes(memory)

    # --- text layout -----------------------------------------------------
    ordered = sorted(
        mmodule.functions.values(), key=lambda f: (f.name != "main", f.name)
    )
    label_index: Dict[str, int] = {}
    flat: List[MInstr] = []
    owner: List[str] = []
    for fn in ordered:
        program.func_entry[fn.name] = len(flat)
        for bi, block in enumerate(fn.blocks):
            label_index[f"{fn.name}:{block.name}"] = len(flat)
            instrs = list(block.instructions)
            # fallthrough: drop a trailing 'b' to the next block in layout
            if (
                instrs
                and instrs[-1].opcode == "b"
                and bi + 1 < len(fn.blocks)
                and instrs[-1].ops[0] == fn.blocks[bi + 1].name
            ):
                instrs = instrs[:-1]
            for instr in instrs:
                flat.append(instr)
                owner.append(fn.name)

    # --- resolve branch targets to flat indices ---------------------------
    for idx, instr in enumerate(flat):
        if instr.opcode in ("b", "bcc"):
            key = f"{owner[idx]}:{instr.ops[0]}"
            instr.comment = instr.ops[0]
            instr.ops[0] = label_index[key]
        elif instr.opcode == "bl":
            callee = instr.ops[0]
            instr.comment = callee
            instr.ops[0] = ("func", callee)
        elif instr.opcode == "adr":
            name = instr.ops[0]
            offset = instr.ops[1] if len(instr.ops) > 1 else 0
            instr.comment = name
            instr.ops = [program.global_addr[name] + offset]
    # bl targets resolve late so declarations-only callees fail loudly here
    for instr in flat:
        if instr.opcode == "bl":
            _, callee = instr.ops[0]
            if callee not in program.func_entry:
                raise ValueError(f"call to undefined function {callee!r}")
            instr.ops[0] = program.func_entry[callee]

    program.instrs = flat
    program.function_of_index = owner
    program.sizes = [encode_size(i) for i in flat]
    program.text_size = sum(program.sizes)
    return program
