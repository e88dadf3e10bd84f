"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional

from .instructions import Branch, Instruction, Phi


class BasicBlock:
    """A basic block inside a function.

    Instructions are stored in execution order; a well-formed block has all
    its phis first and exactly one terminator last (checked by the
    verifier, not at mutation time, so passes may transiently break it).
    """

    def __init__(self, name: str = "", parent=None):
        self.name = name
        self.parent = parent  # owning Function
        self.instructions: List[Instruction] = []

    # -- structure -------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return list(term.targets) if term is not None else []

    @property
    def predecessors(self) -> List["BasicBlock"]:
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors]

    def phis(self) -> List[Phi]:
        out = []
        for instr in self.instructions:
            if isinstance(instr, Phi):
                out.append(instr)
            else:
                break
        return out

    # -- mutation ----------------------------------------------------------
    def append(self, instr: Instruction) -> Instruction:
        self.instructions.append(instr)
        instr.parent = self
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        self.instructions.insert(index, instr)
        instr.parent = self
        return instr

    def insert_before_terminator(self, instr: Instruction) -> Instruction:
        pos = len(self.instructions)
        if self.terminator is not None:
            pos -= 1
        return self.insert(pos, instr)

    def remove(self, instr: Instruction) -> None:
        self.instructions.remove(instr)
        instr.parent = None

    def index_of(self, instr: Instruction) -> int:
        for i, candidate in enumerate(self.instructions):
            if candidate is instr:
                return i
        raise ValueError(f"{instr!r} not in block {self.name}")

    def first_insertion_index(self) -> int:
        """Index after the phi prefix: the earliest legal insertion point."""
        return len(self.phis())

    # -- CFG edge surgery --------------------------------------------------
    def replace_successor(self, old: "BasicBlock", new: "BasicBlock") -> None:
        """Retarget every branch edge ``self -> old`` to ``self -> new``.

        Phi nodes in ``old``/``new`` are *not* adjusted here; callers that
        need phi updates do them explicitly (edge splitting does).
        """
        term = self.terminator
        if term is None:
            raise ValueError(f"block {self.name} has no terminator")
        for i, target in enumerate(term.targets):
            if target is old:
                term.targets[i] = new

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self):
        return f"<BasicBlock {self.name} ({len(self.instructions)} instrs)>"


def split_edge(pred: BasicBlock, succ: BasicBlock, name: str = "") -> BasicBlock:
    """Insert a fresh block on the CFG edge ``pred -> succ``.

    The new block becomes the phi predecessor of ``succ`` in place of
    ``pred``.  Returns the new block (already added to the function).
    """
    function = pred.parent
    block = function.add_block(name or f"{pred.name}.split", after=pred)
    block.append(Branch(succ))
    pred.replace_successor(succ, block)
    for phi in succ.phis():
        for i, incoming in enumerate(phi.incoming_blocks):
            if incoming is pred:
                phi.incoming_blocks[i] = block
    return block
