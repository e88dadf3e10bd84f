"""IR verifier: structural and SSA-dominance well-formedness checks.

Passes call :func:`verify_module` after mutating IR; tests do the same.
Errors raise :class:`VerificationError` with a human-readable reason.
"""

from __future__ import annotations

from .instructions import Instruction, Load, Phi, Store
from .types import is_pointer
from .values import Constant, GlobalVariable, UndefValue, Value


class VerificationError(Exception):
    """Raised when the IR violates a structural or SSA invariant."""


def verify_module(module) -> None:
    for function in module.defined_functions():
        verify_function(function)


def verify_function(function) -> None:
    _check_structure(function)
    _check_ssa(function)


def _check_structure(function) -> None:
    blocks = set(id(b) for b in function.blocks)
    if not function.blocks:
        raise VerificationError(f"@{function.name}: no blocks")
    entry = function.entry
    if entry.phis():
        raise VerificationError(f"@{function.name}: entry block has phis")
    for block in function.blocks:
        if not block.instructions:
            raise VerificationError(f"@{function.name}/{block.name}: empty block")
        term = block.instructions[-1]
        if not term.is_terminator:
            raise VerificationError(
                f"@{function.name}/{block.name}: does not end in a terminator"
            )
        for instr in block.instructions[:-1]:
            if instr.is_terminator:
                raise VerificationError(
                    f"@{function.name}/{block.name}: terminator in the middle"
                )
        seen_non_phi = False
        for instr in block.instructions:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    raise VerificationError(
                        f"@{function.name}/{block.name}: phi after non-phi"
                    )
            else:
                seen_non_phi = True
            if instr.parent is not block:
                raise VerificationError(
                    f"@{function.name}/{block.name}: bad parent link on {instr!r}"
                )
            if isinstance(instr, (Load, Store)) and not is_pointer(instr.pointer.type):
                raise VerificationError(
                    f"@{function.name}/{block.name}: {instr!r} addresses memory "
                    f"through non-pointer {instr.pointer!r}"
                )
        for target in (term.targets if hasattr(term, "targets") else []):
            if id(target) not in blocks:
                raise VerificationError(
                    f"@{function.name}/{block.name}: branch to foreign block"
                )
    # Phi incoming blocks must be exactly the predecessors.
    for block in function.blocks:
        preds = {id(p) for p in block.predecessors}
        for phi in block.phis():
            incoming = [id(b) for b in phi.incoming_blocks]
            if set(incoming) != preds or len(incoming) != len(set(incoming)):
                raise VerificationError(
                    f"@{function.name}/{block.name}: phi %{phi.name} incoming "
                    f"blocks do not match predecessors"
                )


def _check_ssa(function) -> None:
    """Each operand must be a constant/global/argument or an instruction
    whose definition dominates the use (phi uses checked at the edge)."""
    from ..analysis.dominators import dominator_tree  # lazy: avoid import cycle

    defined = {id(i) for i in function.instructions()}
    args = {id(a) for a in function.args}
    domtree = dominator_tree(function)

    def value_ok(value: Value) -> bool:
        if isinstance(value, (Constant, GlobalVariable, UndefValue)):
            return True
        if id(value) in args:
            return True
        return id(value) in defined

    positions = {}
    for block in function.blocks:
        for idx, instr in enumerate(block.instructions):
            positions[id(instr)] = (block, idx)

    def dominates_use(def_instr: Instruction, use_block, use_idx: int) -> bool:
        def_block, def_idx = positions[id(def_instr)]
        if def_block is use_block:
            return def_idx < use_idx
        return domtree.dominates(def_block, use_block)

    for block in function.blocks:
        for idx, instr in enumerate(block.instructions):
            if isinstance(instr, Phi):
                for value, pred in instr.incoming:
                    if not value_ok(value):
                        raise VerificationError(
                            f"@{function.name}/{block.name}: phi %{instr.name} "
                            f"uses unknown value {value!r}"
                        )
                    if isinstance(value, Instruction):
                        term_idx = len(pred.instructions)
                        if not dominates_use(value, pred, term_idx):
                            raise VerificationError(
                                f"@{function.name}/{block.name}: phi %{instr.name} "
                                f"incoming {value!r} does not dominate edge from "
                                f"{pred.name}"
                            )
                continue
            for op in instr.operands:
                if op is None:
                    continue
                if not value_ok(op):
                    raise VerificationError(
                        f"@{function.name}/{block.name}: {instr!r} uses unknown "
                        f"value {op!r}"
                    )
                if isinstance(op, Instruction) and not dominates_use(op, block, idx):
                    raise VerificationError(
                        f"@{function.name}/{block.name}: {instr!r} is not "
                        f"dominated by its operand {op!r}"
                    )
