"""Function inlining.

Used twice in the WARio pipeline (paper §4.6): a plain ``always-inline``
sweep before the middle end, and the heuristic Expander transformation
(`repro.core.expander`) that aggressively inlines to remove the forced
checkpoints at function boundaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.block import BasicBlock
from ..ir.instructions import Branch, Call, Phi, Ret
from ..ir.values import Value


class InlineError(Exception):
    """Raised when a call site cannot be inlined."""


def can_inline(call: Call) -> bool:
    callee = call.callee
    caller = call.function
    if callee.is_declaration:
        return False
    if caller is not None and callee is caller:
        return False  # no self-recursion inlining
    return True


def inline_call(call: Call) -> List[BasicBlock]:
    """Inline ``call``'s callee at the call site.

    Returns the cloned blocks.  The caller is left verified-well-formed;
    note that allocas of the callee keep static frame-slot semantics even
    when the call site sits inside a loop.
    """
    if not can_inline(call):
        raise InlineError(f"cannot inline {call!r}")
    callee = call.callee
    caller_block = call.parent
    caller = caller_block.parent

    # 1. Split the caller block at the call site.
    call_idx = caller_block.index_of(call)
    cont = caller.add_block(f"{caller_block.name}.cont", after=caller_block)
    tail = caller_block.instructions[call_idx + 1 :]
    del caller_block.instructions[call_idx:]
    call.parent = None
    for instr in tail:
        cont.append(instr)
    # Successor phis must now name `cont` as the predecessor.
    for succ in cont.successors:
        for phi in succ.phis():
            for i, pred in enumerate(phi.incoming_blocks):
                if pred is caller_block:
                    phi.incoming_blocks[i] = cont

    # 2. Clone callee blocks.
    value_map: Dict[int, Value] = {}
    for arg, actual in zip(callee.args, call.args):
        value_map[id(arg)] = actual
    block_map: Dict[int, BasicBlock] = {}
    clones: List[BasicBlock] = []
    anchor = caller_block
    for block in callee.blocks:
        clone = caller.add_block(f"{callee.name}.{block.name}", after=anchor)
        anchor = clone
        block_map[id(block)] = clone
        clones.append(clone)

    returns: List = []  # (mapped value or None, clone block)
    for block in callee.blocks:
        clone = block_map[id(block)]
        for instr in block.instructions:
            if isinstance(instr, Ret):
                value = instr.value
                returns.append((value, clone))
                clone.append(Branch(cont))
                continue
            copy = instr.clone()
            copy.loc = instr.loc
            value_map[id(instr)] = copy
            clone.append(copy)

    # 3. Remap operands, branch targets and phi incoming blocks.
    for clone in clones:
        for instr in clone.instructions:
            for i, op in enumerate(instr.operands):
                if id(op) in value_map:
                    instr.operands[i] = value_map[id(op)]
            if hasattr(instr, "targets"):
                instr.targets = [
                    block_map.get(id(t), t) for t in instr.targets
                ]
            if isinstance(instr, Phi):
                instr.incoming_blocks = [
                    block_map.get(id(b), b) for b in instr.incoming_blocks
                ]
    # Return values recorded before remapping may be callee instructions.
    returns = [
        (value_map.get(id(v), v) if v is not None else None, blk)
        for v, blk in returns
    ]

    # 4. Jump into the inlined body.
    caller_block.append(Branch(block_map[id(callee.entry)]))

    # 5. Wire up the return value.
    if call.type.size != 0:
        live_returns = [(v, b) for v, b in returns if v is not None]
        if not live_returns:
            from ..ir.values import UndefValue

            result: Optional[Value] = UndefValue(call.type)
        elif len(live_returns) == 1:
            result: Optional[Value] = live_returns[0][0]
        else:
            phi = Phi(call.type, f"{callee.name}.ret")
            for value, block in live_returns:
                phi.add_incoming(value, block)
            cont.insert(0, phi)
            result = phi
        caller.replace_all_uses(call, result)
    return clones


def inline_always(module, max_instructions: int = 40) -> int:
    """The `-always-inline`-style sweep: inline every call to a small
    leaf-ish function.  Returns the number of call sites inlined."""
    inlined = 0
    changed = True
    while changed:
        changed = False
        for function in module.defined_functions():
            for block in list(function.blocks):
                for instr in list(block.instructions):
                    if not isinstance(instr, Call) or not can_inline(instr):
                        continue
                    size = sum(len(b) for b in instr.callee.blocks)
                    if size > max_instructions:
                        continue
                    if _is_recursive(instr.callee):
                        continue
                    inline_call(instr)
                    inlined += 1
                    changed = True
                    break  # block structure changed; rescan function
                if changed:
                    break
            if changed:
                break
    return inlined


def _is_recursive(function) -> bool:
    return any(
        isinstance(i, Call) and i.callee is function for i in function.instructions()
    )
