"""mem2reg: promote scalar stack slots (allocas) to SSA registers.

Classic Cytron et al. construction: phi nodes are placed at the iterated
dominance frontier of the store blocks, then a dominator-tree walk renames
loads/stores to SSA values.  Run early (the paper compiles at -O3) so that
scalar locals live in registers and the remaining memory traffic is the
real NVM traffic that WAR analysis must protect.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..analysis.dominators import dominance_frontiers, dominator_tree
from ..ir.instructions import Alloca, Load, Phi, Store
from ..ir.types import IntType, PointerType
from ..ir.values import UndefValue


def promotable_allocas(function) -> List[Alloca]:
    """Allocas of scalar integer type whose address never escapes: every
    use is a direct load or a store *to* (not of) the slot."""
    allocas = [i for i in function.instructions() if isinstance(i, Alloca)]
    out = []
    for alloca in allocas:
        if not isinstance(alloca.allocated_type, (IntType, PointerType)):
            continue
        escaped = False
        for user in function.users_of(alloca):
            if isinstance(user, Load) and user.pointer is alloca:
                continue
            if isinstance(user, Store) and user.pointer is alloca and user.value is not alloca:
                continue
            escaped = True
            break
        if not escaped:
            out.append(alloca)
    return out


def promote_memory_to_registers(function) -> int:
    """Run mem2reg on one function; returns the number of promoted slots."""
    allocas = promotable_allocas(function)
    if not allocas:
        return 0
    domtree = dominator_tree(function)
    frontiers = dominance_frontiers(function, domtree)
    alloca_ids = {id(a): a for a in allocas}

    # --- phi placement at iterated dominance frontiers -----------------
    phis: Dict[int, Dict[int, Phi]] = {id(a): {} for a in allocas}  # alloca -> block -> phi
    for alloca in allocas:
        def_blocks = {
            id(i.parent): i.parent
            for i in function.instructions()
            if isinstance(i, Store) and i.pointer is alloca
        }
        work = list(def_blocks.values())
        placed: Set[int] = set()
        while work:
            block = work.pop()
            for df_block in frontiers.get(id(block), ()):
                if id(df_block) in placed:
                    continue
                placed.add(id(df_block))
                phi = Phi(alloca.allocated_type, alloca.name)
                df_block.insert(0, phi)
                phis[id(alloca)][id(df_block)] = phi
                if id(df_block) not in def_blocks:
                    work.append(df_block)

    phi_owner = {}
    for aid, by_block in phis.items():
        for phi in by_block.values():
            phi_owner[id(phi)] = alloca_ids[aid]

    # --- renaming walk over the dominator tree --------------------------
    undef = UndefValue(IntType(32))
    replacements: Dict[int, object] = {}  # id(load) -> value
    dead: List = []

    # Preorder over the dominator tree with an explicit stack (a deep
    # CFG would exhaust the recursion limit): children are pushed in
    # reverse, so they are visited in the same order as a recursive walk.
    stack = [(function.entry, {})]
    while stack:
        block, incoming = stack.pop()
        current = dict(incoming)
        for instr in list(block.instructions):
            if isinstance(instr, Phi) and id(instr) in phi_owner:
                current[id(phi_owner[id(instr)])] = instr
            elif isinstance(instr, Load) and id(instr.pointer) in alloca_ids:
                value = current.get(id(instr.pointer), undef)
                replacements[id(instr)] = value
                dead.append(instr)
            elif isinstance(instr, Store) and id(instr.pointer) in alloca_ids:
                current[id(instr.pointer)] = instr.value
                dead.append(instr)
        for succ in block.successors:
            for phi in succ.phis():
                owner = phi_owner.get(id(phi))
                if owner is not None:
                    phi.set_incoming_for(block, current.get(id(owner), undef))
        stack.extend((child, current)
                     for child in reversed(domtree.children(block)))

    # Apply load replacements transitively (a load may map to another load).
    def resolve(value):
        seen = set()
        while id(value) in replacements and id(value) not in seen:
            seen.add(id(value))
            value = replacements[id(value)]
        return value

    for instr in function.instructions():
        for i, op in enumerate(instr.operands):
            if id(op) in replacements:
                instr.operands[i] = resolve(op)

    for instr in dead:
        instr.parent.remove(instr)
    for alloca in allocas:
        alloca.parent.remove(alloca)
    _prune_dead_phis(function, phi_owner)
    return len(allocas)


def _prune_dead_phis(function, phi_owner) -> None:
    """Remove inserted phis that ended up unused (dead cycles included)."""
    changed = True
    while changed:
        changed = False
        counts = function.uses_count()
        for block in function.blocks:
            for phi in list(block.phis()):
                if id(phi) not in phi_owner:
                    continue
                uses = counts.get(id(phi), 0)
                self_uses = sum(1 for op in phi.operands if op is phi)
                if uses - self_uses == 0:
                    block.remove(phi)
                    changed = True


def run_on_module(module) -> int:
    total = 0
    for function in module.defined_functions():
        total += promote_memory_to_registers(function)
    return total
