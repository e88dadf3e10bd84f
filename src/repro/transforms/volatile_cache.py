"""Volatile-data caching — the paper's §7 "Extensions of WARio" item,
implemented at block scope.

    "WARio can 'cache' some data in volatile memory if that data is both
     generated and used in one idempotent section, as in [33]."  (ALFRED)

Data written and re-read inside one idempotent region never needs the
NVM round-trip: the value is still in a register.  This pass performs the
register-level version: within a basic block, a load that provably reads
a preceding store's value (must-alias, with no possibly-aliasing access
or region boundary in between) is replaced by the stored value.  Besides
saving NVM reads, this *removes WAR material*: a forwarded load no longer
anchors a WAR violation.

When the stored location is additionally overwritten before any other
read (a block-local dead store), the first store disappears entirely —
the data lived only in "volatile" registers, exactly the ALFRED effect.
"""

from __future__ import annotations

from ..analysis.alias import AliasAnalysis
from ..analysis.memdep import access_size
from ..ir.instructions import Call, Checkpoint, Load, Store


def cache_volatile_data(module, alias_mode: str = "precise") -> int:
    """Run forwarding + dead-store elimination on every function.

    Returns the number of loads forwarded plus stores removed.
    """
    from ..analysis.pointsto import compute_points_to

    points_to = compute_points_to(module)
    changed = 0
    for function in module.defined_functions():
        aa = AliasAnalysis(function, alias_mode, points_to=points_to)
        for block in function.blocks:
            changed += _forward_loads(function, block, aa)
            changed += _remove_dead_stores(function, block, aa)
    return changed


def _is_region_boundary(instr) -> bool:
    """Checkpoints end the region; calls both checkpoint and may touch
    any memory."""
    return isinstance(instr, (Checkpoint, Call))


def _forward_loads(function, block, aa: AliasAnalysis) -> int:
    forwarded = 0
    for load in [i for i in block.instructions if isinstance(i, Load)]:
        value = _forwardable_value(block, load, aa)
        if value is None:
            continue
        function.replace_all_uses(load, value)
        block.remove(load)
        forwarded += 1
    return forwarded


def _forwardable_value(block, load: Load, aa: AliasAnalysis):
    """The stored value that ``load`` must observe, or None."""
    lsize = access_size(load)
    idx = block.index_of(load)
    for prev in reversed(block.instructions[:idx]):
        if _is_region_boundary(prev):
            return None
        if isinstance(prev, Store):
            if aa.must_alias(prev.pointer, access_size(prev), load.pointer, lsize):
                # width must match exactly: a narrow store does not
                # produce the full loaded value
                if access_size(prev) == lsize and prev.value.type.size == lsize:
                    return prev.value
                return None
            if aa.may_alias(prev.pointer, access_size(prev), load.pointer, lsize):
                return None
    return None


def _remove_dead_stores(function, block, aa: AliasAnalysis) -> int:
    """Remove a store overwritten by a must-alias store later in the same
    block with no intervening possibly-aliasing read or region boundary."""
    removed = 0
    stores = [i for i in block.instructions if isinstance(i, Store)]
    for store in stores:
        if store.parent is not block:
            continue  # already removed
        if _killed_in_block(block, store, aa):
            block.remove(store)
            removed += 1
    return removed


def _killed_in_block(block, store: Store, aa: AliasAnalysis) -> bool:
    ssize = access_size(store)
    idx = block.index_of(store)
    for later in block.instructions[idx + 1 :]:
        if _is_region_boundary(later):
            return False
        if isinstance(later, Load) and aa.may_alias(
            later.pointer, access_size(later), store.pointer, ssize
        ):
            return False
        if isinstance(later, Store):
            if aa.must_alias(
                later.pointer, access_size(later), store.pointer, ssize
            ) and access_size(later) >= ssize:
                return True
            if aa.may_alias(
                later.pointer, access_size(later), store.pointer, ssize
            ):
                return False
    return False
