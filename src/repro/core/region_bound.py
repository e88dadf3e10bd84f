"""Region-size bounding — the paper's §6 "Location-specific Checkpoints"
discussion, implemented.

WARio never inserts user/application-specific checkpoints, so a device
whose power-on window is shorter than the largest idempotent region makes
no forward progress (the emulator's ``NoForwardProgress``).  The paper
leaves automatic region shrinking to future work; this pass provides the
straightforward version: estimate cycles along every path since the last
checkpoint and insert a ``region-bound`` checkpoint wherever the estimate
would exceed a budget.

The estimate uses the middle end's static per-instruction cycle table
(:func:`repro.analysis.progress.ir_cost`, which the elision pass's
progress sub-proof charges too), so the guarantee is approximate (back-end
expansion adds spill/call/prologue cycles); use a safety margin when
sizing the budget against a physical on-time.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.progress import ir_cost
from ..ir.instructions import CKPT_REGION_BOUND, Call, Checkpoint


def bound_region_sizes(module, max_cycles: int, max_rounds: int = 10_000) -> int:
    """Insert region-bound checkpoints so that no path executes more than
    ~``max_cycles`` (statically estimated) without a checkpoint.

    Calls count as region boundaries (the callee's entry checkpoint), and
    each callee is bounded independently.  Returns the number of
    checkpoints inserted.
    """
    if max_cycles <= 0:
        raise ValueError("max_cycles must be positive")
    total = 0
    for function in module.defined_functions():
        total += _bound_function(function, max_cycles, max_rounds)
    return total


def _bound_function(function, max_cycles: int, max_rounds: int) -> int:
    inserted = 0
    for _ in range(max_rounds):
        position = _find_first_overflow(function, max_cycles)
        if position is None:
            return inserted
        block, idx = position
        block.insert(idx, Checkpoint(CKPT_REGION_BOUND))
        inserted += 1
    raise RuntimeError(
        f"@{function.name}: region bounding did not converge "
        f"(budget {max_cycles} too small for a single instruction?)"
    )


def _find_first_overflow(function, max_cycles: int):
    """Worst-case cycles-since-checkpoint dataflow; returns the first
    (block, index) whose execution would exceed the budget, or None."""
    entry_gap: Dict[int, int] = {id(b): 0 for b in function.blocks}
    entry_gap[id(function.entry)] = 0
    # iterate to a fixed point over the max-gap-at-block-entry values
    for _ in range(len(function.blocks) * 4 + 8):
        changed = False
        for block in function.blocks:
            gap = entry_gap[id(block)]
            overflow_idx = _scan_block(block, gap, max_cycles)
            if overflow_idx is not None:
                return block, overflow_idx
            out_gap = _block_exit_gap(block, gap)
            for succ in block.successors:
                if out_gap > entry_gap[id(succ)]:
                    entry_gap[id(succ)] = out_gap
                    changed = True
        if not changed:
            return None
    # a cycle kept increasing the gap without a checkpoint on it: the
    # loop's body itself must be split
    for block in function.blocks:
        overflow_idx = _scan_block(block, entry_gap[id(block)], max_cycles)
        if overflow_idx is not None:
            return block, overflow_idx
    # every block ends under budget but the back edge accumulates: insert
    # at the end of the block with the largest exit gap inside a cycle
    worst = max(function.blocks, key=lambda b: _block_exit_gap(b, entry_gap[id(b)]))
    idx = len(worst.instructions)
    if worst.terminator is not None:
        idx -= 1
    return worst, max(idx, worst.first_insertion_index())


def _scan_block(block, gap: int, max_cycles: int) -> Optional[int]:
    for idx, instr in enumerate(block.instructions):
        if isinstance(instr, (Checkpoint, Call)):
            gap = 0
            continue
        gap += ir_cost(instr)
        if gap > max_cycles:
            return max(idx, block.first_insertion_index())
    return None


def _block_exit_gap(block, gap: int) -> int:
    for instr in block.instructions:
        if isinstance(instr, (Checkpoint, Call)):
            gap = 0
        else:
            gap += ir_cost(instr)
    return gap
