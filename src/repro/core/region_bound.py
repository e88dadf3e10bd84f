"""Region-size bounding — the paper's §6 "Location-specific Checkpoints"
discussion, implemented.

WARio never inserts user/application-specific checkpoints, so a device
whose power-on window is shorter than the largest idempotent region makes
no forward progress (the emulator's ``NoForwardProgress``).  The paper
leaves automatic region shrinking to future work; this pass provides the
straightforward version: it measures regions with
:class:`~repro.analysis.progress.IRProgress`, the estimator the elision
pass's progress sub-proof trusts, and inserts a ``region-bound``
checkpoint where :meth:`~repro.analysis.progress.IRProgress.
first_overflow` says the next one goes, until every gap fits the budget.

The call model is the estimator's: a transparent callee is spliced into
its caller's region and an opaque call ends it.  Callees are bounded
before their callers, so a caller splices their final summaries.  The
estimate charges the middle-end table (:func:`~repro.analysis.progress.
ir_cost`), so the guarantee is approximate (back-end expansion adds
spill/call/prologue cycles); use a safety margin when sizing the budget
against a physical on-time.
"""

from __future__ import annotations

from ..analysis.progress import IRProgress, argument_constants
from ..analysis.summaries import _call_graph_sccs
from ..ir.instructions import CKPT_REGION_BOUND, Checkpoint


def bound_region_sizes(module, max_cycles: int, summaries=None) -> int:
    """Insert region-bound checkpoints until every function ``f`` has
    ``IRProgress(f, summaries).worst_gap() <= max_cycles``; returns how
    many were inserted.

    ``summaries`` is the middle end's table (``None``: every call is
    opaque).  Raises ``ValueError`` for a non-positive budget, a budget
    that cannot hold one instruction after a checkpoint, or a function
    with no structural bound.
    """
    if max_cycles <= 0:
        raise ValueError("max_cycles must be positive")
    arg_constants = argument_constants(module)
    inserted = 0
    for scc in _call_graph_sccs(module):  # callees before callers
        for function in scc:
            progress = IRProgress(function, summaries, arg_constants)
            position = progress.first_overflow(max_cycles)
            while position is not None:
                block, index = position
                block.insert(index, Checkpoint(CKPT_REGION_BOUND))
                inserted += 1
                position = progress.first_overflow(max_cycles)
    return inserted
