"""repro.backend — the Thumb-2-flavoured back end.

Pipeline per function: critical-edge splitting -> instruction selection
(with phi elimination) -> linear-scan register allocation (dedicated
spill slots) -> spill-WAR checkpoint insertion (basic or hitting-set) ->
frame lowering (prologue, epilogue style, call expansion) -> encoding
into one flat executable :class:`~repro.backend.encoder.Program`.
"""

from __future__ import annotations

from typing import Optional

from ..transforms.critedge import split_critical_edges
from ..transforms.simplifycfg import simplify_cfg
from .encoder import GLOBALS_BASE, HALT_ADDRESS, MEMORY_SIZE, STACK_TOP, Program, encode_module
from .frame import EPILOGUE_BUGS, EPILOGUE_STYLES, lower_frame
from .isel import InstructionSelector
from .mir import (
    MFunction,
    MInstr,
    MIRVerificationError,
    MModule,
    StackSlot,
    VReg,
    mfunction_to_str,
    verify_mfunction,
)
from .mir_war import verify_mfunction_war, verify_mmodule_war
from .peephole import eliminate_dead_defs
from .regalloc import allocate_registers
from .spill_checkpoints import find_spill_wars, insert_spill_checkpoints


def lower_module(
    ir_module,
    spill_checkpoint_mode: Optional[str] = None,
    epilogue_style: str = "plain",
    entry_checkpoints: bool = False,
    verify: bool = False,
    transparent=None,
    epilogue_bug: Optional[str] = None,
) -> MModule:
    """Lower an IR module to machine code.

    ``spill_checkpoint_mode`` is ``None`` (no back-end WAR protection,
    for the plain build), ``"basic"`` (Ratchet) or ``"hitting-set"``
    (WARio).  ``entry_checkpoints`` adds the forced checkpoint at every
    non-main function entry.  ``verify`` runs the structural machine-IR
    verifier after selection (virtual-register defined-before-use) and
    after frame lowering (all-physical, slot validity, block shape).

    ``transparent`` (a set of function names from
    :func:`repro.analysis.summaries.compute_summaries`) enables
    cross-call checkpoint elision: a transparent function gets no entry
    checkpoint, calls to it are not spill-WAR barriers in its callers,
    and — when its lowered body still contains no checkpoint and takes
    no address of a slot — it keeps the cheap plain epilogue instead of
    the configured checkpointing style.

    ``epilogue_bug`` (test-only, see :data:`repro.backend.frame.EPILOGUE_BUGS`)
    seeds a deliberately broken epilogue lowering for certifier and
    fault-injection mutation tests.
    """
    transparent = transparent or set()
    barrier_callees = None
    if transparent:
        barrier_callees = set(ir_module.functions) - transparent
    mmodule = MModule(ir_module.name)
    mmodule.globals = dict(ir_module.globals)
    for function in ir_module.defined_functions():
        simplify_cfg(function)
        split_critical_edges(function)
        selector = InstructionSelector(function)
        mfn = selector.run()
        eliminate_dead_defs(mfn)
        if verify:
            verify_mfunction(mfn)
        spills, remats = allocate_registers(mfn)
        is_transparent = function.name in transparent
        if spill_checkpoint_mode is not None:
            insert_spill_checkpoints(
                mfn, spill_checkpoint_mode,
                calls_are_checkpoints=entry_checkpoints,
                barrier_callees=barrier_callees,
            )
        # A transparent function whose lowered body still checkpoints
        # nowhere (the spill inserter may have added some) and never
        # leaks a slot address runs entirely inside the caller's region:
        # the prologue pushes cover the epilogue pops, so the plain
        # epilogue is WAR-free and the checkpointing styles would only
        # waste a checkpoint.
        plain_epilogue = is_transparent and not any(
            i.opcode in ("checkpoint", "lea") for i in mfn.instructions()
        )
        lower_frame(
            mfn,
            spills,
            remats=remats,
            epilogue_style="plain" if plain_epilogue else epilogue_style,
            entry_checkpoint=entry_checkpoints and not is_transparent,
            is_entry_function=(function.name == "main"),
            epilogue_bug=None if plain_epilogue else epilogue_bug,
        )
        if verify:
            verify_mfunction(mfn, after_regalloc=True)
        mmodule.add_function(mfn)
    return mmodule


__all__ = [
    "lower_module",
    "InstructionSelector", "allocate_registers", "lower_frame",
    "insert_spill_checkpoints", "find_spill_wars",
    "verify_mfunction", "MIRVerificationError",
    "verify_mfunction_war", "verify_mmodule_war",
    "encode_module", "Program",
    "MModule", "MFunction", "MInstr", "VReg", "StackSlot", "mfunction_to_str",
    "EPILOGUE_BUGS", "EPILOGUE_STYLES",
    "GLOBALS_BASE", "STACK_TOP", "MEMORY_SIZE", "HALT_ADDRESS",
]
