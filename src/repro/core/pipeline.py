"""The ``iclang`` compilation driver (paper §4.6).

One call takes mini-C sources to an executable image through a named
*environment* — the software environments of the evaluation (§5.1.3):

========================  ==========================================================
``plain``                 uninstrumented C (the normalisation baseline; NOT safe
                          under intermittent power)
``ratchet``               Ratchet: conservative built-in alias analysis, checkpoint
                          per WAR, naive back end
``r-pdg``                 Ratchet with NOELLE-precision PDG alias information
``epilog-optimizer``      R-PDG + the Epilog Optimizer only
``write-clusterer``       R-PDG + Write Clusterer + hitting-set spill inserter
``loop-write-clusterer``  R-PDG + Loop Write Clusterer + hitting-set spill inserter
``wario``                 complete WARio (both clusterers, hitting-set spill,
                          epilog optimizer)
``wario-expander``        WARio + the Expander inliner
``wario-summaries``       WARio + interprocedural mod/ref summaries
                          (cross-call checkpoint elision)
``ratchet-summaries``     Ratchet's alias analysis + the relaxed call model
``wario-opt``             WARio + summaries + certificate-guided checkpoint
                          elision (:mod:`repro.core.checkpoint_elim`)
``ratchet-opt``           ratchet-summaries + certificate-guided checkpoint
                          elision
========================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Union

from ..analysis.alias import CONSERVATIVE, PRECISE
# unused here, but perfbench's tracer wraps this name in this module
from ..analysis.static_war import verify_module_war
from ..analysis.summaries import SummaryTable
from ..backend import MModule, Program, encode_module, lower_module
# unused here, but perfbench's tracer wraps this name in this module
from ..backend.mir_war import verify_mmodule_war
from ..frontend import compile_sources
from ..ir import Module, verify_module
from ..transforms import optimize_module
from ..transforms.dce import run_on_module as run_dce
from ..transforms.simplifycfg import run_on_module as run_simplify
from .checkpoint_elim import ElisionReport
from .checkpoint_inserter import insert_checkpoints
from .expander import expand
from .loop_write_clusterer import DEFAULT_UNROLL_FACTOR, cluster_loop_writes
from .write_clusterer import cluster_writes


@dataclass(frozen=True)
class EnvironmentConfig:
    """One software environment: which transformations run and how."""

    name: str
    instrument: bool = True
    alias_mode: str = PRECISE
    loop_write_clusterer: bool = False
    write_clusterer: bool = False
    expander: bool = False
    spill_checkpoint_mode: str = "basic"     # 'basic' | 'hitting-set'
    epilogue_style: str = "ratchet"          # 'plain' | 'ratchet' | 'wario'
    unroll_factor: int = DEFAULT_UNROLL_FACTOR
    #: extension (paper §6): bound the statically-estimated idempotent
    #: region length by inserting extra 'region-bound' checkpoints
    max_region_cycles: Optional[int] = None
    #: extension (paper §7): cache data generated and used within one
    #: idempotent region in registers (store-to-load forwarding)
    volatile_cache: bool = False
    #: relaxed call model: compute interprocedural mod/ref summaries
    #: (:mod:`repro.analysis.summaries`) and elide entry/epilogue
    #: checkpoints for transparent (summarised WAR-free) callees
    call_summaries: bool = False
    #: certificate-guided checkpoint elision
    #: (:mod:`repro.core.checkpoint_elim`): after insertion, elide every
    #: middle-end checkpoint whose merged region re-discharges all three
    #: certification legs (WAR-freedom, idempotence, and a progress
    #: budget of ``max_region_cycles`` if set, else
    #: :data:`repro.analysis.redundancy.DEFAULT_ELISION_BUDGET`)
    checkpoint_elim: bool = False
    #: TEST-ONLY fault seeding: force-elide the Nth middle-end
    #: checkpoint (program order, counted like ``drop_checkpoint``)
    #: without requiring its elision proofs to discharge.  The
    #: certificate audit and the fault-injection campaign must both
    #: catch it; no named environment ever sets it.  Requires
    #: ``checkpoint_elim``.
    force_unsafe_elision: Optional[int] = None
    #: TEST-ONLY fault seeding: drop the Nth middle-end checkpoint after
    #: insertion.  The fault-injection campaign's mutation tests use this
    #: to prove the differential certifier catches a real consistency
    #: bug; no named environment ever sets it.
    drop_checkpoint: Optional[int] = None
    #: TEST-ONLY fault seeding (back end): lower Ratchet epilogues with
    #: raw pops, skipping the Idempotent Stack Pop Converter — each pop
    #: then re-reads bytes its own sp adjustment released inside an open
    #: region.  No named environment ever sets it.
    skip_pop_conversion: bool = False
    #: TEST-ONLY fault seeding (back end): lower WARio epilogues without
    #: the ``cpsid``/``cpsie`` interrupt mask — the frame release is then
    #: exposed to interrupt stacking before the exit checkpoint commits.
    #: No named environment ever sets it.
    drop_epilog_mask: bool = False

    @property
    def epilogue_bug(self) -> Optional[str]:
        """The seeded epilogue-lowering bug to pass to the back end."""
        if self.skip_pop_conversion:
            return "skip-pop-conversion"
        if self.drop_epilog_mask:
            return "drop-epilog-mask"
        return None


ENVIRONMENTS: Dict[str, EnvironmentConfig] = {
    "plain": EnvironmentConfig(
        "plain", instrument=False, epilogue_style="plain"
    ),
    "ratchet": EnvironmentConfig(
        "ratchet", alias_mode=CONSERVATIVE
    ),
    "r-pdg": EnvironmentConfig(
        "r-pdg"
    ),
    "epilog-optimizer": EnvironmentConfig(
        # The paper enables the hitting-set spill inserter for every WARio
        # variant EXCEPT this one, to isolate the epilog effect (§5.1.3).
        "epilog-optimizer", epilogue_style="wario"
    ),
    "write-clusterer": EnvironmentConfig(
        "write-clusterer", write_clusterer=True, spill_checkpoint_mode="hitting-set"
    ),
    "loop-write-clusterer": EnvironmentConfig(
        "loop-write-clusterer",
        loop_write_clusterer=True,
        spill_checkpoint_mode="hitting-set",
    ),
    "wario": EnvironmentConfig(
        "wario",
        loop_write_clusterer=True,
        write_clusterer=True,
        spill_checkpoint_mode="hitting-set",
        epilogue_style="wario",
    ),
    "wario-expander": EnvironmentConfig(
        "wario-expander",
        loop_write_clusterer=True,
        write_clusterer=True,
        expander=True,
        spill_checkpoint_mode="hitting-set",
        epilogue_style="wario",
    ),
    "wario-summaries": EnvironmentConfig(
        # WARio + interprocedural mod/ref summaries: transparent callees
        # keep no entry/epilogue checkpoints and stop acting as barriers.
        "wario-summaries",
        loop_write_clusterer=True,
        write_clusterer=True,
        spill_checkpoint_mode="hitting-set",
        epilogue_style="wario",
        call_summaries=True,
    ),
    "ratchet-summaries": EnvironmentConfig(
        # Ratchet's conservative alias analysis, but with the relaxed
        # call model: isolates the summary effect from PDG precision.
        "ratchet-summaries",
        alias_mode=CONSERVATIVE,
        call_summaries=True,
    ),
    "wario-opt": EnvironmentConfig(
        # Everything on: WARio + summaries + certificate-guided
        # checkpoint elision.  Every elision carries a machine-checkable
        # placement certificate and the module is re-certified end to
        # end, so the optimisation cannot trade safety for speed.
        "wario-opt",
        loop_write_clusterer=True,
        write_clusterer=True,
        spill_checkpoint_mode="hitting-set",
        epilogue_style="wario",
        call_summaries=True,
        checkpoint_elim=True,
    ),
    "ratchet-opt": EnvironmentConfig(
        # ratchet-summaries + certificate-guided elision: shows the
        # optimiser also recovers redundancy the conservative alias
        # analysis forces the inserter to create.
        "ratchet-opt",
        alias_mode=CONSERVATIVE,
        call_summaries=True,
        checkpoint_elim=True,
    ),
}


#: the EnvironmentConfig fields surfaced by the machine-readable
#: environment listing (``repro envs -o json``); TEST-ONLY fault-seeding
#: knobs are deliberately excluded — no named environment ever sets them
_PUBLIC_CONFIG_FIELDS = (
    "name", "instrument", "alias_mode", "loop_write_clusterer",
    "write_clusterer", "expander", "spill_checkpoint_mode",
    "epilogue_style", "unroll_factor", "max_region_cycles",
    "volatile_cache", "call_summaries", "checkpoint_elim",
)


def environment_dict(config: EnvironmentConfig) -> Dict[str, object]:
    """One environment as a plain JSON-safe dict (public fields only)."""
    return {field: getattr(config, field) for field in _PUBLIC_CONFIG_FIELDS}


def environments_payload() -> List[Dict[str, object]]:
    """Every named environment, in registry order, as JSON-safe dicts —
    so clients can enumerate the grid without parsing the text listing."""
    return [environment_dict(config) for config in ENVIRONMENTS.values()]


def environment(name_or_config: Union[str, EnvironmentConfig]) -> EnvironmentConfig:
    if isinstance(name_or_config, EnvironmentConfig):
        return name_or_config
    try:
        return ENVIRONMENTS[name_or_config]
    except KeyError:
        raise ValueError(
            f"unknown environment {name_or_config!r}; "
            f"choose from {sorted(ENVIRONMENTS)}"
        ) from None


def _drop_nth_checkpoint(module: Module, index: int) -> None:
    """TEST-ONLY (``EnvironmentConfig.drop_checkpoint``): remove the
    ``index``-th middle-end checkpoint, in program order, to seed a WAR
    consistency bug the fault-injection campaign must catch."""
    seen = 0
    for function in module.defined_functions():
        for block in function.blocks:
            for instr in list(block):
                if instr.opcode == "checkpoint":
                    if seen == index:
                        block.remove(instr)
                        return
                    seen += 1
    raise ValueError(
        f"drop_checkpoint={index}: the module only has {seen} "
        f"middle-end checkpoints"
    )


def run_middle_end(
    module: Module,
    config: EnvironmentConfig,
    call_profile: Optional[Dict[str, int]] = None,
):
    """WARio's middle end in the Figure 2 order: always-inline + -O3,
    Loop Write Clusterer, Expander, Write Clusterer, PDG Checkpoint
    Inserter.

    ``call_profile`` (hot callee -> measured call count, see
    :func:`~repro.core.profiling.iclang_pgo`) makes the Expander step
    inline by the profile instead of the static heuristic, whether or not
    ``config.expander`` is set.

    Returns the :class:`~repro.analysis.summaries.SummaryTable` when
    ``config.call_summaries`` is set (the back end needs the transparent
    set), else ``None``.  With ``config.checkpoint_elim`` the
    certificate-guided elision pass runs after insertion and its
    :class:`~repro.core.checkpoint_elim.ElisionReport` is attached to
    the module as ``module.elision_report``.
    """
    optimize_module(module)
    if config.volatile_cache:
        from ..transforms.volatile_cache import cache_volatile_data

        cache_volatile_data(module, alias_mode=config.alias_mode)
        run_dce(module)
    if config.loop_write_clusterer:
        cluster_loop_writes(
            module, unroll_factor=config.unroll_factor, alias_mode=config.alias_mode
        )
        run_dce(module)
    if call_profile is not None or config.expander:
        if call_profile is not None:
            from .profiling import profile_guided_expand

            # every callee in the profile is already hot (see iclang_pgo)
            profile_guided_expand(module, call_profile, min_calls=1)
        else:
            expand(module)
        run_simplify(module)
        run_dce(module)
    if config.write_clusterer:
        cluster_writes(module, alias_mode=config.alias_mode)
    summaries = None
    if config.instrument:
        if config.call_summaries:
            from ..analysis.summaries import compute_summaries

            summaries = compute_summaries(module, alias_mode=config.alias_mode)
        # One Andersen solve for the whole middle end: the inserter and
        # the elision pass share it instead of each recomputing.
        from ..analysis.pointsto import module_points_to

        points_to = module_points_to(module, summaries)
        insert_checkpoints(
            module, alias_mode=config.alias_mode, summaries=summaries,
            points_to=points_to,
        )
        if config.max_region_cycles is not None:
            from .region_bound import bound_region_sizes

            bound_region_sizes(module, config.max_region_cycles, summaries)
        if config.force_unsafe_elision is not None and not config.checkpoint_elim:
            raise ValueError(
                "force_unsafe_elision requires checkpoint_elim (the knob "
                "seeds a bug inside the elision pass)"
            )
        if config.checkpoint_elim:
            from .checkpoint_elim import elide_redundant_checkpoints

            module.elision_report = elide_redundant_checkpoints(
                module,
                alias_mode=config.alias_mode,
                summaries=summaries,
                points_to=points_to,
                budget=config.max_region_cycles,
                force_unsafe=config.force_unsafe_elision,
            )
        if config.drop_checkpoint is not None:
            _drop_nth_checkpoint(module, config.drop_checkpoint)
    verify_module(module)
    return summaries


@dataclass
class Build:
    """One module compiled under one environment down to machine code.

    ``module`` is the instrumented IR (the back end simplifies and
    edge-splits it in place), ``summaries`` the table the middle end
    computed (``None`` without ``call_summaries``), ``elision_report``
    the elision pass's report (``None`` without ``checkpoint_elim``) and
    ``mmodule`` the machine module.  Certify a build
    (:func:`repro.core.lint.certify`) before :meth:`encode`, which
    rewrites ``mmodule`` in place.
    """

    config: EnvironmentConfig
    module: Module
    summaries: Optional[SummaryTable]
    elision_report: Optional[ElisionReport]
    mmodule: MModule

    def encode(self) -> Program:
        """Link the machine module into the executable image; the last
        step of a build."""
        program = encode_module(self.mmodule)
        if self.elision_report is not None:
            # ride the elision count on the program so bench/eval cells
            # can report the optimisation trajectory without recompiling
            program.elisions = self.elision_report.elided
        return program


def lower(module: Module, config: EnvironmentConfig, summaries=None) -> Build:
    """The back end for a module ``run_middle_end`` instrumented under
    ``config`` (``summaries`` is what it returned): the one place an
    environment becomes :func:`~repro.backend.lower_module` arguments."""
    mmodule = lower_module(
        module,
        spill_checkpoint_mode=config.spill_checkpoint_mode if config.instrument else None,
        epilogue_style=config.epilogue_style,
        entry_checkpoints=config.instrument,
        transparent=(
            summaries.transparent_names() if summaries is not None else None
        ),
        epilogue_bug=config.epilogue_bug,
    )
    return Build(config, module, summaries,
                 getattr(module, "elision_report", None), mmodule)


def build(module: Module, env: Union[str, EnvironmentConfig]) -> Build:
    """Middle end + back end for an already-front-ended module."""
    config = environment(env)
    return lower(module, config, run_middle_end(module, config))


def iclang(
    sources: Union[str, List[str]],
    env: Union[str, EnvironmentConfig] = "wario",
    unroll_factor: Optional[int] = None,
    name: str = "program",
    cache=None,
) -> Program:
    """The drop-in compilation driver: mini-C source(s) -> executable.

    ``unroll_factor`` overrides the Loop Write Clusterer's N (paper
    default: 8, found experimentally in §5.2.4).  To certify the same
    build before encoding it, compose :func:`build`,
    :func:`repro.core.lint.certify` and :meth:`Build.encode`.

    Compilation is content-addressed: the result is looked up in (and
    stored to) the on-disk :mod:`repro.cache` keyed on the sources, the
    resolved environment config, and the toolchain fingerprint.  Pass
    ``cache=False`` to force a fresh compile, or a
    :class:`~repro.cache.CompileCache` instance to use a specific store
    (``None`` uses the process-wide default, honouring ``REPRO_CACHE``).
    """
    from ..cache import cached, compile_key, resolve_cache

    config = environment(env)
    if unroll_factor is not None:
        config = replace(config, unroll_factor=unroll_factor)
    if isinstance(sources, str):
        sources = [sources]
    key = compile_key(sources, config, name=name)

    def compile_program() -> Program:
        module = compile_sources(sources, name)
        verify_module(module)
        program = build(module, config).encode()
        program.cache_key = key
        return program

    return cached(resolve_cache(cache), key, compile_program)
