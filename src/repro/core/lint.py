"""``repro lint`` — whole-pipeline static WAR certification.

Certifies one :class:`~repro.core.pipeline.Build` — the instrumented IR
and machine code of one compile, before it is encoded — and collects
every static verifier's findings into a single
:class:`~repro.diagnostics.DiagnosticEngine`:

* the IR-level region dataflow (:mod:`repro.analysis.static_war`) over
  the instrumented IR (as the back end left it: simplified and
  edge-split),
* the machine-level stack verifier (:mod:`repro.backend.mir_war`) over
  the final machine IR (spill slots, pops, epilogue frame releases),
* the structural machine-IR verifier (`verify_mfunction`), whose
  findings are converted to ``mir-structural`` diagnostics rather than
  raised, so a lint run always reports everything it found,
* the static idempotence certifier
  (:mod:`repro.analysis.idempotence`), which re-proves per-region
  re-execution consistency over both IR levels and emits
  machine-checkable per-function certificates.

Each function's region dataflow is solved once per level, over one
whole-program points-to map: the WAR verifiers and the idempotence
certifier render the same findings.

The certification depth is selectable (``level``): ``"ir"`` stops after
the IR-level verifier, ``"mir"`` adds the back-end verifiers (the
historical default), ``"full"`` adds the idempotence certifier.

Exit-code contract (used by the CLI and by CI): ``0`` — certified
WAR-free; ``1`` — at least one error-severity diagnostic; ``2`` — the
program failed to compile at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..analysis.pointsto import module_points_to, report_top_causes
from ..analysis.static_war import analyse_function_war, report_function_war
from ..backend import MIRVerificationError, verify_mfunction
from ..backend.mir_war import MachineRegionAnalysis, report_mfunction_war
# unused here, but perfbench's tracer wraps these names in this module
from ..analysis.static_war import verify_module_war
from ..backend import lower_module
from ..backend.mir_war import verify_mmodule_war
from ..diagnostics import LEVEL_MIR, DiagnosticEngine
from ..frontend import compile_sources
from ..ir import Module, verify_module
from ..ir.instructions import Checkpoint
from .pipeline import Build, EnvironmentConfig, build, environment

#: Exit codes of the ``lint`` subcommand.
EXIT_CLEAN = 0
EXIT_ERRORS = 1
EXIT_COMPILE_FAILED = 2

#: Certification depths, shallowest first.
LEVEL_ORDER = ("ir", "mir", "full")


@dataclass
class LintResult:
    """Outcome of linting one program under one environment."""

    name: str
    env: str
    engine: DiagnosticEngine
    #: certification depth this result was produced at
    level: str = "full"
    #: per-function idempotence certificates (``level="full"`` only)
    certificates: List[Dict[str, object]] = field(default_factory=list)
    #: per-function forward-progress certificates (``level="full"`` only)
    progress: List[Dict[str, object]] = field(default_factory=list)
    #: per-elision placement certificates, audited
    #: (``level="full"`` with ``checkpoint_elim`` environments only)
    placement: List[Dict[str, object]] = field(default_factory=list)
    #: the per-region cycle budget the progress certifier was held to
    budget: Optional[int] = None

    @property
    def certified(self) -> bool:
        return not self.engine.has_errors

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if self.certified else EXIT_ERRORS

    @property
    def progress_bound(self) -> Optional[int]:
        """Program-level worst-case region cycle bound (None = unbounded
        or not computed at this level)."""
        if not self.progress:
            return None
        from ..analysis.progress import progress_bound

        return progress_bound(self.progress)


def strip_checkpoints(module: Module) -> int:
    """Remove every checkpoint intrinsic from ``module`` (testing aid:
    deliberately un-protect an instrumented module so the verifier has
    something to find).  Returns the number removed."""
    removed = 0
    for function in module.defined_functions():
        for block in function.blocks:
            kept = []
            for instr in block.instructions:
                if isinstance(instr, Checkpoint):
                    instr.parent = None
                    removed += 1
                else:
                    kept.append(instr)
            block.instructions = kept
    return removed


def certify(
    build: Build,
    level: str = "full",
    budget: Optional[int] = None,
    name: Optional[str] = None,
) -> LintResult:
    """Run the static verifiers up to ``level`` over one build, collecting
    all diagnostics.  Certify before :meth:`Build.encode`, which
    rewrites the machine module in place.

    ``budget`` is a per-region cycle budget for the forward-progress
    certifier (``level="full"``): with it set, ``progress-unbounded``
    hardens from warning to error and any region whose machine-level
    worst case exceeds the budget raises ``progress-budget-exceeded``.
    """
    if level not in LEVEL_ORDER:
        raise ValueError(
            f"unknown lint level {level!r} (choose from {LEVEL_ORDER})"
        )
    config, module, mmodule = build.config, build.module, build.mmodule
    summaries = build.summaries
    name = name or module.name
    engine = DiagnosticEngine()
    transparent = set()
    if summaries is not None:
        # Surface the precision-loss warnings alongside the WAR findings.
        report_top_causes(summaries.causes, engine)
        transparent = summaries.transparent_names()
    points_to = module_points_to(module, summaries)
    functions = [
        analyse_function_war(function, config.alias_mode, points_to,
                             config.instrument, summaries)
        for function in module.defined_functions()
    ]
    for war in functions:
        report_function_war(war, engine)
    if level == "ir":
        return LintResult(name, config.name, engine, level)
    for mfn in mmodule.functions.values():
        try:
            verify_mfunction(mfn, after_regalloc=True)
        except MIRVerificationError as exc:
            for problem in exc.problems:
                engine.error(
                    "mir-structural", problem,
                    function=mfn.name, level=LEVEL_MIR,
                )
    aliases = {war.function.name: war.aa for war in functions}
    machine_events = {}
    for mfn in mmodule.functions.values():
        analysis = MachineRegionAnalysis(
            mfn, aliases.get(mfn.name), config.instrument, transparent,
            summaries,
        )
        events = machine_events[mfn.name] = list(analysis.findings())
        report_mfunction_war(analysis, events, engine)
    certificates: List[Dict[str, object]] = []
    progress: List[Dict[str, object]] = []
    placement: List[Dict[str, object]] = []
    if level == "full" and config.instrument:
        # The certifier's region model assumes checkpoints delimit
        # regions; an uninstrumented build has nothing to certify (the
        # IR verifier already reports why it is unsafe).
        from ..analysis.idempotence import certify_module_idempotence
        from ..analysis.progress import certify_module_progress

        certificates = certify_module_idempotence(
            functions, mmodule, machine_events, transparent, engine)
        _, progress = certify_module_progress(
            module,
            mmodule,
            engine=engine,
            budget=budget,
            region_budget=config.max_region_cycles,
        )
        report = build.elision_report
        if report is not None:
            # Audit the elision pass's own certificates: every removed
            # checkpoint must carry three discharged sub-proofs.  This
            # is the fourth certificate family (``placement-*``); the
            # three independent verifiers above re-certify the elided
            # module end-to-end, so an unsound elision trips both.
            from .checkpoint_elim import audit_elisions

            audit_elisions(report, engine)
            placement = report.certificates
    return LintResult(name, config.name, engine, level,
                      certificates, progress, placement, budget)


def lint_sources(
    sources: Union[str, List[str]],
    env: Union[str, EnvironmentConfig] = "wario",
    name: str = "program",
    cache=None,
    level: str = "full",
    budget: Optional[int] = None,
) -> LintResult:
    """Front end + :func:`~repro.core.pipeline.build` + :func:`certify`
    for mini-C sources.

    Verdicts are content-addressed like compiles: the same sources under
    the same environment and toolchain always produce the same
    diagnostics, so repeated lint runs (CI matrices, pre-commit hooks)
    hit the :mod:`repro.cache` instead of re-verifying.  ``cache``
    follows the :func:`repro.cache.resolve_cache` convention.
    """
    from ..cache import cached, lint_key, resolve_cache

    if isinstance(sources, str):
        sources = [sources]
    config = environment(env)

    def lint() -> LintResult:
        module = compile_sources(sources, name)
        verify_module(module)
        return certify(build(module, config), level=level, budget=budget,
                       name=name)

    key = lint_key(sources, config, name=name, level=level, budget=budget)
    return cached(resolve_cache(cache), key, lint)


def diagnostics_json(results: List[LintResult]) -> str:
    """All results' diagnostics as one deterministic JSON document.

    Sorted by (file, line, code) so CI diffs are stable across runs;
    ``repro lint --format json`` prints it (pinned by the golden
    manifest's ``cli`` section).
    """
    from ..diagnostics import render_json

    diagnostics = [d for r in results for d in r.engine.diagnostics]
    diagnostics.sort(key=lambda d: (
        d.loc.file if d.loc is not None else "",
        d.loc.line if d.loc is not None else 0,
        d.code,
    ))
    return render_json(diagnostics)


def lint_benchmarks(
    names: Union[str, List[str]] = "all",
    env: Union[str, EnvironmentConfig] = "wario",
    level: str = "full",
    budget: Optional[int] = None,
) -> List[LintResult]:
    """Lint benchsuite programs by name (``"all"`` for the whole suite)."""
    from ..benchsuite import BENCHMARKS, get_benchmark

    if names == "all":
        selected = list(BENCHMARKS)
    elif isinstance(names, str):
        selected = [names]
    else:
        selected = list(names)
    results = []
    for bench_name in selected:
        bench = get_benchmark(bench_name)
        results.append(
            lint_sources(bench.source, env, name=bench_name, level=level,
                         budget=budget)
        )
    return results


__all__ = [
    "EXIT_CLEAN", "EXIT_ERRORS", "EXIT_COMPILE_FAILED", "LEVEL_ORDER",
    "LintResult", "diagnostics_json", "strip_checkpoints",
    "certify", "lint_sources", "lint_benchmarks",
]
