"""Differential validation: the static idempotence certifier vs. the
fault-injection campaign, over the same (benchmark, environment) cells.

Each cell is judged twice:

* **statically** — ``repro lint`` at ``level="full"`` (region dataflow,
  machine verifiers, and the idempotence certifier of
  :mod:`repro.analysis.idempotence`);
* **dynamically** — a fault-injection campaign under a periodic
  interrupt load (:class:`~repro.faultinject.CampaignConfig` with
  ``interrupt_interval`` set), whose continuous-power oracle and
  power-failure replays observe real re-execution behaviour.

The two verdicts are then cross-checked:

===============  ===============  ==================================
static           dynamic          agreement
===============  ===============  ==================================
certified        clean            ``agree-clean``
violated         dirty            ``agree-dirty``
certified        dirty            ``unsound`` — **hard failure**: the
                                  certifier signed off on a program the
                                  campaign broke
violated         clean            ``incomplete`` — hard failure when
                                  the cell carries a seeded bug knob
                                  (the campaign *must* observe a true
                                  positive); a warning otherwise
                                  (static over-approximation is
                                  permitted)
===============  ===============  ==================================

Seeded mutation knobs (``EnvironmentConfig.drop_checkpoint`` /
``skip_pop_conversion`` / ``drop_epilog_mask`` /
``force_unsafe_elision``) provide known-bad cells so the harness
validates both directions: the certifier must flag every seeded bug,
and the campaign must reproduce each one dynamically in the same cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..core.pipeline import ENVIRONMENTS, environment
from ..diagnostics import ERROR
from .campaign import (
    CampaignConfig,
    Env,
    _execute_oracle,
    env_name,
    run_campaign,
)

#: cell agreement classes
AGREE_CLEAN = "agree-clean"
AGREE_DIRTY = "agree-dirty"
UNSOUND = "unsound"
INCOMPLETE = "incomplete"

AGREEMENTS = (AGREE_CLEAN, AGREE_DIRTY, UNSOUND, INCOMPLETE)


def seeded_knobs(env: Env) -> Tuple[str, ...]:
    """The fault-seeding knobs a cell's environment carries."""
    config = environment(env)
    knobs = []
    if config.drop_checkpoint is not None:
        knobs.append(f"drop_checkpoint={config.drop_checkpoint}")
    if config.skip_pop_conversion:
        knobs.append("skip_pop_conversion")
    if config.drop_epilog_mask:
        knobs.append("drop_epilog_mask")
    if config.force_unsafe_elision is not None:
        knobs.append(f"force_unsafe_elision={config.force_unsafe_elision}")
    return tuple(knobs)


@dataclass(frozen=True)
class DifferentialConfig:
    """One differential run: explicit (bench, env) cells, not a product
    sweep — mutant environments pair with the program that exposes their
    seeded bug."""

    cells: Tuple[Tuple[str, Env], ...]
    seed: int = 0
    event_cap: int = 2
    interior_points: int = 2
    post_restore: int = 1
    max_schedules: int = 0
    jobs: Optional[int] = None
    #: periodic timer-interrupt load for every dynamic run; exposed
    #: epilogue frame releases are only dynamically observable when
    #: hardware stacking can land inside the unprotected window
    interrupt_interval: Optional[int] = 3


def _mutant_cells() -> List[Tuple[str, Env]]:
    """The four seeded true-positive cells, one per mutation knob,
    each paired with the program that makes the bug observable.

    ``xcall`` carries all four: its live middle-end checkpoint is
    index 1 (index 0 lands in the inlined-away ``work`` copy — the same
    counting ``force_unsafe_elision`` uses, so index 1 force-elides a
    checkpoint whose merged-region sub-proofs demonstrably fail), its
    Ratchet epilogues pop callee-saved groups, and its cross-call frame
    read makes the exposed WARio release reachable only through the
    certifier's mod/ref facts.
    """
    return [
        ("xcall", replace(
            ENVIRONMENTS["wario"],
            name="wario+drop-checkpoint", drop_checkpoint=1,
        )),
        ("xcall", replace(
            ENVIRONMENTS["ratchet"],
            name="ratchet+skip-pop-conversion", skip_pop_conversion=True,
        )),
        ("xcall", replace(
            ENVIRONMENTS["wario-summaries"],
            name="wario-summaries+drop-epilog-mask", drop_epilog_mask=True,
        )),
        ("xcall", replace(
            ENVIRONMENTS["wario-opt"],
            name="wario-opt+force-unsafe-elision", force_unsafe_elision=1,
        )),
    ]


def quick_differential_config(**overrides) -> DifferentialConfig:
    """The CI/test-sized run: the ``xcall`` diagnostic under its clean
    environments plus the four seeded mutants (seconds, not minutes)."""
    cells = [
        ("xcall", "wario"),
        ("xcall", "ratchet"),
        ("xcall", "wario-summaries"),
        ("xcall", "wario-opt"),
    ] + _mutant_cells()
    defaults = dict(cells=tuple(cells))
    defaults.update(overrides)
    return DifferentialConfig(**defaults)


def full_differential_config(**overrides) -> DifferentialConfig:
    """The thorough run: a clean benchmark × environment matrix plus the
    four seeded mutants."""
    cells = [
        (bench, env)
        for bench in ("crc", "sha", "xcall")
        for env in ("wario", "ratchet", "wario-summaries",
                    "wario-opt", "ratchet-opt")
    ] + _mutant_cells()
    defaults = dict(cells=tuple(cells))
    defaults.update(overrides)
    return DifferentialConfig(**defaults)


@dataclass
class CellVerdict:
    """Both verdicts for one cell, plus their agreement class."""

    bench: str
    env: str
    knobs: Tuple[str, ...]
    static_certified: bool
    static_codes: Tuple[str, ...]
    static_functions: Tuple[str, ...]
    dynamic_clean: bool
    dynamic_reasons: Tuple[str, ...]
    agreement: str

    @property
    def hard_failure(self) -> bool:
        if self.agreement == UNSOUND:
            return True
        return self.agreement == INCOMPLETE and bool(self.knobs)


@dataclass
class DifferentialReport:
    """The outcome of one :func:`run_differential`."""

    config: DifferentialConfig
    cells: List[CellVerdict] = field(default_factory=list)

    @property
    def failures(self) -> List[CellVerdict]:
        return [cell for cell in self.cells if cell.hard_failure]

    @property
    def certified(self) -> bool:
        """True iff no cell is a hard differential failure."""
        return not self.failures

    def to_dict(self):
        return {
            "certified": self.certified,
            "cells": [
                {
                    "bench": cell.bench,
                    "env": cell.env,
                    "knobs": list(cell.knobs),
                    "static": {
                        "certified": cell.static_certified,
                        "codes": list(cell.static_codes),
                        "functions": list(cell.static_functions),
                    },
                    "dynamic": {
                        "clean": cell.dynamic_clean,
                        "reasons": list(cell.dynamic_reasons),
                    },
                    "agreement": cell.agreement,
                    "hard_failure": cell.hard_failure,
                }
                for cell in self.cells
            ],
            "config": {
                "cells": [
                    [bench, env_name(env)] for bench, env in self.config.cells
                ],
                "seed": self.config.seed,
                "interrupt_interval": self.config.interrupt_interval,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        for cell in self.cells:
            static = "certified" if cell.static_certified else (
                "violated(" + ",".join(cell.static_codes) + ")"
            )
            dynamic = "clean" if cell.dynamic_clean else (
                "dirty(" + "; ".join(cell.dynamic_reasons) + ")"
            )
            mark = "FAIL" if cell.hard_failure else "ok"
            knobs = f" [{','.join(cell.knobs)}]" if cell.knobs else ""
            lines.append(
                f"{mark:>4s} {cell.bench:>8s} × {cell.env:<32s}"
                f" {cell.agreement:<12s} static={static} dynamic={dynamic}"
                f"{knobs}"
            )
        verdict = "AGREE" if self.certified else "DISAGREE"
        lines.append(
            f"differential {verdict}: "
            f"{len(self.cells) - len(self.failures)}/{len(self.cells)} "
            f"cells consistent"
        )
        return "\n".join(lines)


def _static_verdict(bench_name: str, env: Env, cache):
    """Run the full-depth lint over one cell."""
    from ..benchsuite import get_benchmark
    from ..core.lint import lint_sources

    bench = get_benchmark(bench_name)
    result = lint_sources(
        bench.source, env, name=bench_name, cache=cache, level="full"
    )
    errors = [d for d in result.engine.diagnostics if d.severity == ERROR]
    codes = tuple(sorted({d.code for d in errors}))
    functions = tuple(sorted({d.function for d in errors if d.function}))
    return result.certified, codes, functions


def _dynamic_verdict(bench_name: str, env: Env,
                     config: DifferentialConfig, cache):
    """Run the injection campaign over one cell."""
    campaign = CampaignConfig(
        benches=(bench_name,),
        envs=(env,),
        seed=config.seed,
        event_cap=config.event_cap,
        interior_points=config.interior_points,
        post_restore=config.post_restore,
        max_schedules=config.max_schedules,
        jobs=config.jobs,
        interrupt_interval=config.interrupt_interval,
    )
    report = run_campaign(campaign, cache=cache)
    pair = report.pairs[0]
    reasons = []
    if not pair.oracle.war_clean:
        reasons.append("continuous-power oracle is WAR-unclean")
    if not pair.oracle.outputs_ok:
        reasons.append("continuous-power oracle outputs diverge")
    for judged in pair.findings:
        schedule = judged.shrunk or judged.outcome.schedule
        points = ",".join(str(d) for d in schedule)
        reasons.append(f"schedule ({points}): {judged.verdict}")
    return pair.certified, tuple(reasons)


def _agreement(static_certified: bool, dynamic_clean: bool) -> str:
    if static_certified and dynamic_clean:
        return AGREE_CLEAN
    if not static_certified and not dynamic_clean:
        return AGREE_DIRTY
    if static_certified:
        return UNSOUND
    return INCOMPLETE


def run_differential(
    config: DifferentialConfig, cache=None
) -> DifferentialReport:
    """Cross-validate every cell; both phases share the content-addressed
    cache (``None`` — process default, ``False`` — no caching)."""
    report = DifferentialReport(config=config)
    for bench_name, env in config.cells:
        static_certified, codes, functions = _static_verdict(
            bench_name, env, cache
        )
        dynamic_clean, reasons = _dynamic_verdict(
            bench_name, env, config, cache
        )
        report.cells.append(CellVerdict(
            bench=bench_name,
            env=env_name(env),
            knobs=seeded_knobs(env),
            static_certified=static_certified,
            static_codes=codes,
            static_functions=functions,
            dynamic_clean=dynamic_clean,
            dynamic_reasons=reasons,
            agreement=_agreement(static_certified, dynamic_clean),
        ))
    return report


# ---------------------------------------------------------------------------
# Progress differential: the static forward-progress certifier
# (:mod:`repro.analysis.progress`) vs. observed execution
# ---------------------------------------------------------------------------

#: progress-cell agreement classes
PROGRESS_SOUND = "progress-sound"
PROGRESS_UNSOUND = "progress-unsound"
PROGRESS_TRUE_POSITIVE = "progress-true-positive"
PROGRESS_INCOMPLETE = "progress-incomplete"


@dataclass(frozen=True)
class ProgressDifferentialConfig:
    """One progress-differential run over explicit (bench, env) cells.

    Every dynamic run uses continuous power with **no** interrupt load
    (``interrupt_interval=None``): ISR entry/body/exit cycles land
    inside regions but are not part of the program the static bound
    covers, so they would inflate observed gaps past a perfectly sound
    bound."""

    cells: Tuple[Tuple[str, Env], ...]
    #: extra on-time cycles granted beyond the guaranteed-progress
    #: period in the starvation cross-check
    slack: int = 0
    #: region allowance for expected-starvation runs of statically
    #: unbounded cells: on-time = boot + restore + this (must be well
    #: under the real region length so the cell demonstrably starves)
    starve_window: int = 2_000


def quick_progress_config(**overrides) -> ProgressDifferentialConfig:
    """The CI/test-sized run: two suite programs plus the seeded
    ``spin`` true positive."""
    cells = [
        ("crc", "wario"),
        ("sha", "ratchet"),
        ("spin", "wario"),
    ]
    defaults = dict(cells=tuple(cells))
    defaults.update(overrides)
    return ProgressDifferentialConfig(**defaults)


def full_progress_config(**overrides) -> ProgressDifferentialConfig:
    """The thorough run: all six suite benchmarks under wario and
    ratchet, plus the seeded ``spin`` true positive under both."""
    from ..benchsuite import BENCHMARKS

    cells = [
        (bench, env)
        for bench in BENCHMARKS
        for env in ("wario", "ratchet")
    ] + [("spin", "wario"), ("spin", "ratchet")]
    defaults = dict(cells=tuple(cells))
    defaults.update(overrides)
    return ProgressDifferentialConfig(**defaults)


@dataclass
class ProgressCellVerdict:
    """Static bound vs. observed gaps for one cell."""

    bench: str
    env: str
    #: program-level static region bound (None = unbounded)
    static_bound: Optional[int]
    #: largest inter-checkpoint gap observed under continuous power
    dynamic_max_gap: int
    #: dynamic/static (None for unbounded cells)
    tightness: Optional[float]
    #: the guaranteed-progress on-time the starvation check ran at
    #: (bounded cells), or the deliberately-short on-time (unbounded)
    on_time: int
    #: 'completed' | 'starved'
    starvation: str
    agreement: str

    @property
    def hard_failure(self) -> bool:
        return self.agreement == PROGRESS_UNSOUND


@dataclass
class ProgressReport:
    """The outcome of one :func:`run_progress_differential`."""

    config: ProgressDifferentialConfig
    cells: List[ProgressCellVerdict] = field(default_factory=list)

    @property
    def failures(self) -> List[ProgressCellVerdict]:
        return [cell for cell in self.cells if cell.hard_failure]

    @property
    def certified(self) -> bool:
        return not self.failures

    def to_dict(self):
        return {
            "certified": self.certified,
            "cells": [
                {
                    "bench": cell.bench,
                    "env": cell.env,
                    "static_bound": cell.static_bound,
                    "dynamic_max_gap": cell.dynamic_max_gap,
                    "tightness": cell.tightness,
                    "on_time": cell.on_time,
                    "starvation": cell.starvation,
                    "agreement": cell.agreement,
                    "hard_failure": cell.hard_failure,
                }
                for cell in self.cells
            ],
            "config": {
                "cells": [
                    [bench, env_name(env)] for bench, env in self.config.cells
                ],
                "slack": self.config.slack,
                "starve_window": self.config.starve_window,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        for cell in self.cells:
            mark = "FAIL" if cell.hard_failure else "ok"
            bound = ("unbounded" if cell.static_bound is None
                     else str(cell.static_bound))
            ratio = ("-" if cell.tightness is None
                     else f"{cell.tightness:.3f}")
            lines.append(
                f"{mark:>4s} {cell.bench:>8s} × {cell.env:<12s}"
                f" {cell.agreement:<22s} static={bound:>9s}"
                f" observed={cell.dynamic_max_gap:>8d}"
                f" tightness={ratio:>6s}"
                f" @on-time={cell.on_time}: {cell.starvation}"
            )
        verdict = "SOUND" if self.certified else "UNSOUND"
        lines.append(
            f"progress differential {verdict}: "
            f"{len(self.cells) - len(self.failures)}/{len(self.cells)} "
            f"cells consistent"
        )
        return "\n".join(lines)


def _progress_static(bench_name: str, env: Env, cache) -> Optional[int]:
    """The program-level static region bound of one cell."""
    from ..benchsuite import get_benchmark
    from ..core.lint import lint_sources

    bench = get_benchmark(bench_name)
    result = lint_sources(
        bench.source, env, name=bench_name, cache=cache, level="full"
    )
    return result.progress_bound


def _progress_dynamic(bench_name: str, env: Env, bound: Optional[int],
                      config: ProgressDifferentialConfig, cache):
    """Observe one cell: the real inter-checkpoint gaps of the pair's
    campaign oracle (its continuous-power run), then the starvation
    cross-check.

    Returns ``(max_gap, on_time, starvation)``."""
    from ..benchsuite import compile_benchmark, get_benchmark, verify_outputs
    from ..emulator import Machine, NoForwardProgress
    from ..emulator.costs import DEFAULT_COSTS
    from ..emulator.events import Event, EventTrace
    from ..emulator.power import FixedPeriodPower

    bench = get_benchmark(bench_name)
    oracle = _execute_oracle(bench_name, env, cache)
    trace = EventTrace()
    trace.events = [Event(*event) for event in oracle.events]
    max_gap = trace.max_checkpoint_gap(oracle.cycles)
    program = compile_benchmark(bench, env, None, cache=cache)

    costs = DEFAULT_COSTS
    overhead = costs.boot_cycles + costs.restore_cycles
    if bound is not None:
        # Guaranteed-progress on-time: boot + restore + the worst
        # region + the commit that seals it, plus one cycle so the
        # period strictly covers the region (the emulator fails a
        # period the instant cost would exceed it).
        on_time = (overhead + bound + costs.checkpoint_cycles + 1
                   + config.slack)
    else:
        on_time = overhead + config.starve_window
    replay = Machine(program, war_check=True)
    try:
        replay_stats = replay.run(
            power=FixedPeriodPower(on_time),
            max_instructions=bench.max_instructions * 4,
        )
        if replay_stats.halted:
            verify_outputs(bench, replay)
            starvation = "completed"
        else:
            starvation = "starved"
    except NoForwardProgress:
        starvation = "starved"
    return max_gap, on_time, starvation


def _progress_agreement(bound: Optional[int], max_gap: int,
                        starvation: str) -> str:
    if bound is None:
        return (PROGRESS_TRUE_POSITIVE if starvation == "starved"
                else PROGRESS_INCOMPLETE)
    if max_gap > bound or starvation == "starved":
        return PROGRESS_UNSOUND
    return PROGRESS_SOUND


def run_progress_differential(
    config: ProgressDifferentialConfig, cache=None
) -> ProgressReport:
    """Cross-validate the static progress certifier over every cell:
    no observed inter-checkpoint gap may exceed its static bound, a
    bounded cell must complete at the guaranteed-progress on-time, and
    an unbounded cell is expected to starve at a short one."""
    report = ProgressReport(config=config)
    for bench_name, env in config.cells:
        bound = _progress_static(bench_name, env, cache)
        max_gap, on_time, starvation = _progress_dynamic(
            bench_name, env, bound, config, cache
        )
        tightness = (max_gap / bound) if bound else None
        report.cells.append(ProgressCellVerdict(
            bench=bench_name,
            env=env_name(env),
            static_bound=bound,
            dynamic_max_gap=max_gap,
            tightness=tightness,
            on_time=on_time,
            starvation=starvation,
            agreement=_progress_agreement(bound, max_gap, starvation),
        ))
    return report


__all__ = [
    "AGREEMENTS", "AGREE_CLEAN", "AGREE_DIRTY", "INCOMPLETE", "UNSOUND",
    "CellVerdict", "DifferentialConfig", "DifferentialReport",
    "full_differential_config", "quick_differential_config",
    "run_differential", "seeded_knobs",
    "PROGRESS_SOUND", "PROGRESS_UNSOUND", "PROGRESS_TRUE_POSITIVE",
    "PROGRESS_INCOMPLETE",
    "ProgressCellVerdict", "ProgressDifferentialConfig", "ProgressReport",
    "full_progress_config", "quick_progress_config",
    "run_progress_differential",
]
