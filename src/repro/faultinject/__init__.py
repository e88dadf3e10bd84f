"""repro.faultinject — deterministic power-failure fault injection with
differential crash-consistency certification.

The stochastic supplies (``FixedPeriodPower``, ``TracePower``) sample
failures blindly; this subsystem *aims* them.  A campaign

1. **harvests** an event map per (benchmark, environment) pair — one
   continuous-power run with :class:`~repro.emulator.events.EventTrace`
   recording every checkpoint commit, first-region store, and
   interrupt-masked epilogue window;
2. **plans** a deterministic set of failure schedules
   (:mod:`repro.faultinject.plan`) targeting each event ±ε, post-restore
   double failures, and a budget of log-uniform interior points;
3. **executes** the schedules via
   :class:`~repro.emulator.power.SchedulePower` on the parallel
   engine of :mod:`repro.eval.runner`, with every cell content-addressed
   in :mod:`repro.cache` (interrupted campaigns resume for free);
4. **certifies** each run differentially against the oracle — final NVM
   image digest, declared benchmark outputs, and the dynamic WAR-checker
   verdict must all match continuous power — and **shrinks** any failing
   schedule to a minimal failure-point set;
5. **reports** text/JSON (:class:`CampaignReport`) with every failing
   cell's verdict, reason and shrunk schedule, plus per-point
   observability counters.

Entry points: :func:`run_campaign` (library) and ``python -m repro
inject`` (CLI).
"""

from .campaign import (
    CampaignConfig,
    CellOutcome,
    Judged,
    OracleRecord,
    PairResult,
    full_config,
    quick_config,
    run_campaign,
    shrink_schedule,
)
from .differential import (
    DifferentialConfig,
    DifferentialReport,
    ProgressDifferentialConfig,
    ProgressReport,
    full_differential_config,
    full_progress_config,
    quick_differential_config,
    quick_progress_config,
    run_differential,
    run_progress_differential,
)
from .plan import PlanConfig, plan_schedules
from .report import CampaignReport

__all__ = [
    "CampaignConfig", "CampaignReport", "CellOutcome", "Judged",
    "OracleRecord", "PairResult", "PlanConfig",
    "DifferentialConfig", "DifferentialReport",
    "ProgressDifferentialConfig", "ProgressReport",
    "full_config", "full_differential_config", "full_progress_config",
    "plan_schedules",
    "quick_config", "quick_differential_config", "quick_progress_config",
    "run_campaign", "run_differential", "run_progress_differential",
    "shrink_schedule",
]
