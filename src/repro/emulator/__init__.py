"""repro.emulator — the custom processor emulator (paper §5.1.1): NVM
memory model, cycle accounting with pipeline refills, double-buffered
register checkpoints, power-failure injection, interrupt stacking,
WAR-violation absence verification, and the commit log of a traced
run."""

from .commitlog import CommitLog
from .costs import DEFAULT_COSTS, CostModel
from .events import EVENT_KINDS, Event, EventTrace
from .machine import (
    EmulationError,
    EmulationLimit,
    Machine,
    NoForwardProgress,
)
from .power import (
    ContinuousPower,
    FixedPeriodPower,
    PowerSupply,
    SchedulePower,
    SuddenDropPower,
    TracePower,
    trace_a,
    trace_b,
)
from .stats import ExecutionStats
from .warcheck import Violation, WARChecker

__all__ = [
    "CostModel", "DEFAULT_COSTS",
    "Machine", "EmulationError", "EmulationLimit", "NoForwardProgress",
    "PowerSupply", "ContinuousPower", "FixedPeriodPower", "TracePower",
    "SchedulePower", "SuddenDropPower",
    "trace_a", "trace_b",
    "ExecutionStats",
    "EVENT_KINDS", "Event", "EventTrace", "CommitLog",
    "WARChecker", "Violation",
]
