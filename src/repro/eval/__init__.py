"""repro.eval — the evaluation harness: one function per paper figure and
table (§5.2), all driven by the shared parallel :class:`ExperimentRunner`.
"""

from .figures import (
    EXPERIMENT_CELLS,
    cells_for,
    figure4,
    figure4_summary,
    figure5,
    figure6,
    figure7,
    render_all,
    render_figure4,
    render_figure5,
    render_figure6,
    render_figure7,
    render_table1,
    render_table2,
    render_table3,
    table1,
    table2,
    table3,
)
from .runner import (
    FIGURE4_ENVIRONMENTS,
    Cell,
    ExperimentRunner,
    RunResult,
    default_jobs,
    map_ordered,
    power_from_key,
)

__all__ = [
    "ExperimentRunner", "RunResult", "Cell", "FIGURE4_ENVIRONMENTS",
    "default_jobs", "map_ordered", "power_from_key",
    "EXPERIMENT_CELLS", "cells_for",
    "figure4", "figure4_summary", "figure5", "figure6", "figure7",
    "table1", "table2", "table3",
    "render_figure4", "render_figure5", "render_table1", "render_table2",
    "render_figure6", "render_figure7", "render_table3", "render_all",
]
