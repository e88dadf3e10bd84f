"""Regeneration of every figure and table in the paper's evaluation
(§5.2).  Each ``figure*``/``table*`` function returns structured rows;
each ``render_*`` pretty-prints them the way the paper reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..benchsuite import BENCHMARKS, PAPER_NAMES
from ..ir.instructions import (
    CKPT_BACKEND,
    CKPT_FUNCTION_ENTRY,
    CKPT_FUNCTION_EXIT,
    CKPT_MIDDLE_END,
)
from .runner import FIGURE4_ENVIRONMENTS, Cell, ExperimentRunner

BENCH_ORDER = tuple(BENCHMARKS)


# ---------------------------------------------------------------------------
# Figure 4: normalized execution time
# ---------------------------------------------------------------------------


def cells_figure4() -> List[Cell]:
    return [
        Cell(bench, env)
        for bench in BENCH_ORDER
        for env in ("plain",) + FIGURE4_ENVIRONMENTS
    ]


def figure4(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """benchmark -> environment -> execution time normalized to plain C."""
    runner.prefetch(cells_figure4())
    rows: Dict[str, Dict[str, float]] = {}
    for bench in BENCH_ORDER:
        rows[bench] = {"plain": 1.0}
        for env in FIGURE4_ENVIRONMENTS:
            rows[bench][env] = runner.normalized_time(bench, env)
    return rows


def figure4_summary(runner: ExperimentRunner) -> Dict[str, float]:
    """The paper's headline numbers: average checkpoint-overhead reduction
    of WARio (and +Expander) vs Ratchet and R-PDG."""
    runner.prefetch(
        Cell(bench, env)
        for bench in BENCH_ORDER
        for env in ("plain", "ratchet", "r-pdg", "wario", "wario-expander")
    )
    reductions = {}
    for target in ("wario", "wario-expander"):
        for baseline in ("ratchet", "r-pdg"):
            per_bench = []
            for bench in BENCH_ORDER:
                base = runner.checkpoint_overhead(bench, baseline)
                ours = runner.checkpoint_overhead(bench, target)
                if base > 0:
                    per_bench.append(1.0 - ours / base)
            reductions[f"{target}-vs-{baseline}"] = sum(per_bench) / len(per_bench)
    return reductions


def render_figure4(runner: ExperimentRunner) -> str:
    rows = figure4(runner)
    envs = ("plain",) + FIGURE4_ENVIRONMENTS
    lines = ["Figure 4: execution time normalized to uninstrumented C", ""]
    header = f"{'benchmark':<12}" + "".join(f"{e:>22}" for e in envs)
    lines.append(header)
    for bench in BENCH_ORDER:
        line = f"{PAPER_NAMES[bench]:<12}" + "".join(
            f"{rows[bench][e]:>22.3f}" for e in envs
        )
        lines.append(line)
    avgs = {e: sum(rows[b][e] for b in BENCH_ORDER) / len(BENCH_ORDER) for e in envs}
    lines.append(f"{'average':<12}" + "".join(f"{avgs[e]:>22.3f}" for e in envs))
    lines.append("")
    for key, value in figure4_summary(runner).items():
        lines.append(f"checkpoint-overhead reduction {key}: {value:.1%}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 5: checkpoint causes relative to R-PDG
# ---------------------------------------------------------------------------

CAUSES = (CKPT_MIDDLE_END, CKPT_BACKEND, CKPT_FUNCTION_ENTRY, CKPT_FUNCTION_EXIT)
FIGURE5_ENVIRONMENTS = (
    "r-pdg",
    "epilog-optimizer",
    "write-clusterer",
    "loop-write-clusterer",
    "wario",
    "wario-expander",
)


def cells_figure5() -> List[Cell]:
    return [
        Cell(bench, env)
        for bench in BENCH_ORDER
        for env in FIGURE5_ENVIRONMENTS
    ]


def figure5(runner: ExperimentRunner) -> Dict[str, Dict[str, Dict[str, float]]]:
    """benchmark -> environment -> cause -> % of R-PDG's total executed
    checkpoints (R-PDG itself sums to 100)."""
    runner.prefetch(cells_figure5())
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for bench in BENCH_ORDER:
        base_total = runner.executed_checkpoints(bench, "r-pdg")
        out[bench] = {}
        for env in FIGURE5_ENVIRONMENTS:
            causes = runner.checkpoint_causes(bench, env)
            out[bench][env] = {
                cause: 100.0 * causes.get(cause, 0) / base_total
                for cause in CAUSES
            }
    return out


def render_figure5(runner: ExperimentRunner) -> str:
    rows = figure5(runner)
    lines = ["Figure 5: executed checkpoints by cause, % of R-PDG total", ""]
    for bench in BENCH_ORDER:
        lines.append(f"{PAPER_NAMES[bench]}:")
        lines.append(
            f"  {'environment':<22}{'middle':>9}{'backend':>9}"
            f"{'fn-entry':>9}{'fn-exit':>9}{'total':>9}"
        )
        for env in FIGURE5_ENVIRONMENTS:
            c = rows[bench][env]
            total = sum(c.values())
            lines.append(
                f"  {env:<22}"
                f"{c[CKPT_MIDDLE_END]:>9.1f}{c[CKPT_BACKEND]:>9.1f}"
                f"{c[CKPT_FUNCTION_ENTRY]:>9.1f}{c[CKPT_FUNCTION_EXIT]:>9.1f}"
                f"{total:>9.1f}"
            )
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 1: executed-checkpoint difference vs Ratchet
# ---------------------------------------------------------------------------


def cells_table1() -> List[Cell]:
    return [
        Cell(bench, env)
        for bench in BENCH_ORDER
        for env in ("ratchet", "wario", "wario-expander")
    ]


def table1(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """benchmark -> {wario, wario-expander} -> relative change vs Ratchet
    (negative = fewer checkpoints)."""
    runner.prefetch(cells_table1())
    rows: Dict[str, Dict[str, float]] = {}
    for bench in BENCH_ORDER:
        base = runner.executed_checkpoints(bench, "ratchet")
        rows[bench] = {
            env: runner.executed_checkpoints(bench, env) / base - 1.0
            for env in ("wario", "wario-expander")
        }
    return rows


def render_table1(runner: ExperimentRunner) -> str:
    rows = table1(runner)
    lines = [
        "Table 1: total executed checkpoints vs Ratchet",
        "",
        f"{'benchmark':<12}{'WARio':>12}{'WARio+Exp':>12}",
    ]
    for bench in BENCH_ORDER:
        lines.append(
            f"{PAPER_NAMES[bench]:<12}"
            f"{rows[bench]['wario']:>12.1%}{rows[bench]['wario-expander']:>12.1%}"
        )
    avg_w = sum(r["wario"] for r in rows.values()) / len(rows)
    avg_e = sum(r["wario-expander"] for r in rows.values()) / len(rows)
    lines.append(f"{'average':<12}{avg_w:>12.1%}{avg_e:>12.1%}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 2: code size
# ---------------------------------------------------------------------------

TABLE2_ENVIRONMENTS = ("ratchet", "wario", "wario-expander")


def cells_table2() -> List[Cell]:
    return [
        Cell(bench, env)
        for bench in BENCH_ORDER
        for env in ("plain",) + TABLE2_ENVIRONMENTS
    ]


def table2(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """benchmark -> environment -> .text size increase vs plain C."""
    runner.prefetch(cells_table2())
    rows: Dict[str, Dict[str, float]] = {}
    for bench in BENCH_ORDER:
        plain = runner.run(bench, "plain").program.text_size
        rows[bench] = {
            env: runner.run(bench, env).program.text_size / plain - 1.0
            for env in TABLE2_ENVIRONMENTS
        }
    return rows


def render_table2(runner: ExperimentRunner) -> str:
    rows = table2(runner)
    lines = [
        "Table 2: .text size increase vs uninstrumented C",
        "",
        f"{'benchmark':<12}{'Ratchet':>12}{'WARio':>12}{'WARio+Exp':>12}",
    ]
    for bench in BENCH_ORDER:
        r = rows[bench]
        lines.append(
            f"{PAPER_NAMES[bench]:<12}{r['ratchet']:>12.1%}"
            f"{r['wario']:>12.1%}{r['wario-expander']:>12.1%}"
        )
    for env in TABLE2_ENVIRONMENTS:
        pass
    avgs = {
        env: sum(r[env] for r in rows.values()) / len(rows)
        for env in TABLE2_ENVIRONMENTS
    }
    lines.append(
        f"{'average':<12}{avgs['ratchet']:>12.1%}"
        f"{avgs['wario']:>12.1%}{avgs['wario-expander']:>12.1%}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 6: loop unroll factor sweep
# ---------------------------------------------------------------------------

FIGURE6_BENCHMARKS = ("sha", "tiny-aes", "coremark")
FIGURE6_FACTORS = (1, 2, 4, 6, 8, 10, 15, 20, 25, 30, 35)


@dataclass
class UnrollPoint:
    factor: int
    middle_pct: float      # middle-end checkpoints, % of N=1
    backend_pct: float     # back-end checkpoints, % of N=1 total checkpoints
    overhead_reduction: float  # % reduction of checkpoint overhead vs N=1


def cells_figure6() -> List[Cell]:
    cells = []
    for bench in FIGURE6_BENCHMARKS:
        cells.append(Cell(bench, "plain"))
        for factor in FIGURE6_FACTORS:
            cells.append(Cell(bench, "wario", factor))
    return cells


def figure6(runner: ExperimentRunner) -> Dict[str, List[UnrollPoint]]:
    runner.prefetch(cells_figure6())
    out: Dict[str, List[UnrollPoint]] = {}
    for bench in FIGURE6_BENCHMARKS:
        base = runner.run(bench, "wario", unroll_factor=1)
        base_causes = base.stats.checkpoint_causes
        base_middle = max(base_causes.get(CKPT_MIDDLE_END, 0), 1)
        base_overhead = base.stats.cycles - runner.cycles(bench, "plain")
        points = []
        for factor in FIGURE6_FACTORS:
            run = runner.run(bench, "wario", unroll_factor=factor)
            causes = run.stats.checkpoint_causes
            overhead = run.stats.cycles - runner.cycles(bench, "plain")
            points.append(
                UnrollPoint(
                    factor=factor,
                    middle_pct=100.0 * causes.get(CKPT_MIDDLE_END, 0) / base_middle,
                    backend_pct=100.0
                    * causes.get(CKPT_BACKEND, 0)
                    / max(base.stats.checkpoints, 1),
                    overhead_reduction=100.0 * (1.0 - overhead / max(base_overhead, 1)),
                )
            )
        out[bench] = points
    return out


def render_figure6(runner: ExperimentRunner) -> str:
    data = figure6(runner)
    lines = ["Figure 6: effect of the Loop Write Clusterer unroll factor N", ""]
    for bench, points in data.items():
        lines.append(f"{PAPER_NAMES[bench]}:")
        lines.append(
            f"  {'N':>4}{'middle-end ckpt %':>20}{'back-end ckpt %':>18}"
            f"{'overhead reduction %':>22}"
        )
        for p in points:
            lines.append(
                f"  {p.factor:>4}{p.middle_pct:>20.1f}{p.backend_pct:>18.1f}"
                f"{p.overhead_reduction:>22.1f}"
            )
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 7: idempotent region sizes
# ---------------------------------------------------------------------------

FIGURE7_ENVIRONMENTS = ("ratchet", "r-pdg", "wario")


@dataclass
class RegionStats:
    median: float
    mean: float
    p25: float
    p75: float
    maximum: int


def cells_figure7() -> List[Cell]:
    return [
        Cell(bench, env)
        for bench in BENCH_ORDER
        for env in FIGURE7_ENVIRONMENTS
    ]


def figure7(runner: ExperimentRunner) -> Dict[str, Dict[str, RegionStats]]:
    runner.prefetch(cells_figure7())
    out: Dict[str, Dict[str, RegionStats]] = {}
    for bench in BENCH_ORDER:
        out[bench] = {}
        for env in FIGURE7_ENVIRONMENTS:
            stats = runner.run(bench, env).stats
            out[bench][env] = RegionStats(
                median=stats.region_median,
                mean=stats.region_mean,
                p25=stats.region_percentile(0.25),
                p75=stats.region_percentile(0.75),
                maximum=stats.region_max,
            )
    return out


def render_figure7(runner: ExperimentRunner) -> str:
    data = figure7(runner)
    lines = [
        "Figure 7: idempotent region size (cycles between checkpoints)",
        "",
    ]
    for bench in BENCH_ORDER:
        lines.append(f"{PAPER_NAMES[bench]}:")
        lines.append(
            f"  {'environment':<12}{'p25':>8}{'median':>9}{'p75':>8}"
            f"{'mean':>9}{'max':>9}"
        )
        for env in FIGURE7_ENVIRONMENTS:
            r = data[bench][env]
            lines.append(
                f"  {env:<12}{r.p25:>8.0f}{r.median:>9.0f}{r.p75:>8.0f}"
                f"{r.mean:>9.1f}{r.maximum:>9}"
            )
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 3: intermittent power
# ---------------------------------------------------------------------------

TABLE3_ENV = "wario-expander"
TABLE3_PERIODS = (50_000, 100_000, 1_000_000, 5_000_000)


@dataclass
class IntermittencyRow:
    supply: str
    overhead: float        # extra cycles over continuous, fraction
    power_failures: int


TABLE3_POWER_KEYS = tuple(
    [f"fixed-{p}" for p in TABLE3_PERIODS] + ["trace-a", "trace-b"]
)


def cells_table3() -> List[Cell]:
    cells = []
    for bench in BENCH_ORDER:
        cells.append(Cell(bench, TABLE3_ENV))
        for key in TABLE3_POWER_KEYS:
            cells.append(Cell(bench, TABLE3_ENV, 0, key))
    return cells


def table3(runner: ExperimentRunner) -> Dict[str, List[IntermittencyRow]]:
    runner.prefetch(cells_table3())
    out: Dict[str, List[IntermittencyRow]] = {}
    for bench in BENCH_ORDER:
        continuous = runner.run(bench, TABLE3_ENV).stats.cycles
        rows = []
        for key in TABLE3_POWER_KEYS:
            run = runner.run(bench, TABLE3_ENV, power_key=key)
            rows.append(
                IntermittencyRow(
                    supply=key,
                    overhead=run.stats.cycles / continuous - 1.0,
                    power_failures=run.stats.power_failures,
                )
            )
        out[bench] = rows
    return out


def render_table3(runner: ExperimentRunner) -> str:
    data = table3(runner)
    lines = [
        "Table 3: re-execution overhead under intermittent power "
        f"({TABLE3_ENV}), vs continuous power",
        "",
    ]
    header = f"{'supply':<16}" + "".join(
        f"{PAPER_NAMES[b]:>20}" for b in BENCH_ORDER
    )
    lines.append(header)
    supplies = [row.supply for row in data[BENCH_ORDER[0]]]
    for i, supply in enumerate(supplies):
        cells = []
        for bench in BENCH_ORDER:
            row = data[bench][i]
            cells.append(f"{row.overhead:>11.2%} P={row.power_failures:<5}")
        lines.append(f"{supply:<16}" + "".join(f"{c:>20}" for c in cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Everything at once
# ---------------------------------------------------------------------------

#: experiment name -> cell enumerator (the full grid each figure needs)
EXPERIMENT_CELLS = {
    "fig4": cells_figure4,
    "fig5": cells_figure5,
    "table1": cells_table1,
    "table2": cells_table2,
    "fig6": cells_figure6,
    "fig7": cells_figure7,
    "table3": cells_table3,
}


def cells_for(*experiments: str) -> List[Cell]:
    """The deduplicated cell list for a set of experiments (all when
    empty), preserving first-occurrence order for deterministic merges."""
    names = experiments or tuple(EXPERIMENT_CELLS)
    seen = {}
    for name in names:
        for cell in EXPERIMENT_CELLS[name]():
            seen.setdefault(cell, None)
    return list(seen)


def render_all(runner: Optional[ExperimentRunner] = None) -> str:
    runner = runner or ExperimentRunner()
    # one batched prefetch: every cell of every figure fans out at once
    runner.prefetch(cells_for())
    parts = [
        render_figure4(runner),
        render_figure5(runner),
        render_table1(runner),
        render_table2(runner),
        render_figure6(runner),
        render_figure7(runner),
        render_table3(runner),
    ]
    return ("\n\n" + "=" * 78 + "\n\n").join(parts)
