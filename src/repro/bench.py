"""``python -m repro bench`` — the toolchain's own performance harness.

Measures the three costs the engineering work targets and emits one JSON
blob (``BENCH_<rev>.json``) per revision so regressions show up as a
diff:

* **compile** — seconds to compile each benchmark per environment, with
  every cache layer disabled (the honest front-to-back pipeline cost);
* **emulation** — emulated instructions per second of the predecoded
  interpreter on each benchmark (continuous power, WAR checking off),
  and on crc with WAR checking on, warm and on a program's first run,
  decoding included;
* **elision** — executed-checkpoint and total-cycle deltas of the
  certificate-guided elision environments (``wario-opt``,
  ``ratchet-opt``) against their baselines, with the statically elided
  count per cell;
* **eval** — wall-clock seconds of a full figure regeneration in a
  subprocess, cold (empty cache directory) then warm (same directory),
  plus the resulting speedup;
* **campaign** — fault-injection throughput: cells, wall seconds and
  cells per second of the quick campaign (``inject --quick``) at
  ``jobs=1`` with the cache off, its programs compiled beforehand;
* **sweep** — single-failure sweep throughput: one failure every 10
  cycles over crc's continuous run under ``wario`` and one every 25
  over sha's, each cell replayed serially with the cache off through
  the campaign's pair executor and judged as the campaign judges it.

``--quick`` shrinks every axis but the campaign for CI smoke runs (one
benchmark, two environments, Figure 4 only, crc's sweep alone at one
failure every 100 cycles).
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from .benchsuite import BENCHMARKS, clear_program_memo, compile_benchmark
from .core import iclang
from .emulator import Machine
from .eval.runner import default_jobs
from .faultinject import quick_config, run_campaign
from .faultinject.campaign import (
    _execute_oracle, _execute_pair, certify_outcome,
)

FULL_COMPILE_ENVS = ("plain", "ratchet", "wario", "wario-expander")
QUICK_COMPILE_ENVS = ("plain", "wario")
FULL_EVAL_EXPERIMENTS: List[str] = []          # empty = everything
QUICK_EVAL_EXPERIMENTS = ["fig4"]
#: single-failure sweeps: (benchmark, environment, cycles between failures)
SWEEPS = (("crc", "wario", 10), ("sha", "wario", 25))
QUICK_SWEEPS = (("crc", "wario", 100),)


def _revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def bench_compile(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """Seconds per (environment, benchmark) compile, all caches off."""
    envs = QUICK_COMPILE_ENVS if quick else FULL_COMPILE_ENVS
    benches = ["crc"] if quick else list(BENCHMARKS)
    out: Dict[str, Dict[str, float]] = {}
    for env in envs:
        out[env] = {}
        for name in benches:
            bench = BENCHMARKS[name]
            start = time.perf_counter()
            iclang(bench.source, env, name=name, cache=False)
            out[env][name] = round(time.perf_counter() - start, 4)
    return out


def bench_emulation(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """Emulated instructions per second per benchmark (wario build): on
    a program's first run, decoding and run-table construction included,
    and warm; plus crc with the dynamic WAR checker on
    (``crc+war_check``)."""
    runs = [(name, False) for name in (["crc"] if quick else BENCHMARKS)]
    runs.append(("crc", True))
    out: Dict[str, Dict[str, float]] = {}
    for name, war_check in runs:
        bench = BENCHMARKS[name]
        # a copy no machine has run: unpickling drops the emulator caches
        program = pickle.loads(pickle.dumps(
            compile_benchmark(bench, "wario")))
        start = time.perf_counter()
        Machine(program, war_check=war_check).run(
            max_instructions=bench.max_instructions
        )
        first = time.perf_counter() - start
        machine = Machine(program, war_check=war_check)
        start = time.perf_counter()
        stats = machine.run(max_instructions=bench.max_instructions)
        elapsed = time.perf_counter() - start
        out[f"{name}+war_check" if war_check else name] = {
            "instructions": stats.instructions,
            "seconds": round(elapsed, 4),
            "instrs_per_sec": round(stats.instructions / elapsed),
            "first_seconds": round(first, 4),
            "first_instrs_per_sec": round(stats.instructions / first),
            # largest observed inter-checkpoint gap: the dynamic side of
            # the static progress certificate, tracked per revision so
            # bound tightness drifts show up in BENCH_*.json diffs
            "max_region_cycles": stats.max_region_cycles,
            # executed checkpoint count: the runtime quantity the
            # certificate-guided elision pass optimises
            "checkpoints_executed": stats.checkpoints,
        }
    return out


#: baseline → elision-optimised environment pairs the elision table
#: compares (the opt env differs from its baseline by ``call_summaries``
#: + ``checkpoint_elim``; the static ``elided`` count isolates the
#: second factor)
ELISION_PAIRS = (("wario", "wario-opt"), ("ratchet", "ratchet-opt"))


def bench_elision(quick: bool = False) -> Dict[str, Dict[str, object]]:
    """Executed-checkpoint and total-cycle deltas of the
    certificate-guided elision environments against their baselines."""
    benches = ["crc"] if quick else list(BENCHMARKS)
    out: Dict[str, Dict[str, object]] = {}
    for base_env, opt_env in ELISION_PAIRS:
        rows: Dict[str, object] = {}
        for name in benches:
            bench = BENCHMARKS[name]
            cells = {}
            elided = 0
            for env in (base_env, opt_env):
                program = compile_benchmark(bench, env)
                stats = Machine(program, war_check=False).run(
                    max_instructions=bench.max_instructions
                )
                cells[env] = stats
                if env == opt_env:
                    elided = getattr(program, "elisions", 0)
            base, opt = cells[base_env], cells[opt_env]
            rows[name] = {
                "checkpoints_executed": {
                    base_env: base.checkpoints, opt_env: opt.checkpoints,
                    "delta": opt.checkpoints - base.checkpoints,
                },
                "cycles": {
                    base_env: base.cycles, opt_env: opt.cycles,
                    "delta": opt.cycles - base.cycles,
                },
                # statically elided middle-end checkpoints (certificates
                # audited by ``repro lint --level full``)
                "elided": elided,
            }
        out[f"{base_env}->{opt_env}"] = rows
    return out


def bench_eval(quick: bool = False) -> Dict[str, object]:
    """Cold vs warm full-evaluation wall time, in subprocesses sharing a
    fresh cache directory (the cross-process reuse the cache exists for)."""
    experiments = QUICK_EVAL_EXPERIMENTS if quick else FULL_EVAL_EXPERIMENTS
    argv = [sys.executable, "-m", "repro.eval", *experiments, "--jobs", "1"]
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        env = dict(os.environ)
        env["REPRO_CACHE"] = "1"
        env["REPRO_CACHE_DIR"] = cache_dir
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        timings = []
        for _ in ("cold", "warm"):
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            timings.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"evaluation subprocess failed:\n{proc.stderr[-2000:]}"
                )
    cold, warm = timings
    return {
        "experiments": experiments or ["all"],
        "cold_seconds": round(cold, 2),
        "warm_seconds": round(warm, 2),
        "speedup": round(cold / warm, 2),
    }


def bench_campaign() -> Dict[str, object]:
    """Cells per second of the quick fault-injection campaign, serial and
    uncached, with its programs compiled before the clock starts."""
    config = quick_config(jobs=1)
    for name in config.benches:
        for env in config.envs:
            compile_benchmark(BENCHMARKS[name], env, cache=False)
    start = time.perf_counter()
    report = run_campaign(config, cache=False)
    elapsed = time.perf_counter() - start
    return {
        "benches": list(config.benches),
        "envs": list(config.envs),
        "cells": report.cells,
        "certified": report.certified,
        "seconds": round(elapsed, 3),
        "cells_per_sec": round(report.cells / elapsed, 1),
    }


def bench_sweep(quick: bool = False) -> Dict[str, Dict[str, object]]:
    """Cells per second of single-failure sweeps: one cell per failure
    point, every ``step`` cycles over the pair's continuous run, replayed
    serially and uncached through the campaign's pair executor, with the
    program and its oracle built before the clock starts."""
    out: Dict[str, Dict[str, object]] = {}
    for name, env, step in QUICK_SWEEPS if quick else SWEEPS:
        oracle = _execute_oracle(name, env, cache=False)
        schedules = [(cycle,) for cycle in range(step, oracle.cycles, step)]
        start = time.perf_counter()
        outcomes = _execute_pair(name, env, schedules, cache=False,
                                 oracle=oracle.totals)
        elapsed = time.perf_counter() - start
        out[f"{name}/{env}"] = {
            "step": step,
            "cells": len(outcomes),
            "passed": all(certify_outcome(outcome, oracle)[0] == "pass"
                          for outcome in outcomes),
            "seconds": round(elapsed, 3),
            "cells_per_sec": round(len(outcomes) / elapsed, 1),
        }
    return out


def run_bench(quick: bool = False, output: Optional[str] = None) -> str:
    """Run every measurement and write the JSON report.  Returns the
    output path."""
    clear_program_memo()
    report = {
        "revision": _revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "quick": quick,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "default_jobs": default_jobs(),
        "compile": bench_compile(quick=quick),
        "emulation": bench_emulation(quick=quick),
        "elision": bench_elision(quick=quick),
        "eval": bench_eval(quick=quick),
        "campaign": bench_campaign(),
        "sweep": bench_sweep(quick=quick),
    }
    path = output or f"BENCH_{report['revision']}.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def render_report(path: str) -> str:
    with open(path) as handle:
        report = json.load(handle)
    lines = [f"revision {report['revision']} ({report['timestamp']}Z)"]
    for env, per_bench in report["compile"].items():
        total = sum(per_bench.values())
        lines.append(f"compile {env:<16} {total:7.2f}s total")
    for name, row in report["emulation"].items():
        region = row.get("max_region_cycles")
        suffix = f", max region {region:,} cycles" if region else ""
        first = row.get("first_instrs_per_sec")
        if first:  # reports written before first runs were timed lack it
            suffix = f", first run {first:,} instrs/s{suffix}"
        lines.append(
            f"emulate {name:<16} {row['instrs_per_sec']:>12,} instrs/s"
            f"{suffix}"
        )
    for pair, rows in report.get("elision", {}).items():
        base_env, opt_env = pair.split("->")
        for name, row in rows.items():
            ckpt = row["checkpoints_executed"]
            cyc = row["cycles"]
            pct = cyc["delta"] / cyc[base_env] * 100 if cyc[base_env] else 0.0
            lines.append(
                f"elide   {name:<10} {pair:<22} "
                f"ckpt {ckpt[base_env]:>6,} -> {ckpt[opt_env]:>6,} "
                f"({ckpt['delta']:+d}), cycles {pct:+.2f}%, "
                f"{row['elided']} elided statically"
            )
    ev = report["eval"]
    lines.append(
        f"eval ({'+'.join(ev['experiments'])}): cold {ev['cold_seconds']}s, "
        f"warm {ev['warm_seconds']}s ({ev['speedup']}x)"
    )
    campaign = report.get("campaign")
    if campaign is not None:
        lines.append(
            f"inject ({'+'.join(campaign['benches'])} x "
            f"{','.join(campaign['envs'])}): {campaign['cells']} cells in "
            f"{campaign['seconds']}s ({campaign['cells_per_sec']} cells/s)"
        )
    for pair, row in report.get("sweep", {}).items():
        lines.append(
            f"sweep   {pair:<16} one failure every {row['step']} cycles: "
            f"{row['cells']} cells in {row['seconds']}s "
            f"({row['cells_per_sec']} cells/s), "
            f"{'all pass' if row['passed'] else 'FAILING CELLS'}"
        )
    return "\n".join(lines)


__all__ = [
    "bench_campaign", "bench_compile", "bench_elision", "bench_emulation",
    "bench_eval", "bench_sweep",
    "render_report", "run_bench",
]
