"""Benchmark driver: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 35 --trace 0

Workloads: ``compile``, ``campaign``, ``figures`` (see ``workloads.py``).
``setup_s`` is the median import time (this process's and two fresh
interpreters') plus the median of three set-ups.  The run then cycles
through the workload's ops one at a time until it has done every op
once and the next op would end past ``--seconds``.  A per-pass metric
is the sum over the ops of each op's median over its repeats.  The
end-to-end times, ``setup_s`` and ``pass_s``, are read on the reference
clock of ``refclock.py``, which factors out the shared host's changes
of speed; ``pass_wall_s`` is the wall-clock pass time.

With ``--trace 1`` every op runs untraced and then again under the span
tracer (``tracer.py``); the result line then carries the per-layer
metrics of the traced ops, the phase times of the untraced ones, and
the tracing overhead.  The spans are written to ``.perfbench_state/``.

Every op checks its outputs.  The digests of the compiled programs and
verdicts must agree between repeats of an op, between traced and
untraced runs of it, and with earlier runs of the same seed on the same
sources (recorded under ``.perfbench_state/digests``).  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 with a result line; 1 when every op raised; 2 when the
repository sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from refclock import RefClock
from tracer import COUNTS, TIMED_SPANS, Tracer, add_ratios

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench_state")
SETUP_REPEATS = 3
IMPORT_PROBES = 2
WORKLOADS = ("compile", "campaign", "figures")

#: end-to-end metrics and their units (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "checkpoints_executed": "count",
    "emulated_cycles": "cycles",
    "code_bytes": "bytes",
    "peak_rss_mb": "MB",
}

#: phase times and rates measured by the workloads themselves, reported
#: with the per-layer metrics (0 on a workload without that phase)
PHASES = {
    "pass_wall_s": "s",
    "compile_s": "s",
    "emulated_minstr_per_s": "Minstr/s",
    "compile_unrolled_s": "s",
    "certify_s": "s",
    "campaign_cells_per_s": "cells/s",
    "eval_cold_s": "s",
    "eval_warm_s": "s",
}


def per_layer_units():
    """Every per-layer metric name and unit (``--trace 1``)."""
    units = {f"{name}.s": "s" for name in TIMED_SPANS}
    units["certify.middle_end.s"] = "s"
    units["faultinject.shrink_schedule.calls"] = "count"
    units.update({name: "count" for name in COUNTS})
    units["core.elision_yield"] = "ratio"
    units["cache.hit_ratio"] = "ratio"
    units.update(PHASES)
    units["ops_failed_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def per_pass(rows_by_op):
    """Sum over the ops of each op's median value over its repeats."""
    total = defaultdict(float)
    for rows in rows_by_op:
        for name in set().union(*rows):
            total[name] += statistics.median(row.get(name, 0.0) for row in rows)
    return total


def import_probe() -> float:
    """Import time of the workloads in a fresh interpreter, on its own
    reference clock."""
    code = ("import sys\nsys.path[:0] = [{!r}, {!r}]\n"
            "from refclock import RefClock\nclock = RefClock()\n"
            "with clock.running():\n    t0 = clock.now()\n"
            "    import workloads\n    print(clock.now() - t0)\n"
            ).format(SRC, HERE)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def _check_digests(labels, results_by_op, key_path):
    """True when every repeat of an op agrees with its first run, and
    the digests agree with the recorded ones of earlier runs (which are
    recorded when absent)."""
    merged = {}
    consistent = True
    for label, results in zip(labels, results_by_op):
        for result in results[1:]:
            if result.digests != results[0].digests:
                print(f"perfbench: repeats of {label} differ", file=sys.stderr)
                consistent = False
        if results:
            merged.update(results[0].digests)
    if os.path.exists(key_path):
        with open(key_path) as handle:
            recorded = json.load(handle)
        if recorded != merged:
            print(f"perfbench: digests differ from {key_path}", file=sys.stderr)
            consistent = False
    elif consistent:
        os.makedirs(os.path.dirname(key_path), exist_ok=True)
        partial = f"{key_path}.{os.getpid()}"
        with open(partial, "w") as handle:
            json.dump(merged, handle, sort_keys=True)
        os.replace(partial, key_path)
    return consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # the benchmark never touches a cache outside its checkout
    os.environ["REPRO_CACHE"] = "0"
    sys.path.insert(0, SRC)
    clock = RefClock()
    with clock.running():
        return measure(args, clock)


def measure(args, clock: RefClock) -> int:
    """Import, set up and run the workload; print the result line."""
    t0 = clock.now()
    import repro
    import workloads
    from repro.cache import source_fingerprint
    import_times = [clock.now() - t0]
    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_times += [import_probe() for _ in range(IMPORT_PROBES)]

    os.makedirs(STATE, exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, STATE)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock.now()
        workload.setup()
        setup_times.append(clock.now() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    labels = workload.op_list()
    untraced = [[] for _ in labels]
    traced = [[] for _ in labels]
    tracers = [[] for _ in labels]
    durations = {}
    attempted = failed = done = 0

    def timed(*run_args, **run_kwargs):
        gc.collect()
        wall, ref = time.perf_counter(), clock.now()
        result = workload.run_op(*run_args, **run_kwargs)
        result.values["pass_wall_s"] = time.perf_counter() - wall
        result.values["pass_s"] = clock.now() - ref
        return result

    loop_start = time.perf_counter()
    while True:
        index = done % len(labels)
        t0 = time.perf_counter()
        try:
            result = timed(index)
            if args.trace:
                tracer = Tracer()
                with tracer.installed():
                    traced_result = timed(index, trace=tracer.op)
        except Exception:
            workloads.report_failure(f"{args.workload} op {labels[index]}")
            attempted += 1
            failed += 1
        else:
            untraced[index].append(result)
            attempted += result.attempted
            failed += result.failed
            if args.trace:
                traced[index].append(traced_result)
                tracers[index].append(tracer)
                attempted += traced_result.attempted
                failed += traced_result.failed
        durations[index] = time.perf_counter() - t0
        done += 1
        elapsed = time.perf_counter() - loop_start
        upcoming = durations.get(done % len(labels), elapsed / done)
        if done >= len(labels) and elapsed + upcoming > args.seconds:
            break
    if not any(untraced):
        return 1

    digest_file = os.path.join(
        STATE, "digests",
        f"{args.workload}-{args.seed}-{source_fingerprint()[:16]}.json")
    correct = failed == 0 and _check_digests(
        labels, [u + t for u, t in zip(untraced, traced)], digest_file)

    base = per_pass([[r.values for r in results] for results in untraced])
    if args.trace:
        values = add_ratios(per_pass(
            [[t.layer_totals() for t in ts] for ts in tracers]))
        values.update(workloads.phase_metrics(base))
        values["ops_failed_ratio"] = failed / attempted
        values["pass_wall_s"] = base["pass_wall_s"]
        values["trace.overhead_ratio"] = per_pass(
            [[r.values for r in results] for results in traced]
        )["pass_s"] / base["pass_s"]
        with open(os.path.join(
                STATE, f"trace-{args.workload}-{args.seed}.json"), "w") as handle:
            json.dump({"ops": [{"op": labels[i], "spans": t.rows()}
                               for i, ts in enumerate(tracers) for t in ts]},
                      handle)
        units = per_layer_units()
    else:
        values = {name: base[name]
                  for name in ("pass_s",) + workloads.PASS_COUNTS}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
