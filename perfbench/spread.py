"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workloads compile figures --seeds 10

Runs ``BENCHMARK.json``'s command once per (workload, seed), one run at
a time, and prints per metric the median and the distance between the
first and third quartiles as a share of the median, beside the
metric's bound.  Exits 1 when a run fails, is not correct, or a spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, ((q3 - q1) / median if median else 0.0)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for workload in args.workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                ok = False
            runs[workload].append(
                {name: m["value"] for name, m in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[workload][-1].items()),
                flush=True)
        if len(runs[workload]) < 2:
            continue
        print(f"\n{workload}: {len(runs[workload])} runs")
        for name, bound in bounds.items():
            median, share = spread([r[name] for r in runs[workload]])
            flag = ""
            if share > bound:
                flag = "  OVER BOUND"
                ok = False
            elif share > bound / 3:
                flag = "  over a third of bound"
            print(f"  {name:<28} median {median:<14.10g} spread {share:.4f}"
                  f"  bound {bound}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
