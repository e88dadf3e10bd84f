"""The benchmark's own tests: seed plumbing, digests, tracer, contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import repro.core.pipeline  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.benchsuite import BENCHMARKS  # noqa: E402
from repro.core import iclang, lint_sources  # noqa: E402
from repro.faultinject.campaign import CampaignConfig, run_campaign  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import Tracer, add_ratios  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _schedules(seed):
    report = run_campaign(
        CampaignConfig(benches=("crc",), envs=("wario",), seed=seed,
                       event_cap=1, interior_points=3, post_restore=0,
                       jobs=1),
        cache=False)
    return [judged.outcome.schedule for judged in report.pairs[0].judged]


def test_same_seed_same_op_list():
    for name in ("compile", "campaign", "figures"):
        lists = []
        for _ in range(2):
            workload = workloads.make_workload(name, 7, HERE)
            workload.setup()
            lists.append(workload.op_list())
        assert lists[0] == lists[1]


def test_seed_changes_unroll_draw_and_order():
    factors = {workloads.CompileWorkload.draw(seed)[0] for seed in range(10)}
    assert len(factors) >= 3
    assert all(12 <= f <= 16 for f in factors)
    assert (workloads.CompileWorkload.draw(1)[1]
            != workloads.CompileWorkload.draw(2)[1])
    factor, cells = workloads.CompileWorkload.draw(3)
    unrolled = {bench: n for bench, _, n in cells if n is not None}
    assert unrolled == {"tiny-aes": 12, "coremark": factor, "picojpeg": 12}
    assert len(cells) == 21


def test_seed_changes_campaign_schedules():
    assert _schedules(1) == _schedules(1)
    assert _schedules(1) != _schedules(2)


def test_same_inputs_same_digests():
    bench = BENCHMARKS["crc"]
    digests = set()
    verdicts = set()
    for _ in range(2):
        program = iclang(bench.source, "wario", name="crc", cache=False)
        digests.add(workloads.program_digest(program))
        verdict = lint_sources(bench.source, "wario", name="crc", cache=False,
                               level="full", budget=workloads.LINT_BUDGET)
        verdicts.add(workloads.verdict_digest(verdict))
    assert len(digests) == 1 and len(verdicts) == 1
    other = iclang(bench.source, "ratchet", name="crc", cache=False)
    assert workloads.program_digest(other) not in digests


def test_metric_names_and_units_match_the_spec():
    spec = _spec()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_record_matches_the_code():
    with open(os.path.join(HERE, "record.json")) as handle:
        record = json.load(handle)
    seed = record["op_list_seed"]
    for name, entry in record["workloads"].items():
        workload = workloads.make_workload(name, seed, HERE)
        workload.setup()
        assert entry["op_list"] == workload.op_list(), name
    assert set(record["per_layer_map"]) == set(run.per_layer_units())


def test_per_pass_sums_each_ops_median():
    rows = [[{"pass_s": 1.0}, {"pass_s": 3.0}, {"pass_s": 2.0}],
            [{"pass_s": 5.0, "cells": 4}], []]
    assert run.per_pass(rows) == {"pass_s": 7.0, "cells": 4}


def test_reference_clock_tracks_work_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    clock = RefClock()
    with clock.running():
        wall, ref = time.perf_counter(), clock.now()
        while time.perf_counter() - wall < 0.5:
            sum(range(1000))
        wall, ref = time.perf_counter() - wall, clock.now() - ref
    assert 0.1 * wall < ref < 10 * wall
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_restores_entry_points_and_attributes_by_op_kind():
    originals = [getattr(repro.core.pipeline, "insert_checkpoints"),
                 repro.core.pipeline.lower_module]
    tracer = Tracer()
    bench = BENCHMARKS["crc"]
    with tracer.installed():
        assert repro.core.pipeline.insert_checkpoints is not originals[0]
        with tracer.op("compile"):
            iclang(bench.source, "wario", name="crc", cache=False)
        with tracer.op("certify"):
            lint_sources(bench.source, "wario", name="crc", cache=False,
                         level="full", budget=workloads.LINT_BUDGET)
    assert repro.core.pipeline.insert_checkpoints is originals[0]
    assert repro.core.pipeline.lower_module is originals[1]
    metrics = add_ratios(tracer.layer_totals())
    assert metrics["core.insert_checkpoints.s"] > 0
    assert metrics["certify.middle_end.s"] > 0
    assert metrics["analysis.certify_module_idempotence.s"] > 0
    assert metrics["core.checkpoints_inserted"] > 0
    assert metrics["faultinject.shrink_schedule.calls"] == 0
    # self times partition each op's span exactly
    own = tracer.self_times()
    roots = [i for i, span in enumerate(tracer.spans) if span[3] == -1]
    total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    assert abs(sum(own) - total) < 1e-6


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
