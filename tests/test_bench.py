"""The ``repro bench`` harness: its emulation and fault-injection
throughput sections."""

import json

from repro.bench import bench_campaign, bench_emulation, render_report


def test_campaign_section_times_the_quick_campaign():
    row = bench_campaign()
    assert row["benches"] == ["crc", "sha"]
    assert row["envs"] == ["wario", "ratchet", "wario-opt"]
    assert row["certified"] and row["cells"] > 0
    assert row["seconds"] > 0 and row["cells_per_sec"] > 0


def test_emulation_section_times_first_and_warm_runs():
    row = bench_emulation(quick=True)["crc"]
    assert row["instructions"] > 0 and row["checkpoints_executed"] > 0
    assert row["instrs_per_sec"] > 0 and row["first_instrs_per_sec"] > 0
    assert row["first_seconds"] > 0


def test_text_report_shows_campaign_throughput(tmp_path):
    report = {
        "revision": "abc1234", "timestamp": "2026-01-01T00:00:00",
        "compile": {}, "emulation": {},
        "eval": {"experiments": ["fig4"], "cold_seconds": 2.0,
                 "warm_seconds": 1.0, "speedup": 2.0},
        "campaign": {"benches": ["crc", "sha"],
                     "envs": ["wario", "ratchet", "wario-opt"],
                     "cells": 126, "certified": True, "seconds": 0.6,
                     "cells_per_sec": 210.0},
    }
    path = tmp_path / "BENCH_abc1234.json"
    path.write_text(json.dumps(report))
    assert render_report(str(path)).splitlines()[-1] == (
        "inject (crc+sha x wario,ratchet,wario-opt): 126 cells in 0.6s "
        "(210.0 cells/s)"
    )
