"""The ``repro bench`` harness: its emulation, fault-injection and
single-failure sweep throughput sections."""

import json

from repro.bench import (
    bench_campaign, bench_emulation, bench_sweep, render_report,
)


def test_campaign_section_times_the_quick_campaign():
    row = bench_campaign()
    assert row["benches"] == ["crc", "sha"]
    assert row["envs"] == ["wario", "ratchet", "wario-opt"]
    assert row["certified"] and row["cells"] > 0
    assert row["seconds"] > 0 and row["cells_per_sec"] > 0


def test_emulation_section_times_first_and_warm_runs():
    rows = bench_emulation(quick=True)
    assert list(rows) == ["crc", "crc+war_check"]
    for row in rows.values():
        assert row["instructions"] > 0 and row["checkpoints_executed"] > 0
        assert row["instrs_per_sec"] > 0 and row["first_instrs_per_sec"] > 0
        assert row["first_seconds"] > 0


def test_sweep_section_times_a_single_failure_sweep():
    (pair, row), = bench_sweep(quick=True).items()
    assert pair == "crc/wario" and row["step"] == 100
    # one failure every 100 cycles over crc's 31,587-cycle run
    assert row["cells"] == 315 and row["passed"]
    assert row["seconds"] > 0 and row["cells_per_sec"] > 0


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
        "sweep": {"crc/wario": {"step": 10, "cells": 3158, "passed": True,
                                "seconds": 3.2, "cells_per_sec": 986.9}},
    }
    path = tmp_path / "BENCH_abc1234.json"
    path.write_text(json.dumps(report))
    assert render_report(str(path)).splitlines()[-2:] == [
        "inject (crc+sha x wario,ratchet,wario-opt): 126 cells in 0.6s "
        "(210.0 cells/s)",
        "sweep   crc/wario        one failure every 10 cycles: 3158 cells "
        "in 3.2s (986.9 cells/s), all pass",
    ]
