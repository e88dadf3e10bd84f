"""Checkpoint elision is pinned certificate by certificate.

``golden/elisions.json`` holds the whole elision report of each paper
benchmark and of ``xcall`` under ``wario-opt`` and ``ratchet-opt``, plus
four force-elided cells whose certificates carry violated sub-proofs:
how many candidates were examined and elided, and every certificate with
its weight, sub-proof texts and progress bounds (regenerate with
``tests/golden/generate.py``, only for a deliberate elision change).
``placements.json`` pins where the surviving checkpoints sit; this
fixture pins why the removed ones could go.
"""

import json
import os

import pytest

from helpers import GEN

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN_DIR, "elisions.json")) as handle:
    GOLDEN = json.load(handle)


CELLS = {key: (program, config) for key, program, config in GEN.elision_cells()}


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN) == sorted(CELLS)


def test_forced_cells_carry_violated_subproofs():
    for env, bench, index in GEN.FORCED_ELISIONS:
        report = GOLDEN[f"{bench}/{env}+force={index}"]
        assert report["verdict"] == "violated"
        forced = [c for c in report["certificates"] if c["forced"]]
        assert len(forced) == 1
        assert [o["kind"] for o in forced[0]["subproofs"]] == [
            "placement-war", "placement-idempotence", "placement-progress",
        ]


@pytest.mark.parametrize("key", sorted(CELLS))
def test_elision_report_matches_golden(key):
    program, config = CELLS[key]
    assert GEN.elision_report(program, config) == GOLDEN[key]
