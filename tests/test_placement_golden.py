"""Checkpoint placement is pinned position by position.

``golden/placements.json`` holds every middle-end and back-end
checkpoint of each paper benchmark under the placement environments, as
placed before WAR discovery and the hitting set moved onto the indexed
engine and range-compressed requirements (regenerate with
``tests/golden/generate.py``, only for a deliberate placement change).
A drift in any position fails here, not only as a change in code size.
"""

import json
import os

import pytest

from repro.benchsuite import BENCHMARKS
from repro.core import ENVIRONMENTS

from helpers import GEN

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN_DIR, "placements.json")) as handle:
    GOLDEN = json.load(handle)


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN) == sorted(
        f"{bench}/{env}" for bench in BENCHMARKS for env in GEN.PLACEMENT_ENVS
    )


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
@pytest.mark.parametrize("env", GEN.PLACEMENT_ENVS)
def test_placement_matches_golden(bench, env):
    got = GEN.checkpoint_positions(BENCHMARKS[bench].source, ENVIRONMENTS[env])
    assert got == GOLDEN[f"{bench}/{env}"]
