"""Every observable output of a compile is pinned cell by cell.

``golden/manifest.json`` holds, for each program of the manifest grid
under each of its environments, the sha256 of the program image, its
code bytes and elision count, what a WAR-checked continuous-power run
of it did, and the sha256 of its full-level lint verdict with every
certificate (see ``tests/golden/generate.py``).  This recomputes the
``grid`` section; CI recomputes the ``wide`` one with
``generate.py --check``.  Regenerate the manifest only for a change
that names the entries that moved and says why.
"""

import json
import os

import pytest

from helpers import GEN

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN_DIR, "manifest.json")) as handle:
    GOLDEN = json.load(handle)


GRID = {key: (program, config) for key, program, config in GEN.grid_cells()}


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN["grid"]) == sorted(GRID)
    assert sorted(GOLDEN["wide"]) == sorted(key for key, *_ in GEN.wide_cells())


@pytest.mark.parametrize("key", sorted(GRID))
def test_manifest_row_matches_golden(key):
    program, config = GRID[key]
    assert GEN.manifest_row(program, config) == GOLDEN["grid"][key]


@pytest.mark.parametrize("command", GEN.CLI_INVOCATIONS)
def test_cli_output_matches_golden(command):
    """The exit code and output bytes of each pinned ``repro`` command
    line: the compile listing, lint diagnostics JSON, environment listing
    and analysis report renderers."""
    assert sorted(GOLDEN["cli"]) == sorted(GEN.CLI_INVOCATIONS)
    assert GEN.cli_row(command) == GOLDEN["cli"][command]


SEEDED = {key: cell for key, *cell in GEN.seeded_cells()}


@pytest.mark.parametrize("key", sorted(SEEDED))
def test_seeded_row_matches_golden(key):
    """The full-level verdict and error codes of each cell that violates
    WAR-freedom on purpose: the certifiers' reporting paths."""
    assert sorted(GOLDEN["seeded"]) == sorted(SEEDED)
    assert GEN.seeded_row(*SEEDED[key]) == GOLDEN["seeded"][key]
