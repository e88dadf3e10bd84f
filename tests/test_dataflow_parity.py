"""Refactor parity: the WAR verifiers on the shared dataflow engine must
report **byte-identical** diagnostics to their pre-refactor fixpoint
loops, pinned in ``tests/golden/war_diagnostics.json`` (see
``tests/golden/generate.py`` for the seeded-bug matrix and the one
legitimate way to regenerate the fixture)."""

import json
import os

import pytest

from helpers import GEN

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN_DIR, "war_diagnostics.json")) as handle:
    GOLDEN = json.load(handle)


#: case name -> thunk producing that case's diagnostics afresh
CASES = {
    name: (lambda s=sources, c=config, m=mutate:
           GEN.case_diagnostics(s, c, m))
    for name, sources, config, mutate in GEN._cases()
}
CASES["sha-wario-unprotected-backend"] = (
    lambda: GEN.unprotected_backend_diagnostics(
        [GEN.BENCHMARKS["sha"].source], GEN.ENVIRONMENTS["wario"]
    )
)


def test_fixture_and_generator_agree_on_cases():
    assert set(CASES) == set(GOLDEN), (
        "generate.py's case list drifted from the committed fixture; "
        "rerun tests/golden/generate.py if the drift is deliberate"
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_refactored_verifiers_match_golden(case):
    fresh = CASES[case]()
    assert fresh == GOLDEN[case], (
        f"{case}: refactored verifier diagnostics diverge from the "
        f"pre-refactor golden output (order and content must both match)"
    )


def test_golden_matrix_covers_every_war_code_family():
    codes = {d["code"] for diags in GOLDEN.values() for d in diags}
    assert {"war-forward", "war-backward", "war-call", "war-after-call",
            "mir-war-forward", "mir-war-release"} <= codes
