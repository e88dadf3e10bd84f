"""The examples are part of the public surface: each must run clean."""

import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _run_example(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


@pytest.mark.parametrize(
    "name",
    ["quickstart", "battery_free_sensor", "war_anatomy", "unroll_tuning"],
)
def test_example_runs(name, capsys):
    _run_example(name)
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"
    assert "WRONG" not in out
    assert "FAILED" not in out
