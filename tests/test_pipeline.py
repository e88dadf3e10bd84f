"""Pipeline/driver tests: environment configurations, the iclang API,
and the evaluation runner."""

import pytest

from repro import ENVIRONMENTS, Machine, iclang
from repro.core import EnvironmentConfig, build, environment
from repro.core.pipeline import run_middle_end
from repro.eval import ExperimentRunner
from repro.frontend import compile_source

SRC = """
unsigned int acc[8]; unsigned int total;
int main(void) {
    int i; unsigned int t = 0;
    for (i = 0; i < 8; i++) { acc[i] = acc[i] + 2; t += acc[i]; }
    total = t;
    return 0;
}
"""


class TestEnvironments:
    def test_all_paper_environments_exist(self):
        assert set(ENVIRONMENTS) == {
            "plain", "ratchet", "r-pdg", "epilog-optimizer",
            "write-clusterer", "loop-write-clusterer", "wario",
            "wario-expander", "wario-summaries", "ratchet-summaries",
            "wario-opt", "ratchet-opt",
        }

    def test_environment_lookup(self):
        cfg = environment("wario")
        assert cfg.loop_write_clusterer and cfg.write_clusterer
        assert cfg.epilogue_style == "wario"
        assert cfg.spill_checkpoint_mode == "hitting-set"

    def test_ratchet_uses_conservative_aliasing(self):
        assert environment("ratchet").alias_mode == "conservative"
        assert environment("r-pdg").alias_mode == "precise"

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValueError, match="unknown environment"):
            iclang(SRC, "turbo")

    def test_custom_config_accepted(self):
        cfg = EnvironmentConfig(
            "custom", loop_write_clusterer=True, unroll_factor=4
        )
        program = iclang(SRC, cfg)
        machine = Machine(program)
        machine.run()
        assert machine.read_global("total") == 16

    def test_unroll_override(self):
        p2 = iclang(SRC, "wario", unroll_factor=2)
        p8 = iclang(SRC, "wario", unroll_factor=8)
        # different unroll factors produce different code sizes
        assert p2.text_size != p8.text_size

    def test_plain_has_no_checkpoints(self):
        program = iclang(SRC, "plain")
        assert not any(i.opcode == "checkpoint" for i in program.instrs)

    def test_instrumented_have_checkpoints(self):
        for env in ("ratchet", "r-pdg", "wario"):
            program = iclang(SRC, env)
            assert any(i.opcode == "checkpoint" for i in program.instrs), env

    def test_deterministic_compilation(self):
        a = iclang(SRC, "wario")
        b = iclang(SRC, "wario")
        assert [i.opcode for i in a.instrs] == [i.opcode for i in b.instrs]
        assert a.text_size == b.text_size

    def test_middle_end_verifies(self):
        m = compile_source(SRC)
        run_middle_end(m, environment("wario"))  # verify_module runs inside

    def test_build_entry_point(self):
        m = compile_source(SRC)
        program = build(m, "r-pdg").encode()
        machine = Machine(program)
        machine.run()
        assert machine.read_global("total") == 16


class TestExperimentRunner:
    def test_caching(self):
        runner = ExperimentRunner()
        first = runner.run("crc", "plain")
        second = runner.run("crc", "plain")
        assert first is second

    def test_normalized_time_above_one(self):
        runner = ExperimentRunner()
        assert runner.normalized_time("crc", "ratchet") > 1.0

    def test_checkpoint_causes_keys(self):
        runner = ExperimentRunner()
        causes = runner.checkpoint_causes("crc", "ratchet")
        assert set(causes) <= {
            "middle-end-war", "back-end-war", "function-entry", "function-exit",
        }
