"""CLI (`python -m repro`) and disassembler tests."""

import os

import pytest

from repro.__main__ import main
from repro.core.lint import EXIT_COMPILE_FAILED
from repro.backend.disasm import disassemble, format_instruction
from repro.backend.mir import MInstr, VReg
from repro import iclang

SOURCE = """
unsigned int acc[8]; unsigned int total;
int main(void) {
    int i; unsigned int t = 0;
    for (i = 0; i < 8; i++) { acc[i] = acc[i] + 1; t += acc[i]; }
    total = t;
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


class TestCLI:
    def test_envs_lists_all(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        for env in ("plain", "ratchet", "r-pdg", "wario", "wario-expander"):
            assert env in out

    def test_envs_json_is_machine_readable(self, capsys):
        import json

        from repro.core.pipeline import ENVIRONMENTS, environments_payload

        assert main(["envs", "-o", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in payload] == list(ENVIRONMENTS)
        assert payload == environments_payload()
        wario = next(e for e in payload if e["name"] == "wario")
        assert wario["instrument"] is True
        assert wario["loop_write_clusterer"] is True
        assert wario["unroll_factor"] == 8
        # TEST-ONLY fault knobs must not leak into the public listing
        assert "drop_checkpoint" not in wario

    def test_cache_stats_json(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.cache import reset_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_cache()
        try:
            assert main(["cache", "stats", "-o", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            for field in ("directory", "entries", "hits", "misses",
                          "stores", "hit_rate", "by_kind"):
                assert field in payload
            assert payload["directory"] == str(tmp_path)
        finally:
            reset_cache()

    def test_run_continuous(self, source_file, capsys):
        code = main(["run", source_file, "--env", "wario",
                     "--verify-war", "--print-globals", "total,acc:8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "WAR verification: clean" in out
        assert "@total = 8" in out
        assert "@acc = [1, 1, 1, 1, 1, 1, 1, 1]" in out

    def test_run_intermittent(self, source_file, capsys):
        code = main(["run", source_file, "--env", "wario", "--power", "5000"])
        assert code == 0
        assert "checkpoints" in capsys.readouterr().out

    def test_run_plain_with_war_check_fails(self, source_file, capsys):
        code = main(["run", source_file, "--env", "plain", "--verify-war"])
        out = capsys.readouterr().out
        assert code == 1
        assert "violations" in out

    def test_run_starving_power_reports(self, source_file, capsys):
        code = main(["run", source_file, "--env", "wario", "--power", "100"])
        out = capsys.readouterr().out
        assert code == 1
        assert "execution aborted" in out

    def test_compile_listing(self, source_file, capsys):
        assert main(["compile", source_file, "--env", "ratchet"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out
        assert "checkpoint" in out
        assert ".text" in out

    def test_compile_to_file(self, source_file, tmp_path, capsys):
        out_path = str(tmp_path / "listing.txt")
        assert main(["compile", source_file, "-o", out_path]) == 0
        assert os.path.exists(out_path)
        listing = open(out_path).read()
        assert "main:" in listing

    @pytest.mark.parametrize("verb", ["compile", "run", "analyze", "lint"])
    @pytest.mark.parametrize("source, message", [
        ("int main(void) { return x; }", "unknown identifier 'x'"),
        ("int main(void) { return 1 +; }", "unexpected token ';'"),
        ("int *p = 4;\nint main(void) { return 0; }",
         "unsupported global type i32*"),
        ("int f(int x);\nint main(void) { return f(1); }",
         "line 2: call to undefined function 'f'"),
    ])
    def test_compile_failure_is_reported(self, verb, source, message,
                                         tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text(source)
        assert main([verb, str(path)]) == EXIT_COMPILE_FAILED
        err = capsys.readouterr().err
        assert err.startswith(f"{verb}: compilation failed: ")
        assert message in err

    @pytest.mark.parametrize("source", [
        "int main(void) { return " + "(" * 3000 + "1" + ")" * 3000 + "; }",
        "int main(void) " + "{" * 3000 + "}" * 3000,
    ], ids=["parentheses", "blocks"])
    def test_deep_nesting_is_a_located_error(self, source, tmp_path,
                                             capsys):
        path = tmp_path / "deep.c"
        path.write_text(source)
        assert main(["compile", str(path)]) == EXIT_COMPILE_FAILED
        assert capsys.readouterr().err == (
            "compile: compilation failed: line 1: nesting deeper than "
            "128 levels\n")

    @pytest.mark.parametrize("args, message", [
        (["missing.c"], "No such file or directory"),
        (["--benchmark", "nosuch"], "unknown benchmark 'nosuch'"),
        (["prog.c", "--env", "nosuch"], "unknown environment 'nosuch'"),
    ])
    def test_analyze_bad_input_is_reported(self, args, message, source_file,
                                           monkeypatch, capsys):
        monkeypatch.chdir(os.path.dirname(source_file))
        assert main(["analyze"] + args) == EXIT_COMPILE_FAILED
        err = capsys.readouterr().err
        assert err.startswith("analyze: compilation failed: ")
        assert message in err

    @pytest.mark.parametrize("option, value", [
        ("--power", "bogus"),
        ("--power", "0"),
        ("--power", "-5"),
        ("--print-globals", "nosuch"),
        ("--print-globals", "acc:x"),
    ])
    def test_run_rejects_bad_value_before_emulating(self, option, value,
                                                    source_file, capsys):
        assert main(["run", source_file, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""          # nothing was emulated
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"run: bad {option} ")
        assert repr(value) in lines[0]

    def test_unroll_override(self, source_file, capsys):
        assert main(["compile", source_file, "--env", "wario", "--unroll", "2"]) == 0
        two = capsys.readouterr().out
        assert main(["compile", source_file, "--env", "wario", "--unroll", "8"]) == 0
        eight = capsys.readouterr().out
        assert two != eight


class TestDisassembler:
    def test_full_listing_covers_program(self):
        program = iclang(SOURCE, "wario")
        listing = disassemble(program)
        assert f"{len(program.instrs)} instructions" in listing
        assert f"{program.text_size} bytes" in listing
        # every line addressable: count instruction rows
        rows = [l for l in listing.splitlines() if l.startswith("  ")]
        assert len(rows) == len(program.instrs)

    def test_window(self):
        program = iclang(SOURCE, "plain")
        listing = disassemble(program, start=2, count=3)
        rows = [l for l in listing.splitlines() if l.startswith("  ")]
        assert len(rows) == 3

    def test_branch_targets_labelled(self):
        program = iclang(SOURCE, "plain")
        listing = disassemble(program)
        assert "->" in listing

    def test_format_instruction_forms(self):
        assert "push" in format_instruction(MInstr("push", regs=["r4", "lr"]))
        assert "r4, lr" in format_instruction(MInstr("push", regs=["r4", "lr"]))
        d = VReg("d", phys="r4")
        assert format_instruction(MInstr("mov", d, [7])) == "mov         r4, #7"
        ck = format_instruction(MInstr("checkpoint", cause="middle-end-war"))
        assert "!middle-end-war" in ck
