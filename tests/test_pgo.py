"""Tests for the profile-guided Expander (§6 "Code Profiling",
implemented)."""

import importlib.util
import os

import pytest

from repro import Machine, iclang
from repro.benchsuite import BENCHMARKS, get_benchmark, run_benchmark
from repro.core import collect_call_profile, iclang_pgo, profile_guided_expand
from repro.frontend import compile_source
from repro.ir import verify_module
from repro.ir.instructions import Call
from repro.transforms import optimize_module

HOT_HELPER = """
unsigned int data[96]; unsigned int out;
void scale(unsigned int *p, int i) {
    p[i] = p[i] * 3 + 1;
    p[i] = p[i] ^ (p[i] >> 3);
    p[i] = p[i] + (p[i] & 0xFF);
    p[i] = p[i] * 5;
    p[i] = p[i] - (p[i] >> 7);
    p[i] = p[i] | 1;
    p[i] = p[i] + (p[i] % 13);
    p[i] = p[i] ^ 0x1234;
}
int main(void) {
    int r, i;
    for (r = 0; r < 2; r++) {
        for (i = 0; i < 96; i++) { scale(data, i); }
    }
    out = data[7];
    return 0;
}
"""


def test_profile_counts_calls():
    profile = collect_call_profile(HOT_HELPER)
    assert profile.get("scale") == 192


def test_profile_guided_expand_inlines_hot_candidates():
    module = compile_source(HOT_HELPER)
    optimize_module(module)
    calls_before = sum(
        1 for i in module.main.instructions() if isinstance(i, Call)
    )
    assert calls_before >= 1
    inlined = profile_guided_expand(module, {"scale": 192})
    assert inlined >= 1
    verify_module(module)


def test_cold_functions_left_alone():
    module = compile_source(HOT_HELPER)
    optimize_module(module)
    inlined = profile_guided_expand(module, {"scale": 1}, min_calls=100)
    assert inlined == 0


def test_pgo_build_correct_and_cheaper():
    base = Machine(iclang(HOT_HELPER, "wario"), war_check=True)
    base_stats = base.run()
    pgo = Machine(iclang_pgo(HOT_HELPER, "wario"), war_check=True)
    pgo_stats = pgo.run()
    assert pgo.read_global("out") == base.read_global("out")
    assert pgo.war.clean
    # the hot pointer helper is inlined: fewer forced call checkpoints
    assert pgo_stats.checkpoints < base_stats.checkpoints
    assert pgo_stats.cycles < base_stats.cycles


def test_pgo_on_call_free_program_is_noop_safe():
    src = """
    unsigned int out;
    int main(void) {
        int i; unsigned int s = 0;
        for (i = 0; i < 50; i++) { s += (unsigned int)i; }
        out = s;
        return 0;
    }
    """
    machine = Machine(iclang_pgo(src, "wario"), war_check=True)
    machine.run()
    assert machine.read_global("out") == sum(range(50))
    assert machine.war.clean


_spec = importlib.util.spec_from_file_location(
    "golden_generate",
    os.path.join(os.path.dirname(__file__), "golden", "generate.py"),
)
GEN = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(GEN)

#: ``program_digest`` of each ``iclang_pgo`` program under the two
#: environments that set none of the middle-end switches an earlier,
#: separate copy of the pipeline in ``iclang_pgo`` ignored; routing it
#: through ``run_middle_end`` must leave them unchanged
PGO_DIGESTS = {
    "coremark/ratchet": "28f6e89e03828fa6cf5a840b7d9f3075bc3d73d9c6177aba7d22b64890fbe7b6",
    "coremark/wario": "880d753b8341bc05f5745da1fdc9b5e8f6d448a81ee2c7821e3d1c3f56c29e9c",
    "crc/ratchet": "7f21d45aeb1bb3156b5eed43af7135297703dc2bf44e569bddf836cc0875b1d7",
    "crc/wario": "3e781fee9ea195a429a714c74a3c6ae772c9e0bf8124e7ba43bdefdd4466df7f",
    "dijkstra/ratchet": "db1951a67b87da93f6a9d11f1d017eadc7d50b516abb6d3a1db2fc7271618d4a",
    "dijkstra/wario": "35ab0a904e8d3dec5fe90db39b1f4870e48d65ba8f5fb3ff47a099e33530c6c7",
    "picojpeg/ratchet": "dd9a2425b40f835178f9ac09a4e7fdd72f332acb8c5dcc0f7f5da9cba3f158ce",
    "picojpeg/wario": "fbf285e5bf69ea034555bc700d8231876ddfd624b07067c635bf9b94bc8c3e20",
    "sha/ratchet": "ba43e15b7ff3300899e31a25b031517844d1c41f639d0de84a8e2ef5c013aadf",
    "sha/wario": "af1aab4cea938811d8a92a20cb2e6f25ff47d34dacc407083d441da051100c43",
    "tiny-aes/ratchet": "df0567ced8e3a3f39575ded9c5db2beebf0ffa2b2f76b1d5d56f4f3332b6b577",
    "tiny-aes/wario": "bf624586006565bdb2f153716d4e017bc7899123af7b628219532c7ff27f42c7",
    "xcall/ratchet": "e5007fbb134f6ba49976b1dc512c2805e4ba90ec36d4e593466f4df94ae92e0e",
    "xcall/wario": "1ce9bb7484ac8c213fbf1873e38805fb7c27bb881ea09c98e4ba8462e0a29550",
}


@pytest.mark.parametrize("key", sorted(PGO_DIGESTS))
def test_pgo_program_pinned(key):
    bench, env = key.split("/")
    program = iclang_pgo(get_benchmark(bench).source, env, name=bench)
    assert GEN.program_digest(program) == PGO_DIGESTS[key]


def test_pgo_honours_call_summaries():
    """Transparent callees lose their entry/epilogue checkpoints under
    ``wario-summaries`` in the profile-guided build too."""
    source = get_benchmark("xcall").source

    def static_checkpoints(env):
        program = iclang_pgo(source, env, name="xcall")
        return sum(1 for i in program.instrs if i.opcode == "checkpoint")

    assert static_checkpoints("wario") == 7
    assert static_checkpoints("wario-summaries") == 5


def test_pgo_honours_checkpoint_elision():
    bench = BENCHMARKS["tiny-aes"]
    program = iclang_pgo(bench.source, "wario-opt", name=bench.name)
    assert program.elisions >= 1
    # outputs match the reference and the run is WAR-clean
    run_benchmark(bench, "wario-opt", program=program)
