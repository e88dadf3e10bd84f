"""The content-addressed compile cache: keys, hits, invalidation,
corruption handling, and cross-process reuse."""

import os
import pickle
import subprocess
import sys
import zlib

import pytest

from repro import iclang
from repro.cache import (
    COMPILER_VERSION_TAG,
    CompileCache,
    cache_enabled,
    compile_key,
    lint_key,
    run_key,
    version_tag,
)
from repro.core.pipeline import ENVIRONMENTS

SRC = """
int acc = 0;
int main() {
    for (int i = 0; i < 10; i = i + 1) { acc = acc + i; }
    return acc;
}
"""

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


def test_compile_key_is_stable():
    config = ENVIRONMENTS["wario"]
    assert compile_key(SRC, config) == compile_key(SRC, config)


def test_compile_key_varies_with_inputs():
    wario = ENVIRONMENTS["wario"]
    keys = {
        compile_key(SRC, wario),
        compile_key(SRC + " ", wario),                 # source change
        compile_key(SRC, ENVIRONMENTS["ratchet"]),     # env change
        compile_key(SRC, wario, name="other"),         # name change
    }
    assert len(keys) == 4


def test_run_key_covers_war_check_and_power():
    pk = compile_key(SRC, ENVIRONMENTS["wario"])
    base = run_key(pk, "continuous", False, 1000, "costs")
    assert base == run_key(pk, "continuous", False, 1000, "costs")
    assert base != run_key(pk, "continuous", True, 1000, "costs")
    assert base != run_key(pk, "fixed-50000", False, 1000, "costs")
    assert base != run_key(pk, "continuous", False, 2000, "costs")


def test_key_kind_prefixes():
    config = ENVIRONMENTS["wario"]
    assert compile_key(SRC, config).startswith("program-")
    assert run_key("p", "continuous", False, 1, "c").startswith("run-")
    assert lint_key(SRC, config).startswith("lint-")


def test_version_tag_mixes_manual_tag_and_fingerprint():
    tag = version_tag()
    assert tag.startswith(COMPILER_VERSION_TAG + "+")
    assert len(tag) > len(COMPILER_VERSION_TAG) + 1


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = CompileCache(str(tmp_path))
    assert cache.get("program-xyz") is None
    cache.put("program-xyz", {"payload": 1})
    assert cache.get("program-xyz") == {"payload": 1}
    assert cache.misses == 1
    assert cache.hits == 1
    assert cache.stores == 1


def test_cache_persists_across_instances(tmp_path):
    CompileCache(str(tmp_path)).put("run-abc", [1, 2, 3])
    fresh = CompileCache(str(tmp_path))
    assert fresh.get("run-abc") == [1, 2, 3]


def test_corrupt_entry_is_a_miss_and_removed(tmp_path):
    cache = CompileCache(str(tmp_path))
    cache.put("program-bad", "payload")
    path = os.path.join(str(tmp_path), "program-bad.pkl")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle at all")
    fresh = CompileCache(str(tmp_path))
    assert fresh.get("program-bad") is None
    assert not os.path.exists(path)


def test_clear_removes_everything(tmp_path):
    cache = CompileCache(str(tmp_path))
    cache.put("program-a", 1)
    cache.put("run-b", 2)
    assert cache.clear() == 2
    assert CompileCache(str(tmp_path)).get("program-a") is None


def test_report_counts_kinds_and_staleness(tmp_path):
    cache = CompileCache(str(tmp_path))
    cache.put("program-a", 1)
    cache.put("run-b", 2)
    # forge an entry written by an older toolchain
    stale = {"tag": "old-toolchain", "kind": "program", "payload": 3}
    with open(os.path.join(str(tmp_path), "program-old.pkl"), "wb") as handle:
        handle.write(zlib.compress(pickle.dumps(stale)))
    report = cache.report()
    assert report.entries == 3
    assert report.stale == 1
    assert report.by_kind == {"program": 2, "run": 1}


def test_cache_enabled_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert not cache_enabled()
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert not cache_enabled()
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert cache_enabled()
    monkeypatch.delenv("REPRO_CACHE")
    assert cache_enabled()


# ---------------------------------------------------------------------------
# integration with iclang
# ---------------------------------------------------------------------------


def test_iclang_round_trips_through_cache(tmp_path):
    cache = CompileCache(str(tmp_path))
    first = iclang(SRC, "wario", cache=cache)
    assert first.cache_key.startswith("program-")
    second = iclang(SRC, "wario", cache=cache)
    assert second is first            # in-memory layer returns the object
    fresh = CompileCache(str(tmp_path))
    third = iclang(SRC, "wario", cache=fresh)
    assert third is not first         # loaded from disk
    assert third.instrs is not first.instrs
    assert [str(i) for i in third.instrs] == [str(i) for i in first.instrs]
    assert third.text_size == first.text_size
    assert third.initial_memory == first.initial_memory
    assert third.cache_key == first.cache_key


def test_cached_program_runs_identically(tmp_path):
    from repro import Machine

    cache = CompileCache(str(tmp_path))
    original = iclang(SRC, "wario", cache=cache)
    reloaded = CompileCache(str(tmp_path)).get(original.cache_key)
    s1 = Machine(original, war_check=True).run()
    s2 = Machine(reloaded, war_check=True).run()
    assert (s1.instructions, s1.cycles, s1.checkpoints) == (
        s2.instructions, s2.cycles, s2.checkpoints
    )


def test_unroll_factor_changes_the_key(tmp_path):
    cache = CompileCache(str(tmp_path))
    a = iclang(SRC, "wario", unroll_factor=2, cache=cache)
    b = iclang(SRC, "wario", unroll_factor=4, cache=cache)
    assert a.cache_key != b.cache_key


def test_cache_false_bypasses_store(tmp_path):
    a = iclang(SRC, "wario", cache=False)
    b = iclang(SRC, "wario", cache=False)
    assert a is not b


def test_cross_process_reuse(tmp_path):
    """A program compiled here is a cache hit in a different process."""
    cache = CompileCache(str(tmp_path))
    program = iclang(SRC, "wario", name="xproc", cache=cache)
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.cache import CompileCache\n"
        "cache = CompileCache(sys.argv[2])\n"
        "p = cache.get(sys.argv[3])\n"
        "assert p is not None, 'expected a cross-process cache hit'\n"
        "print(p.text_size)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, REPO_SRC, str(tmp_path), program.cache_key],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) == program.text_size


def test_concurrent_writers_one_winner_no_torn_reads(tmp_path):
    """Processes racing on the same key: atomic replace means every
    reader observes one of the complete payloads byte-for-byte — never a
    torn or interleaved entry — and no temp files leak.

    This is the property the parallel evaluator and the fault-injection
    campaign lean on: their pool workers all write through one directory.
    """
    key = "program-race"
    writer = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.cache import CompileCache\n"
        "cache = CompileCache(sys.argv[2])\n"
        "tag = int(sys.argv[3])\n"
        "payload = bytes([tag]) * 65536\n"
        "for _ in range(25):\n"
        "    cache.put(sys.argv[4], payload)\n"
        "print('done')\n"
    )
    reader = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.cache import CompileCache\n"
        "ok = 0\n"
        "for _ in range(50):\n"
        "    cache = CompileCache(sys.argv[2])\n"   # no memo: disk every time
        "    payload = cache.get(sys.argv[3])\n"
        "    if payload is None:\n"
        "        continue\n"
        "    assert len(payload) == 65536, f'torn read: {len(payload)}'\n"
        "    assert len(set(payload)) == 1, 'interleaved writers'\n"
        "    ok += 1\n"
        "print(ok)\n"
    )
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", writer, REPO_SRC, str(tmp_path),
             str(tag), key],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for tag in (1, 2, 3)
    ]
    readers = [
        subprocess.Popen(
            [sys.executable, "-c", reader, REPO_SRC, str(tmp_path), key],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for proc in writers + readers:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    # one winner on disk, intact, from one of the writers
    final = CompileCache(str(tmp_path)).get(key)
    assert len(final) == 65536
    assert set(final) in ({1}, {2}, {3})
    # atomic replace cleaned up after itself
    leftovers = [f for f in os.listdir(str(tmp_path)) if f.endswith(".tmp")]
    assert leftovers == []


def test_live_counters_and_report_dict(tmp_path):
    cache = CompileCache(str(tmp_path))
    cache.get("program-absent")
    cache.put("program-a", 1)
    cache.get("program-a")
    report = cache.report()
    assert (report.hits, report.misses, report.stores) == (1, 1, 1)
    assert "1 hits, 1 misses, 1 stores" in report.render()
    payload = report.to_dict()
    assert payload["hits"] == 1
    assert payload["misses"] == 1
    assert payload["stores"] == 1
    assert payload["hit_rate"] == 0.5
    assert payload["by_kind"] == {"program": 1}
    assert payload["directory"] == cache.directory


def test_lint_results_are_cached(tmp_path):
    from repro.core.lint import lint_sources

    cache = CompileCache(str(tmp_path))
    first = lint_sources(SRC, "wario", cache=cache)
    assert first.certified
    stores = cache.stores
    second = lint_sources(SRC, "wario", cache=cache)
    assert second is first
    assert cache.stores == stores     # pure hit, nothing re-verified
    reloaded = lint_sources(SRC, "wario", cache=CompileCache(str(tmp_path)))
    assert reloaded.certified == first.certified
    assert reloaded.name == first.name
