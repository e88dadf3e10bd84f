"""Content-addressed, on-disk compile and result cache.

Compiling a benchmark under one environment is deterministic: the same
mini-C sources, the same :class:`~repro.core.pipeline.EnvironmentConfig`,
and the same toolchain always produce the same
:class:`~repro.backend.encoder.Program`.  Emulating that program under a
canonical power supply is deterministic too.  This module exploits both:
every cacheable artifact is keyed by a SHA-256 over *all* of its inputs
and persisted on disk, so repeated evaluations — across cells of the
experiment grid, across processes of the parallel runner, and across
invocations of the CLI — never redo identical work.

Key structure (one hash per artifact kind):

* ``program-<sha>`` — a compiled :class:`Program`; the hash covers the
  source text, the full environment config (``repr``), the module name,
  and the toolchain version tag.
* ``run-<sha>`` — an :class:`~repro.emulator.stats.ExecutionStats`; the
  hash covers the producing program's key, the canonical power-supply
  key, the WAR-check flag, the instruction budget, and the cost model.
* ``lint-<sha>`` — a :class:`~repro.core.lint.LintResult`; the hash
  covers the sources, config, name, and toolchain tag.
* ``inject-<sha>`` — one fault-injection campaign cell (oracle record or
  schedule outcome, see :mod:`repro.faultinject`); the hash covers the
  producing program's key, the failure schedule, the WAR-check flag, the
  instruction budget, and the cost model.

Invalidation is structural: the **toolchain version tag** mixed into
every key is ``COMPILER_VERSION_TAG`` plus a fingerprint of the
``repro`` package's own source files.  Any edit to the compiler, the
verifiers, or the emulator changes the fingerprint, which changes every
key, which orphans every stale entry — no manual bump needed (the manual
tag exists for forcing a flag day, e.g. a cost-model constant change
that lives in data rather than code).  Orphaned entries are surfaced by
``python -m repro cache stats`` and removed by ``cache clear``.

Environment variables:

* ``REPRO_CACHE_DIR`` — cache directory (default ``~/.cache/repro``).
* ``REPRO_CACHE`` — set to ``0``/``off`` to disable all disk caching.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Manual toolchain tag: bump to force-invalidate every cache entry even
#: when no ``repro`` source file changed (e.g. when regenerating after
#: an external data change).  Code changes invalidate automatically via
#: the source fingerprint below.
COMPILER_VERSION_TAG = "wario-toolchain-1"

#: Static-analysis schema tag, mixed into ``lint`` keys on
#: top of the toolchain tag.  Bump when the *meaning* of a cached
#: verdict changes without a code change that the source fingerprint
#: would catch — e.g. a certificate schema revision or a new default
#: certification level — so stale verdicts cannot satisfy new queries.
ANALYSIS_VERSION_TAG = "placement-certifier-3"

_FALSY = ("0", "off", "no", "false")


def cache_enabled() -> bool:
    """Disk caching is on unless ``REPRO_CACHE`` says otherwise."""
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in _FALSY


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro"
    )


# ---------------------------------------------------------------------------
# Toolchain fingerprint
# ---------------------------------------------------------------------------

_fingerprint: Optional[str] = None


def source_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the ``repro`` package.

    Computed once per process; identical across processes looking at the
    same checkout, different after any source edit.
    """
    global _fingerprint
    if _fingerprint is None:
        root = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.sha256()
        paths = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in filenames:
                if filename.endswith(".py"):
                    paths.append(os.path.join(dirpath, filename))
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


def version_tag() -> str:
    """The full invalidation tag mixed into every cache key."""
    return f"{COMPILER_VERSION_TAG}+{source_fingerprint()}"


# ---------------------------------------------------------------------------
# Key builders
# ---------------------------------------------------------------------------


def _digest(kind: str, *parts: str) -> str:
    digest = hashlib.sha256()
    digest.update(version_tag().encode())
    for part in parts:
        digest.update(b"\x00")
        digest.update(part.encode())
    return f"{kind}-{digest.hexdigest()}"


def compile_key(sources, config, name: str = "program") -> str:
    """Key of a compiled ``Program``.

    ``config`` is the fully resolved :class:`EnvironmentConfig` (its
    ``repr`` covers every pipeline switch including the unroll factor).
    """
    if isinstance(sources, str):
        sources = [sources]
    return _digest(
        "program",
        name,
        repr(config),
        *sources,
    )


def run_key(program_key: str, power_key: str, war_check: bool,
            max_instructions: int, cost_model_repr: str) -> str:
    """Key of one deterministic emulation result (``ExecutionStats``)."""
    return _digest(
        "run",
        program_key,
        power_key or "continuous",
        "war" if war_check else "nowar",
        str(max_instructions),
        cost_model_repr,
    )


def lint_key(sources, config, name: str = "program",
             level: str = "full", budget=None) -> str:
    """Key of one static WAR-certification verdict (``LintResult``).

    ``level`` is the certification depth (``ir`` | ``mir`` | ``full``):
    verdicts at different depths carry different diagnostics and
    certificates, so they are distinct artifacts.  ``budget`` is the
    progress certifier's per-region cycle budget — it changes both the
    diagnostics and their severities, so budgeted verdicts are keyed
    apart from unbudgeted ones.
    """
    if isinstance(sources, str):
        sources = [sources]
    return _digest("lint", ANALYSIS_VERSION_TAG, name, repr(config), level,
                   f"budget={budget}", *sources)


def inject_key(program_key: str, schedule, war_check: bool,
               max_instructions: int, cost_model_repr: str,
               interrupt_interval=None) -> str:
    """Key of one fault-injection campaign cell (``CellOutcome``).

    ``schedule`` is the tuple of scheduled on-durations; the empty tuple
    keys the continuous-power *oracle* record (final-memory digest,
    outputs, WAR verdict, event map) of the same program.  These entries
    are the campaign's resumable state: re-invoking an interrupted
    campaign replays completed cells from disk instead of re-emulating.

    ``interrupt_interval`` distinguishes cells run under a periodic
    interrupt load (differential campaigns); ``None`` — the historical
    interrupt-free cell — keeps its historical key.
    """
    parts = [
        "inject",
        program_key,
        ",".join(str(d) for d in schedule) or "oracle",
        "war" if war_check else "nowar",
        str(max_instructions),
        cost_model_repr,
    ]
    if interrupt_interval is not None:
        parts.append(f"irq={interrupt_interval}")
    return _digest(*parts)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@dataclass
class CacheReport:
    """What ``python -m repro cache stats`` prints."""

    directory: str
    tag: str
    entries: int = 0
    stale: int = 0
    bytes: int = 0
    by_kind: Dict[str, int] = None  # type: ignore[assignment]
    hits: int = 0
    misses: int = 0
    stores: int = 0

    def render(self) -> str:
        lines = [
            f"cache directory : {self.directory}",
            f"toolchain tag   : {self.tag}",
            f"entries         : {self.entries} ({self.bytes:,} bytes)",
            f"stale entries   : {self.stale} (older toolchain tags)",
        ]
        for kind in sorted(self.by_kind or {}):
            lines.append(f"  {kind:<9}: {self.by_kind[kind]}")
        lines.append(
            f"this process    : {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (``repro cache stats -o json``): on-disk entry
        counts plus this process's live hit/miss/store counters."""
        looked_up = self.hits + self.misses
        return {
            "directory": self.directory,
            "tag": self.tag,
            "entries": self.entries,
            "stale": self.stale,
            "bytes": self.bytes,
            "by_kind": dict(self.by_kind or {}),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hits / looked_up, 4) if looked_up else 0.0,
        }


class CompileCache:
    """A content-addressed blob store: in-memory dict over pickle files.

    Writes are atomic (``os.replace``), so concurrent workers of the
    parallel evaluation engine can share one directory; a corrupt or
    truncated entry is treated as a miss and deleted.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = os.path.abspath(directory or default_cache_dir())
        self._memory: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".pkl")

    def get(self, key: str) -> Optional[Any]:
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.loads(zlib.decompress(handle.read()))
            payload = entry["payload"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupt / truncated / unreadable: drop it and recompute.
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self._memory[key] = payload
        self.hits += 1
        return payload

    def put(self, key: str, payload: Any) -> None:
        self._memory[key] = payload
        self.stores += 1
        try:
            os.makedirs(self.directory, exist_ok=True)
            entry = {"tag": version_tag(), "kind": key.split("-", 1)[0],
                     "payload": payload}
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    # programs embed a 1 MiB (mostly zero) initial memory
                    # image; level-1 zlib shrinks entries ~30x for nearly
                    # free
                    handle.write(zlib.compress(pickle.dumps(entry), 1))
                os.replace(tmp, self._path(key))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            # Disk problems must never break a compile; the in-memory
            # layer above still serves this process.
            pass

    def clear(self) -> int:
        """Remove every entry (all tags).  Returns the number removed."""
        removed = 0
        self._memory.clear()
        if os.path.isdir(self.directory):
            for filename in os.listdir(self.directory):
                if filename.endswith((".pkl", ".tmp")):
                    try:
                        os.unlink(os.path.join(self.directory, filename))
                        removed += 1
                    except OSError:
                        pass
        return removed

    def report(self) -> CacheReport:
        report = CacheReport(
            directory=self.directory, tag=version_tag(), by_kind={},
            hits=self.hits, misses=self.misses, stores=self.stores,
        )
        if not os.path.isdir(self.directory):
            return report
        current = version_tag()
        for filename in sorted(os.listdir(self.directory)):
            if not filename.endswith(".pkl"):
                continue
            path = os.path.join(self.directory, filename)
            try:
                size = os.path.getsize(path)
                with open(path, "rb") as handle:
                    entry = pickle.loads(zlib.decompress(handle.read()))
            except Exception:
                continue
            report.entries += 1
            report.bytes += size
            kind = entry.get("kind", "?")
            report.by_kind[kind] = report.by_kind.get(kind, 0) + 1
            if entry.get("tag") != current:
                report.stale += 1
        return report


# ---------------------------------------------------------------------------
# Process-wide default instance
# ---------------------------------------------------------------------------

_default_cache: Optional[CompileCache] = None


def get_cache() -> CompileCache:
    """The process-wide cache (created on first use from the env vars)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = CompileCache()
    return _default_cache


def reset_cache() -> None:
    """Forget the process-wide instance (tests re-point REPRO_CACHE_DIR)."""
    global _default_cache
    _default_cache = None


def resolve_cache(cache=None) -> Optional[CompileCache]:
    """Normalise a caller-supplied cache policy.

    ``None`` — the process-wide cache if enabled; ``False`` — no cache;
    a :class:`CompileCache` — that instance.
    """
    if cache is None:
        return get_cache() if cache_enabled() else None
    if cache is False:
        return None
    return cache


__all__ = [
    "ANALYSIS_VERSION_TAG", "COMPILER_VERSION_TAG", "CacheReport",
    "CompileCache",
    "cache_enabled", "compile_key", "default_cache_dir",
    "get_cache", "inject_key", "lint_key", "reset_cache", "resolve_cache",
    "run_key", "source_fingerprint", "version_tag",
]
