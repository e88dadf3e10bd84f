"""Span tracer for the traced benchmark run.

The tracer times calls into each layer's public entry points *from
outside*: :meth:`Tracer.install` replaces every entry point in
:data:`ENTRY_POINTS` with a wrapper under the exact name its caller looks
it up by (a module global, a lazily imported module attribute, or a
class attribute) and :meth:`Tracer.remove` puts the originals back.
The untimed program under test is never edited.

Spans are kept in memory as ``[name, start, end, parent, op_id, kind]``
records.  Every span belongs to the benchmark op that was open when it
started, and carries that op's *kind* (``compile``, ``certify``,
``check``, ``campaign``, ``eval_cold``, ``eval_warm``), so middle-end
work re-run inside ``lint_sources`` is attributed to certification, not
to the compile layers.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple


def _ir_instrs(module) -> int:
    return sum(len(block.instructions)
               for function in module.defined_functions()
               for block in function.blocks)


def _count_compile_sources(tracer, args, kwargs, result):
    tracer.count("frontend.ir_instrs", _ir_instrs(result))


def _count_lwc(tracer, args, kwargs, result):
    tracer.count("core.ir_instrs_after_lwc", _ir_instrs(args[0]))


def _count_inserted(tracer, args, kwargs, result):
    tracer.count("core.checkpoints_inserted", result)


def _count_elision(tracer, args, kwargs, result):
    tracer.count("core.elision_examined", result.examined)
    tracer.count("core.elision_elided", result.elided)


def _count_encoded(tracer, args, kwargs, result):
    tracer.count("backend.machine_instrs", len(result.instrs))


def _count_run(tracer, args, kwargs, result):
    tracer.count("emulator.runs", 1)
    tracer.count("emulator.instructions", result.instructions)
    tracer.count("emulator.power_failures", result.power_failures)


def _count_plan(tracer, args, kwargs, result):
    tracer.count("faultinject.schedules", len(result))


def _count_cell(tracer, args, kwargs, result):
    tracer.count("eval.cells", 1)


def _count_get(tracer, args, kwargs, result):
    tracer.count("cache.hits" if result is not None else "cache.misses", 1)


#: (layer span name, owner module, attribute path, counter) — each entry
#: point under the name its caller resolves at call time
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("frontend.compile_sources", "repro.core.pipeline", "compile_sources",
     _count_compile_sources),
    ("frontend.compile_sources", "repro.core.lint", "compile_sources",
     _count_compile_sources),
    ("transforms.optimize_module", "repro.core.pipeline", "optimize_module",
     None),
    ("core.cluster_loop_writes", "repro.core.pipeline", "cluster_loop_writes",
     _count_lwc),
    ("core.cluster_writes", "repro.core.pipeline", "cluster_writes", None),
    ("core.expand", "repro.core.pipeline", "expand", None),
    ("core.insert_checkpoints", "repro.core.pipeline", "insert_checkpoints",
     _count_inserted),
    ("core.elide_redundant_checkpoints", "repro.core.checkpoint_elim",
     "elide_redundant_checkpoints", _count_elision),
    ("core.audit_elisions", "repro.core.checkpoint_elim", "audit_elisions",
     None),
    ("analysis.compute_points_to", "repro.analysis.pointsto",
     "compute_points_to", None),
    ("analysis.compute_summaries", "repro.analysis.summaries",
     "compute_summaries", None),
    ("analysis.verify_module_war", "repro.core.pipeline", "verify_module_war",
     None),
    ("analysis.verify_module_war", "repro.core.lint", "verify_module_war",
     None),
    ("analysis.certify_module_idempotence", "repro.analysis.idempotence",
     "certify_module_idempotence", None),
    ("analysis.certify_module_progress", "repro.analysis.progress",
     "certify_module_progress", None),
    ("backend.lower_module", "repro.core.pipeline", "lower_module", None),
    ("backend.lower_module", "repro.core.lint", "lower_module", None),
    ("backend.verify_mmodule_war", "repro.core.pipeline", "verify_mmodule_war",
     None),
    ("backend.verify_mmodule_war", "repro.core.lint", "verify_mmodule_war",
     None),
    ("backend.encode_module", "repro.core.pipeline", "encode_module",
     _count_encoded),
    ("emulator.run", "repro.emulator.machine", "Machine.run", _count_run),
    ("faultinject.plan_schedules", "repro.faultinject.campaign",
     "plan_schedules", _count_plan),
    ("faultinject.certify_outcome", "repro.faultinject.campaign",
     "certify_outcome", None),
    ("faultinject.shrink_schedule", "repro.faultinject.campaign",
     "shrink_schedule", None),
    ("eval.prefetch", "repro.eval.runner", "ExperimentRunner.prefetch", None),
    ("eval.execute_cell", "repro.eval.runner", "execute_cell", _count_cell),
    ("eval.render", "repro.eval.figures", "render_figure4", None),
    ("eval.render", "repro.eval.figures", "render_table3", None),
    ("cache.get", "repro.cache", "CompileCache.get", _count_get),
    ("cache.put", "repro.cache", "CompileCache.put", None),
)

#: certification legs: their time belongs to the ``certify`` ops they
#: run under; every other layer is reported over the non-certify ops
CERTIFIER_SPANS = frozenset({
    "analysis.verify_module_war",
    "analysis.certify_module_idempotence",
    "analysis.certify_module_progress",
    "backend.verify_mmodule_war",
    "core.audit_elisions",
})

#: layers whose per-layer metrics are self time (``.s``); the shrinker
#: must never run at baseline, so it is reported as a call count
TIMED_SPANS = tuple(dict.fromkeys(
    name for name, *_ in ENTRY_POINTS if name != "faultinject.shrink_schedule"
))

COUNTS = (
    "frontend.ir_instrs", "core.ir_instrs_after_lwc",
    "core.checkpoints_inserted", "core.elision_examined",
    "core.elision_elided", "backend.machine_instrs", "emulator.runs",
    "emulator.instructions", "emulator.power_failures",
    "faultinject.schedules", "eval.cells", "cache.hits", "cache.misses",
)


class Tracer:
    """In-memory span recorder plus the entry-point wrappers."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, op_id, kind]``; ``parent`` is the
        #: index of the enclosing span, -1 for an op's root span
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Tuple[int, str] = (-1, "")
        self._next_op = 0
        #: (counter name, op kind) -> total
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._originals: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._op[0], self._op[1]])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[(name, self._op[1])] += amount

    @contextmanager
    def op(self, kind: str):
        """Open a benchmark op: every span and count inside it is tagged
        with a fresh op id and ``kind``."""
        previous = self._op
        self._op = (self._next_op, kind)
        self._next_op += 1
        index = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(index)
            self._op = previous

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer wrappers are already installed")
        for name, module_name, path, counter in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- aggregation ---------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the direct children's."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> Dict[str, float]:
        """Per-layer self times, call counts and counters, all additive
        (:func:`add_ratios` derives the ratios from summed totals).

        A certifier leg is summed over every op; any other layer over
        the non-``certify`` ops, with its time under ``certify`` ops
        reported once, as ``certify.middle_end.s``.
        """
        own = self.self_times()
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        middle_end = 0.0
        for (name, _, _, _, _, kind), self_s in zip(self.spans, own):
            if name.startswith("op."):
                continue
            calls[name] += 1
            if name in CERTIFIER_SPANS or kind != "certify":
                seconds[name] += self_s
            else:
                middle_end += self_s
        metrics = {f"{name}.s": seconds[name] for name in TIMED_SPANS}
        metrics["faultinject.shrink_schedule.calls"] = calls[
            "faultinject.shrink_schedule"]
        metrics["certify.middle_end.s"] = middle_end
        totals: Dict[str, float] = defaultdict(float)
        for (name, kind), amount in self.counts.items():
            if kind != "certify":
                totals[name] += amount
        for name in COUNTS:
            metrics[name] = totals[name]
        return metrics

    def rows(self) -> List[Dict[str, object]]:
        """The spans, with self time, as JSON-ready dicts."""
        own = self.self_times()
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "op": op_id, "kind": kind, "self": self_s}
            for (name, start, end, parent, op_id, kind), self_s
            in zip(self.spans, own)
        ]


def add_ratios(metrics: Dict[str, float]) -> Dict[str, float]:
    """Add the elision yield and cache hit ratio of summed totals."""
    examined = metrics["core.elision_examined"]
    metrics["core.elision_yield"] = (
        metrics["core.elision_elided"] / examined if examined else 0.0)
    looked_up = metrics["cache.hits"] + metrics["cache.misses"]
    metrics["cache.hit_ratio"] = (
        metrics["cache.hits"] / looked_up if looked_up else 0.0)
    return metrics
