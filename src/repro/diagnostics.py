"""Structured compiler diagnostics.

Every static verifier in the reproduction (the static WAR verifiers, the
machine IR structural verifier, the idempotence and progress certifiers)
reports its findings as :class:`Diagnostic` values collected by a
:class:`DiagnosticEngine`, so one program has one uniform diagnostic
stream regardless of which level of the pipeline produced it.  The
emulator's dynamic WAR checker reports
:class:`~repro.emulator.warcheck.Violation` values instead, and the
fault-injection campaigns and differentials report through their own
report objects (:mod:`repro.faultinject`).

A diagnostic carries:

* a *severity* (``error`` | ``warning`` | ``note``),
* a stable *code* (e.g. ``war-forward``, ``mir-war-spill``) suitable for
  filtering and CI gating,
* the *level* that produced it (``ir`` middle end, ``mir`` back end,
  ``certify``),
* the owning *function* and an idempotent-*region* identifier,
* a primary :class:`SourceLoc` (threaded from the mini-C front end
  through IR lowering into machine IR, so even spill-slot diagnostics can
  point back at a source line), and
* *related* secondary notes — typically the load of a load/store WAR
  pair, rendered under the primary store message.

Renderers: :func:`render_text` (clang-style, one line per note) and
:func:`render_json` (a stable machine-readable schema for tooling).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Severities, most severe first.
ERROR = "error"
WARNING = "warning"
NOTE = "note"
SEVERITIES = (ERROR, WARNING, NOTE)

#: Pipeline levels a diagnostic can originate from.
LEVEL_IR = "ir"
LEVEL_MIR = "mir"
#: findings of the static idempotence certifier
#: (:mod:`repro.analysis.idempotence`): per-region re-execution proof
#: obligations that could not be discharged
LEVEL_CERTIFY = "certify"


@dataclass(frozen=True)
class SourceLoc:
    """A location in the mini-C source: ``file:line``.

    ``line`` is 1-based; ``0`` means "unknown line".  ``file`` may be
    empty when the translation unit was compiled from an in-memory
    string (the benchsuite does this).
    """

    line: int = 0
    file: str = ""

    @property
    def known(self) -> bool:
        return self.line > 0

    def __str__(self):
        name = self.file or "<source>"
        return f"{name}:{self.line}" if self.known else name


@dataclass
class Diagnostic:
    """One finding, plus any attached secondary notes."""

    severity: str
    code: str
    message: str
    function: str = ""
    region: str = ""
    level: str = LEVEL_IR
    loc: Optional[SourceLoc] = None
    #: (note message, note location) pairs rendered under the primary.
    related: List[Tuple[str, Optional[SourceLoc]]] = field(default_factory=list)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "function": self.function,
            "region": self.region,
            "level": self.level,
            "loc": _loc_dict(self.loc),
            "related": [
                {"message": msg, "loc": _loc_dict(loc)} for msg, loc in self.related
            ],
        }

    def render(self) -> str:
        lines = [
            f"{_loc_str(self.loc)}: {self.severity}: [{self.code}] {self.message}"
        ]
        context = []
        if self.function:
            context.append(f"function '{self.function}'")
        if self.region:
            context.append(f"region {self.region}")
        if context:
            lines[0] += f" ({', '.join(context)})"
        for msg, loc in self.related:
            lines.append(f"{_loc_str(loc)}: note: {msg}")
        return "\n".join(lines)


def _loc_dict(loc: Optional[SourceLoc]):
    if loc is None or not loc.known:
        return None
    return {"file": loc.file, "line": loc.line}


def _loc_str(loc: Optional[SourceLoc]) -> str:
    return str(loc) if loc is not None else "<unknown>"


class DiagnosticEngine:
    """Collects diagnostics and answers severity queries.

    One engine is threaded through every verification stage of a single
    compilation, so ``engine.has_errors`` is the whole-pipeline verdict.
    """

    def __init__(self):
        self.diagnostics: List[Diagnostic] = []

    # -- emission --------------------------------------------------------
    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diagnostic)
        return diagnostic

    def error(self, code: str, message: str, **kwargs) -> Diagnostic:
        return self.emit(Diagnostic(ERROR, code, message, **kwargs))

    def warning(self, code: str, message: str, **kwargs) -> Diagnostic:
        return self.emit(Diagnostic(WARNING, code, message, **kwargs))

    def note(self, code: str, message: str, **kwargs) -> Diagnostic:
        return self.emit(Diagnostic(NOTE, code, message, **kwargs))

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        for diagnostic in diagnostics:
            self.emit(diagnostic)

    # -- queries ---------------------------------------------------------
    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def count(self, severity: str) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def summary(self) -> str:
        errors, warnings = self.count(ERROR), self.count(WARNING)
        if not errors and not warnings:
            return "0 errors, 0 warnings"
        return f"{errors} error{'s' * (errors != 1)}, " \
               f"{warnings} warning{'s' * (warnings != 1)}"

    # -- rendering -------------------------------------------------------
    def render_text(self) -> str:
        return render_text(self.diagnostics)

    def render_json(self) -> str:
        return render_json(self.diagnostics)


def render_text(diagnostics: List[Diagnostic]) -> str:
    """Clang-style plain-text rendering, one finding per paragraph."""
    if not diagnostics:
        return "no diagnostics"
    return "\n".join(d.render() for d in diagnostics)


def render_json(diagnostics: List[Diagnostic]) -> str:
    """Stable machine-readable rendering (a JSON object per finding)."""
    payload = {
        "diagnostics": [d.to_dict() for d in diagnostics],
        "counts": {
            severity: sum(1 for d in diagnostics if d.severity == severity)
            for severity in SEVERITIES
        },
    }
    return json.dumps(payload, indent=2)


#: SARIF maps our three severities onto its own level names.
_SARIF_LEVEL = {ERROR: "error", WARNING: "warning", NOTE: "note"}


def _sarif_location(loc: Optional[SourceLoc], message: Optional[str] = None):
    physical = {
        "artifactLocation": {"uri": (loc.file if loc is not None else "")
                             or "<source>"},
    }
    if loc is not None and loc.known:
        physical["region"] = {"startLine": loc.line}
    out: Dict[str, object] = {"physicalLocation": physical}
    if message is not None:
        out["message"] = {"text": message}
    return out


def _sort_key(d: Diagnostic):
    return (
        d.loc.file if d.loc is not None else "",
        d.loc.line if d.loc is not None else 0,
        d.code,
        d.function,
        d.message,
    )


def render_sarif(diagnostics: List[Diagnostic],
                 tool_name: str = "repro-lint") -> str:
    """SARIF 2.1.0 rendering for CI code-scanning upload.

    Ordering is deterministic: results sort by (file, line, code,
    function, message) and the rule table by code, so identical verdicts
    always serialize to identical bytes regardless of emission order.
    """
    ordered = sorted(diagnostics, key=_sort_key)
    rules = []
    for code in sorted({d.code for d in ordered}):
        rules.append({
            "id": code,
            "shortDescription": {"text": code},
            "properties": {"pipelineLevels": sorted(
                {d.level for d in ordered if d.code == code}
            )},
        })
    results = []
    for d in ordered:
        result: Dict[str, object] = {
            "ruleId": d.code,
            "level": _SARIF_LEVEL[d.severity],
            "message": {"text": d.message},
            "locations": [_sarif_location(d.loc)],
            "properties": {
                "function": d.function,
                "region": d.region,
                "pipelineLevel": d.level,
            },
        }
        if d.related:
            result["relatedLocations"] = [
                _sarif_location(loc, msg) for msg, loc in d.related
            ]
        results.append(result)
    payload = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "informationUri":
                    "https://dl.acm.org/doi/10.1145/3519939.3523454",
                "rules": rules,
            }},
            "results": results,
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


__all__ = [
    "ERROR", "WARNING", "NOTE", "SEVERITIES",
    "LEVEL_IR", "LEVEL_MIR", "LEVEL_CERTIFY",
    "SourceLoc", "Diagnostic", "DiagnosticEngine",
    "render_text", "render_json", "render_sarif",
]
