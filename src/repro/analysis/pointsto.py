"""Whole-program points-to sets for pointer arguments.

NOELLE computes its PDG over the *linked whole-program* IR, so a callee's
pointer parameter carries the set of objects its callers actually pass.
Ratchet's built-in alias analysis is function-local: a pointer parameter
may alias anything.  This module supplies that whole-program slice to
every environment: :func:`compute_points_to` maps every pointer argument
to the set of named objects (globals / allocas) it can point into — or
``None`` (TOP) when something unanalysable flows in.  The one engine
behind it is :class:`~repro.analysis.summaries.AndersenPointsTo`, whose
solve the ``*-summaries`` environments also read their mod/ref sets
from.

Losing a set to TOP is a *precision* event, not an error — but a silent
one used to be impossible to debug.  Every place a set degrades records
a :class:`TopCause`, rendered as warning-level diagnostics in the
``analysis-*`` code family (``python -m repro lint`` and ``python -m
repro analyze`` surface them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..diagnostics import Diagnostic, DiagnosticEngine, LEVEL_IR, WARNING

#: id(Argument) -> frozenset of base objects, or None for TOP.
PointsToMap = Dict[int, Optional[FrozenSet]]

#: Longest GEP chain an access path is decomposed through before its
#: root degrades to TOP.
MAX_GEP_DEPTH = 64


@dataclass
class TopCause:
    """Why a points-to set (or a mod/ref summary) degraded to TOP."""

    code: str          # diagnostic code, ``analysis-*`` family
    function: str      # function the degradation happened in
    detail: str        # human-readable explanation
    loc: object = None  # Optional[SourceLoc]

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(
            severity=WARNING,
            code=self.code,
            message=self.detail,
            function=self.function,
            level=LEVEL_IR,
            loc=self.loc,
        )


def report_top_causes(
    causes: List[TopCause], engine: Optional[DiagnosticEngine]
) -> None:
    """Emit every recorded precision-loss cause as a warning diagnostic,
    deduplicated by (code, function, detail)."""
    if engine is None:
        return
    seen = set()
    for cause in causes:
        key = (cause.code, cause.function, cause.detail)
        if key in seen:
            continue
        seen.add(key)
        engine.emit(cause.to_diagnostic())


def module_points_to(module, summaries=None) -> PointsToMap:
    """The whole-program points-to map of ``module``: the one ``summaries``
    (a :class:`~repro.analysis.summaries.SummaryTable`) already solved,
    or else a fresh :func:`compute_points_to`."""
    if summaries is not None:
        return summaries.arg_points_to
    return compute_points_to(module)


def compute_points_to(module) -> PointsToMap:
    """The whole-program points-to set of every pointer argument: the
    argument slice of one
    :class:`~repro.analysis.summaries.AndersenPointsTo` solve."""
    from .summaries import AndersenPointsTo

    return AndersenPointsTo(module).argument_map()
