"""Whole-program points-to sets for pointer arguments.

NOELLE computes its PDG over the *linked whole-program* IR, so a callee's
pointer parameter carries the set of objects its callers actually pass.
Ratchet's built-in alias analysis is function-local: a pointer parameter
may alias anything.  This module supplies that whole-program slice: a
fixpoint over the call graph mapping every pointer argument to the set of
named objects (globals / allocas) it can point into — or ``None`` (TOP)
when something unanalysable flows in.

Losing a set to TOP is a *precision* event, not an error — but a silent
one used to be impossible to debug.  Every place a set degrades now
records a :class:`TopCause`, rendered as warning-level diagnostics in
the ``analysis-*`` code family (``python -m repro analyze`` surfaces
them; see also :mod:`repro.analysis.summaries`, which reuses the same
cause channel for its inclusion-based engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..diagnostics import Diagnostic, DiagnosticEngine, LEVEL_IR, WARNING
from ..ir.instructions import Alloca, Call, GetElementPtr
from ..ir.types import is_pointer
from ..ir.values import Argument, GlobalVariable

#: id(Argument) -> frozenset of base objects, or None for TOP.
PointsToMap = Dict[int, Optional[FrozenSet]]

#: Longest GEP chain the root chase follows before giving up.
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


def _describe_value(value) -> str:
    name = getattr(value, "name", "")
    return f"'{name}'" if name else f"<{type(value).__name__.lower()}>"


def _root_of(value, causes: Optional[List[TopCause]] = None,
             function: str = "?"):
    """Chase a pointer expression to its root: a named object, an
    argument, or None (unanalysable).  When ``causes`` is given, every
    None outcome records why the chase failed."""
    original = value
    seen = 0
    while isinstance(value, GetElementPtr):
        value = value.base
        seen += 1
        if seen > MAX_GEP_DEPTH:
            if causes is not None:
                causes.append(TopCause(
                    "analysis-gep-depth", function,
                    f"GEP chain rooted at {_describe_value(original)} exceeds "
                    f"depth {MAX_GEP_DEPTH}; its points-to set degrades to TOP",
                    getattr(original, "loc", None),
                ))
            return None
    if isinstance(value, (GlobalVariable, Alloca, Argument)):
        return value
    if causes is not None:
        causes.append(TopCause(
            "analysis-unknown-root", function,
            f"pointer expression rooted at {_describe_value(value)} "
            f"({type(value).__name__}) is not a named object; its "
            f"points-to set degrades to TOP",
            getattr(original, "loc", None),
        ))
    return None


def module_points_to(module, summaries=None) -> PointsToMap:
    """The whole-program points-to map of ``module``: the one ``summaries``
    (a :class:`~repro.analysis.summaries.SummaryTable`) already solved,
    or else a fresh :func:`compute_points_to`."""
    if summaries is not None:
        return summaries.arg_points_to
    return compute_points_to(module)


def compute_points_to(
    module,
    engine: Optional[DiagnosticEngine] = None,
    causes: Optional[List[TopCause]] = None,
) -> PointsToMap:
    """Fixpoint points-to for every pointer argument in the module.

    ``engine`` (optional) receives an ``analysis-*`` warning for every
    cause of precision loss; ``causes`` (optional) collects the raw
    :class:`TopCause` records for programmatic consumers.
    """
    if causes is None:
        causes = []
    sets: Dict[int, set] = {}
    top: set = set()
    args_by_id: Dict[int, Argument] = {}
    for function in module.defined_functions():
        for arg in function.args:
            if is_pointer(arg.type):
                sets[id(arg)] = set()
                args_by_id[id(arg)] = arg

    call_edges = []  # (caller name, param Argument, actual Value)
    for function in module.defined_functions():
        for instr in function.instructions():
            if not isinstance(instr, Call) or instr.callee.is_declaration:
                continue
            for param, actual in zip(instr.callee.args, instr.args):
                if is_pointer(param.type):
                    call_edges.append((function.name, param, actual))

    changed = True
    while changed:
        changed = False
        for caller, param, actual in call_edges:
            pid = id(param)
            if pid in top:
                continue
            root = _root_of(actual, causes, caller)
            if root is None:
                top.add(pid)
                changed = True
            elif isinstance(root, Argument):
                rid = id(root)
                if rid in top or rid not in sets:
                    if pid not in top:
                        if rid not in sets:
                            causes.append(TopCause(
                                "analysis-unknown-root", caller,
                                f"pointer argument {_describe_value(root)} is "
                                f"not tracked (non-pointer or external); the "
                                f"parameter it flows into degrades to TOP",
                                getattr(actual, "loc", None),
                            ))
                        top.add(pid)
                        changed = True
                else:
                    new = sets[rid] - sets[pid]
                    if new:
                        sets[pid] |= new
                        changed = True
            else:
                if root not in sets[pid]:
                    sets[pid].add(root)
                    changed = True

    report_top_causes(causes, engine)
    result: PointsToMap = {}
    for pid, bases in sets.items():
        result[pid] = None if pid in top else frozenset(bases)
    return result
