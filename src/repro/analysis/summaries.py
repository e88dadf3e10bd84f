"""Interprocedural mod/ref summaries over an inclusion-based points-to
analysis.

Two layers:

:class:`AndersenPointsTo`
    A whole-program, Andersen-style (inclusion-based) points-to analysis,
    the one engine behind every environment's argument points-to sets
    (:func:`repro.analysis.pointsto.compute_points_to` is its argument
    slice).  It tracks every pointer-valued SSA value, follows pointers
    stored into memory, and keeps the heap field-sensitive: the contents
    of a global or alloca are split per constant byte offset (computed
    with the same affine decomposition the alias analysis uses for GEP
    chains), with a ``'*'`` summary field for offsets that are not
    compile-time constants.  An address it does not track — integer
    arithmetic, a constant, an integer parameter — points anywhere.

:func:`compute_summaries`
    Per-function **mod/ref summaries**: the set of objects (globals,
    allocas) a function may write (``mod``) or read (``ref``), directly
    or through any callee, computed bottom-up over the call graph with a
    Tarjan-SCC fixpoint for recursion.  ``None`` means TOP
    (unanalysable); every degradation to TOP records a
    :class:`~repro.analysis.pointsto.TopCause` in the ``analysis-*``
    diagnostic family.

On top of the summaries sits the **transparency** classification that
unlocks cross-call checkpoint elision (the point of this module): a
function is *transparent* when a region of its caller may safely span a
call to it — no entry checkpoint is forced, calls to it are not barriers
for the WAR dataflow, and the call site instead contributes the
callee's ref set as reads and mod set as writes.  The criterion:

* defined, not ``main``, and not (mutually) recursive;
* mod and ref summaries are bounded (not TOP);
* every call inside it targets a transparent callee;
* it contains no ``Checkpoint`` instructions (this keeps the
  classification stable when recomputed on post-insertion IR: a
  function that needed middle-end checkpoints is a barrier both before
  and after they are materialised);
* its own body is WAR-free under the relaxed call model
  (:func:`repro.analysis.memdep.find_wars` returns nothing).

A function's *external* summary excludes its own non-escaping allocas:
callers cannot name them, and a transparent callee that is well-formed
writes its locals before reading them, so the byte-granular dynamic
checker never sees a first-access read of those slots either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..diagnostics import DiagnosticEngine
from ..ir.instructions import (
    Alloca,
    Call,
    Cast,
    Checkpoint,
    GetElementPtr,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.types import is_pointer
from ..ir.values import Argument, GlobalVariable, UndefValue
from .alias import PRECISE, AliasAnalysis, _affine_index
from .pointsto import MAX_GEP_DEPTH, PointsToMap, TopCause, report_top_causes

#: Field key for "some statically-unknown offset inside the object".
ANY_FIELD = "*"

#: Pointer-typed SSA values whose points-to set the solver computes.
_TRACKED = (Argument, Phi, Select, Load, Call)


def _uncast(value):
    """The value an ``inttoptr`` makes an address of: the address points
    where that value does."""
    while isinstance(value, Cast) and value.op == "inttoptr":
        value = value.value
    return value


def _describe(value) -> str:
    name = getattr(value, "name", "")
    return f"'{name}'" if name else f"<{type(value).__name__.lower()}>"


# ---------------------------------------------------------------------------
# Andersen-style inclusion-based points-to
# ---------------------------------------------------------------------------


class AndersenPointsTo:
    """Whole-program inclusion-based points-to with a field-sensitive
    heap.

    ``pts`` maps ``id(value)`` of every pointer-valued SSA value but a
    GEP to the set of objects it may point into (``None`` = TOP).
    ``heap`` maps ``id(object)`` to its cells: ``field`` — a constant
    byte offset or :data:`ANY_FIELD` — to the objects a value *stored
    at* that field may point into.  An integer read back as a pointer
    points anywhere, so an integer store, or an initialiser, makes its
    object's :data:`ANY_FIELD` cell TOP.
    """

    def __init__(self, module):
        self.module = module
        self.pts: Dict[int, Set] = {}
        self.top: Set[int] = set()
        #: id(object) -> {field: set of objects, or None for TOP}; an
        #: initialised global holds integers from the start
        self.heap: Dict[int, Dict[object, Optional[Set]]] = {
            id(g): {ANY_FIELD: None} for g in module.globals.values()
            if g.initializer is not None}
        #: a store went through a TOP location: every heap read is TOP
        self.heap_top = False
        self.causes: List[TopCause] = []
        #: objects whose address is stored to memory, returned, or passed
        #: to an external callee; None = everything escapes
        self._escaped: Optional[Set] = set()
        self._solve()

    # -- basic lattice ops ----------------------------------------------
    def pointees(self, value, fname: str = "?", loc=None) -> Optional[Set]:
        """Objects ``value`` may point to (``None`` = TOP).

        A GEP points where its base points, and an ``inttoptr`` where its
        integer does.  Only the values the solver tracks have a bounded
        set: a global, an alloca, or a pointer-typed argument, phi,
        select, load or call result.  An undefined value names no
        object.  Any other address — integer arithmetic, a constant, an
        integer parameter — is TOP, with a cause recorded against
        ``fname``, the function that uses it, at ``loc``, the location
        of the instruction that uses it (else the value's own).
        """
        value = _uncast(value)
        while isinstance(value, GetElementPtr):
            value = _uncast(value.base)
        if isinstance(value, (GlobalVariable, Alloca)):
            return {value}
        if isinstance(value, UndefValue):
            return set()
        if id(value) in self.top:
            return None
        if isinstance(value, _TRACKED) and is_pointer(value.type):
            return self.pts.get(id(value), set())
        self._mark_top(
            value, "analysis-unknown-root", fname,
            f"pointer expression rooted at {_describe(value)} "
            f"({type(value).__name__}) is not a named object; its "
            f"points-to set degrades to TOP", loc)
        return None

    def _flow_into(self, dst, new: Optional[Set]) -> bool:
        """pts(dst) ⊇ new; returns True on growth."""
        did = id(dst)
        if did in self.top:
            return False
        if new is None:
            self.top.add(did)
            return True
        cur = self.pts.setdefault(did, set())
        grew = new - cur
        if grew:
            cur |= grew
            return True
        return False

    def _mark_top(self, dst, code: str, fname: str, detail: str,
                  loc=None) -> bool:
        if id(dst) in self.top:
            return False
        self.top.add(id(dst))
        if loc is None:
            loc = getattr(dst, "loc", None)
        self.causes.append(TopCause(code, fname, detail, loc))
        return True

    # -- pointer decomposition ------------------------------------------
    def _decompose(self, ptr, fname: str):
        """Chase ``ptr``'s GEP chain to ``(root, field)``.

        ``field`` is the constant byte offset of the chain when every
        index is affine-constant, else :data:`ANY_FIELD`.  A chain
        deeper than :data:`~repro.analysis.pointsto.MAX_GEP_DEPTH`
        degrades to an unknown root (recorded as a cause).
        """
        offset = 0
        exact = True
        depth = 0
        value = _uncast(ptr)
        while isinstance(value, GetElementPtr):
            depth += 1
            if depth > MAX_GEP_DEPTH:
                self.causes.append(TopCause(
                    "analysis-gep-depth", fname,
                    f"GEP chain rooted at {_describe(ptr)} exceeds depth "
                    f"{MAX_GEP_DEPTH}; the access degrades to TOP",
                    getattr(ptr, "loc", None),
                ))
                return None, ANY_FIELD
            idx = _affine_index(value.index)
            if idx.exact and idx.iv is None:
                offset += idx.const * value.element_size
            else:
                exact = False
            value = _uncast(value.base)
        return value, (offset if exact else ANY_FIELD)

    def objects_of(self, ptr, fname: str = "?", loc=None) -> Optional[Set]:
        """Objects an access at ``loc`` through ``ptr`` may touch
        (``None`` = TOP)."""
        root, _field = self._decompose(ptr, fname)
        if root is None:
            return None
        return self.pointees(root, fname, loc)

    # -- heap cells ------------------------------------------------------
    def _heap_write(self, obj, fld, new: Optional[Set]) -> bool:
        cells = self.heap.setdefault(id(obj), {})
        cur = cells.get(fld, set())
        if cur is None:
            return False
        if new is None:
            cells[fld] = None
            return True
        grew = new - cur
        if grew:
            cells[fld] = cur | grew
            return True
        return False

    def _heap_read(self, obj, fld) -> Optional[Set]:
        if self.heap_top:
            return None
        out: Set = set()
        for f, cell in self.heap.get(id(obj), {}).items():
            if fld == ANY_FIELD or f == ANY_FIELD or f == fld:
                if cell is None:
                    return None
                out |= cell
        return out

    # -- the solver ------------------------------------------------------
    def _solve(self) -> None:
        # each constraint keeps the location of the instruction behind it
        copies: List[Tuple[object, object, str, object]] = [] # (dst, src, fn, loc)
        loads: List[Tuple[object, object, str]] = []  # (dst, ptr, fn)
        stores: List[Tuple[object, object, str, object]] = [] # (ptr, src, fn, loc)
        rets: Dict[str, List[Tuple[object, object]]] = {}  # fn -> (value, loc)

        for function in self.module.defined_functions():
            fname = function.name
            for instr in function.instructions():
                loc = instr.loc
                if isinstance(instr, Phi) and is_pointer(instr.type):
                    for value in instr.operands:
                        copies.append((instr, value, fname, loc))
                elif isinstance(instr, Select) and is_pointer(instr.type):
                    copies.append((instr, instr.true_value, fname, loc))
                    copies.append((instr, instr.false_value, fname, loc))
                elif isinstance(instr, Load) and is_pointer(instr.type):
                    loads.append((instr, instr.pointer, fname))
                elif isinstance(instr, Store):
                    stores.append((instr.pointer, instr.value, fname, loc))
                elif isinstance(instr, Ret) and instr.value is not None \
                        and (is_pointer(instr.value.type)
                             or is_pointer(function.return_type)):
                    rets.setdefault(fname, []).append((instr.value, loc))
                elif isinstance(instr, Call):
                    callee = instr.callee
                    if callee.is_declaration:
                        for actual in instr.args:
                            if is_pointer(actual.type):
                                self._escaped = None
                                self.causes.append(TopCause(
                                    "analysis-external-call", fname,
                                    f"pointer passed to external function "
                                    f"'{callee.name}'; escape analysis and "
                                    f"the heap degrade to TOP",
                                    getattr(instr, "loc", None),
                                ))
                                self.heap_top = True
                        if is_pointer(instr.type):
                            self._mark_top(
                                instr, "analysis-external-call", fname,
                                f"pointer returned by external function "
                                f"'{callee.name}' is unanalysable (TOP)")
                        continue
                    for param, actual in zip(callee.args, instr.args):
                        if is_pointer(param.type):
                            copies.append((param, actual, fname, loc))
                    if is_pointer(instr.type):
                        copies.append((instr, ("ret", callee.name), fname, loc))

        # escape roots: pointers stored into memory, returned, or passed
        # to externals (handled above)
        escape_sources = [
            (src, f, loc) for _ptr, src, f, loc in stores
            if is_pointer(src.type)]
        escape_sources.extend(
            (v, f, loc) for f, vs in rets.items() for v, loc in vs)

        # pre-decompose the access paths once (they are static).  An
        # integer store (src None) may overlap any pointer cell of any
        # object its address points into, so it writes TOP to ANY_FIELD
        # of each; it needs no field, so no decomposition.
        store_paths = [
            (self._decompose(ptr, f), src, f, loc) if is_pointer(src.type)
            else ((ptr, ANY_FIELD), None, f, loc)
            for ptr, src, f, loc in stores
        ]
        load_paths = [
            (dst, self._decompose(ptr, f), f) for dst, ptr, f in loads
        ]

        changed = True
        while changed:
            changed = False
            for dst, src, fname, loc in copies:
                if isinstance(src, tuple):  # ("ret", callee name)
                    new: Optional[Set] = set()
                    for value, ret_loc in rets.get(src[1], ()):
                        pointees = self.pointees(value, src[1], ret_loc)
                        if pointees is None:
                            new = None
                            break
                        new |= pointees
                else:
                    new = self.pointees(src, fname, loc)
                if self._flow_into(dst, new):
                    changed = True
            for (root, fld), src, fname, loc in store_paths:
                val = None if src is None else self.pointees(src, fname, loc)
                targets = (None if root is None
                           else self.pointees(root, fname, loc))
                if targets is None:
                    if not self.heap_top:
                        self.heap_top = True
                        self.causes.append(TopCause(
                            "analysis-heap-store-top", fname,
                            "store through an unbounded pointer; every "
                            "heap cell degrades to TOP",
                            loc,
                        ))
                        changed = True
                    continue
                for obj in targets:
                    cell_field = fld if root is obj else ANY_FIELD
                    if self._heap_write(obj, cell_field, val):
                        changed = True
            for dst, (root, fld), fname in load_paths:
                targets = (None if root is None
                           else self.pointees(root, fname, dst.loc))
                if targets is None or self.heap_top:
                    if self._mark_top(
                        dst, "analysis-unknown-root", fname,
                        f"load of a pointer through an unbounded pointer "
                        f"in '{fname}'; its points-to set degrades to TOP",
                    ):
                        changed = True
                    continue
                new = set()
                for obj in targets:
                    cell = self._heap_read(
                        obj, fld if root is obj else ANY_FIELD)
                    if cell is None:
                        new = None
                        break
                    new |= cell
                if new is None:
                    if self._mark_top(
                        dst, "analysis-unknown-root", fname,
                        f"load of a pointer from memory that may hold an "
                        f"integer or an unbounded pointer in '{fname}'; "
                        f"its points-to set degrades to TOP",
                    ):
                        changed = True
                elif self._flow_into(dst, new):
                    changed = True

        # finalise escapes
        if self._escaped is not None:
            for src, fname, loc in escape_sources:
                pointees = self.pointees(src, fname, loc)
                if pointees is None:
                    self._escaped = None
                    break
                self._escaped |= pointees

    # -- results ---------------------------------------------------------
    def escaped_objects(self) -> Optional[Set]:
        """Objects whose address escapes (``None`` = all of them may)."""
        return self._escaped

    def argument_map(self) -> PointsToMap:
        """The per-argument slice, compatible with
        :class:`~repro.analysis.alias.AliasAnalysis`'s ``points_to``."""
        out: PointsToMap = {}
        for function in self.module.defined_functions():
            for arg in function.args:
                if not is_pointer(arg.type):
                    continue
                if id(arg) in self.top:
                    out[id(arg)] = None
                else:
                    out[id(arg)] = frozenset(self.pts.get(id(arg), set()))
        return out


# ---------------------------------------------------------------------------
# mod/ref summaries
# ---------------------------------------------------------------------------


@dataclass
class FunctionSummary:
    """Objects a function may write/read, transitively.  ``None`` = TOP."""

    name: str
    mod: Optional[FrozenSet] = frozenset()
    ref: Optional[FrozenSet] = frozenset()
    recursive: bool = False
    top_causes: Tuple[str, ...] = ()

    @property
    def pure(self) -> bool:
        """Touches no memory at all (LLVM ``readnone``)."""
        return self.mod == frozenset() and self.ref == frozenset()

    @property
    def read_only(self) -> bool:
        """Writes no memory (LLVM ``readonly``)."""
        return self.mod == frozenset()


class SummaryTable:
    """All per-function summaries plus the transparency classification.

    ``transparent`` holds the names of functions a caller's idempotent
    region may span: no forced entry checkpoint, calls to them are not
    dataflow barriers, and the call site contributes the callee's
    ``ref``/``mod`` sets as reads/writes.
    """

    def __init__(self, module, alias_mode: str,
                 functions: Dict[str, FunctionSummary],
                 arg_points_to: PointsToMap,
                 causes: List[TopCause],
                 points_to: AndersenPointsTo):
        self.module = module
        self.alias_mode = alias_mode
        self.functions = functions
        self.transparent: Set[str] = set()
        self.arg_points_to = arg_points_to
        self.causes = causes
        self.points_to = points_to

    def summary(self, name: str) -> Optional[FunctionSummary]:
        return self.functions.get(name)

    def is_transparent_call(self, call: Call) -> bool:
        callee = call.callee
        return (not callee.is_declaration) and callee.name in self.transparent

    def call_mod(self, call: Call) -> Optional[FrozenSet]:
        summary = self.functions.get(call.callee.name)
        return None if summary is None else summary.mod

    def call_ref(self, call: Call) -> Optional[FrozenSet]:
        summary = self.functions.get(call.callee.name)
        return None if summary is None else summary.ref

    def transparent_names(self) -> Set[str]:
        return set(self.transparent)


def _call_graph_sccs(module) -> List[List]:
    """SCCs of the defined-function call graph, callees before callers
    (Tarjan emits them in reverse topological order)."""
    functions = list(module.defined_functions())
    edges: Dict[int, List] = {}
    for fn in functions:
        callees = []
        seen = set()
        for instr in fn.instructions():
            if isinstance(instr, Call) and not instr.callee.is_declaration:
                if id(instr.callee) not in seen:
                    seen.add(id(instr.callee))
                    callees.append(instr.callee)
        edges[id(fn)] = callees

    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List = []
    sccs: List[List] = []
    counter = [0]

    def strongconnect(root) -> None:
        # iterative Tarjan: (node, iterator over callees)
        work = [(root, iter(edges[id(root)]))]
        index[id(root)] = lowlink[id(root)] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(id(root))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if id(succ) not in index:
                    index[id(succ)] = lowlink[id(succ)] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(id(succ))
                    work.append((succ, iter(edges[id(succ)])))
                    advanced = True
                    break
                if id(succ) in on_stack:
                    lowlink[id(node)] = min(lowlink[id(node)], index[id(succ)])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[id(parent)] = min(lowlink[id(parent)],
                                          lowlink[id(node)])
            if lowlink[id(node)] == index[id(node)]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(id(member))
                    scc.append(member)
                    if member is node:
                        break
                sccs.append(scc)

    for fn in functions:
        if id(fn) not in index:
            strongconnect(fn)
    return sccs


def _calls_self(fn) -> bool:
    return any(
        isinstance(i, Call) and i.callee is fn for i in fn.instructions()
    )


def _summarize(fn, pt: AndersenPointsTo,
               functions: Dict[str, FunctionSummary],
               recursive: bool) -> FunctionSummary:
    """One bottom-up step: direct accesses plus folded callee summaries."""
    mod: Optional[Set] = set()
    ref: Optional[Set] = set()
    causes: List[str] = []

    def widen(current: Optional[Set], objs: Optional[Set], why: str):
        if current is None:
            return None
        if objs is None:
            causes.append(why)
            return None
        return current | objs

    for instr in fn.instructions():
        if isinstance(instr, Load):
            objs = pt.objects_of(instr.pointer, fn.name, instr.loc)
            ref = widen(ref, objs,
                        f"load through an unbounded pointer in '{fn.name}'")
        elif isinstance(instr, Store):
            objs = pt.objects_of(instr.pointer, fn.name, instr.loc)
            mod = widen(mod, objs,
                        f"store through an unbounded pointer in '{fn.name}'")
        elif isinstance(instr, Call):
            if instr.callee.is_declaration:
                causes.append(
                    f"call to external function '{instr.callee.name}'")
                mod = ref = None
                continue
            callee = functions.get(instr.callee.name)
            if callee is None:
                continue  # forward edge into an unprocessed SCC member
            mod = widen(mod, None if callee.mod is None else set(callee.mod),
                        f"callee '{instr.callee.name}' has TOP mod")
            ref = widen(ref, None if callee.ref is None else set(callee.ref),
                        f"callee '{instr.callee.name}' has TOP ref")
    return FunctionSummary(
        fn.name,
        None if mod is None else frozenset(mod),
        None if ref is None else frozenset(ref),
        recursive=recursive,
        top_causes=tuple(causes),
    )


def _externalize(summary: FunctionSummary, fn,
                 escaped: Optional[Set]) -> FunctionSummary:
    """Drop the function's own non-escaping allocas from its summary —
    callers cannot name them, and each activation writes them before any
    read (a read-before-write of an own local would have kept the
    function out of the transparent set via its own WAR check)."""
    if summary.mod is None and summary.ref is None:
        return summary
    own = {id(i) for i in fn.instructions() if isinstance(i, Alloca)}
    if not own:
        return summary

    def filtered(objs: Optional[FrozenSet]) -> Optional[FrozenSet]:
        if objs is None:
            return None
        return frozenset(
            o for o in objs
            if not (id(o) in own
                    and (escaped is not None and o not in escaped))
        )

    return FunctionSummary(
        summary.name, filtered(summary.mod), filtered(summary.ref),
        recursive=summary.recursive, top_causes=summary.top_causes,
    )


def compute_summaries(
    module,
    alias_mode: str = PRECISE,
    engine: Optional[DiagnosticEngine] = None,
) -> SummaryTable:
    """Compute mod/ref summaries and the transparency classification.

    ``engine`` (optional) receives warning-level ``analysis-*``
    diagnostics for every recorded precision loss.
    """
    from .loops import loop_info
    from .memdep import WARIndex

    pt = AndersenPointsTo(module)
    arg_points_to = pt.argument_map()
    escaped = pt.escaped_objects()
    sccs = _call_graph_sccs(module)

    functions: Dict[str, FunctionSummary] = {}
    for scc in sccs:
        recursive = len(scc) > 1 or _calls_self(scc[0])
        for fn in scc:
            functions[fn.name] = FunctionSummary(
                fn.name, frozenset(), frozenset(), recursive=recursive)
        changed = True
        while changed:
            changed = False
            for fn in scc:
                new = _summarize(fn, pt, functions, recursive)
                old = functions[fn.name]
                if (new.mod, new.ref, new.top_causes) != (
                        old.mod, old.ref, old.top_causes):
                    functions[fn.name] = new
                    changed = True
        # externalize before any caller SCC folds these summaries
        for fn in scc:
            functions[fn.name] = _externalize(functions[fn.name], fn, escaped)

    table = SummaryTable(module, alias_mode, functions, arg_points_to,
                         list(pt.causes), pt)

    # transparency, bottom-up (callee classification is final before any
    # caller is examined)
    for scc in sccs:
        if len(scc) > 1:
            continue
        fn = scc[0]
        if fn.name == "main" or _calls_self(fn):
            continue
        summary = functions[fn.name]
        if summary.mod is None or summary.ref is None:
            continue
        if any(isinstance(i, Checkpoint) for i in fn.instructions()):
            continue
        calls = [i for i in fn.instructions() if isinstance(i, Call)]
        if any(not table.is_transparent_call(c) for c in calls):
            continue
        aa = AliasAnalysis(fn, alias_mode, points_to=arg_points_to)
        wars = WARIndex(fn, aa, loop_info(fn), calls_are_checkpoints=True,
                        summaries=table).wars()
        if next(wars, None) is not None:
            continue
        table.transparent.add(fn.name)

    report_top_causes(table.causes, engine)
    return table


__all__ = [
    "ANY_FIELD",
    "AndersenPointsTo",
    "FunctionSummary",
    "SummaryTable",
    "compute_summaries",
]
