"""Static WAR-freedom verification on machine IR (the back-end level).

The middle-end verifier (:mod:`repro.analysis.static_war`) cannot see the
memory traffic the back end itself introduces: register spill reloads and
stores, the callee-saved save area, pops, and the frame releases of the
three epilogue styles.  The paper's point (§3.1.2/§3.1.3) is exactly
that this traffic carries WAR hazards of its own — this module verifies,
after frame lowering, that ``insert_spill_checkpoints`` and the epilogue
construction actually discharged them.

The analysis runs the same exposed-read dataflow as the IR level, but
over *concrete* stack coordinates: the abstract state tracks the stack
pointer as a byte delta from function entry (``delta``; push/``subsp``
decrease it, pop/``addsp`` increase it), and every stack access resolves
to an entry-relative byte range exactly as the emulator resolves it —
a :class:`~repro.backend.mir.StackSlot` operand is ``delta +
slot.offset``, an ``sp``-relative load is ``delta + offset``, a push
writes ``[delta - 4n, delta)``, a pop reads ``[delta, delta + 4n)``.
Because the locations are concrete, iteration flags are irrelevant to
aliasing (a range equals itself in every iteration) and overlap is plain
interval intersection.

Accesses that lower IR loads/stores (they carry ``MInstr.ir_mem``) are
classified through the middle-end alias analysis: pure-global pointers
are skipped here, and ir-to-ir pairs are *delegated* to the IR-level
verifier — re-deriving them from blurred slot ranges would only lose
precision.  What remains machine-only:

* **spill WARs** — a slot reload followed by a slot store in one region;
* **the stack-release rule** — an upward sp adjustment while reads of
  the released area are still exposed publishes those bytes to interrupt
  stacking and future callees inside the open region.  Ratchet satisfies
  it with a checkpoint before every release (the Pop Converter's loads +
  checkpoint + adjust), WARio by masking interrupts: between ``cpsid``
  and ``cpsie`` a release is provisionally allowed and must be followed
  by a checkpoint (with no intervening store) before interrupts
  re-enable — which is precisely the Epilog Optimizer's shape.

:class:`MachineRegionAnalysis` is the one machine-level region engine:
its events (violations and discharge points, including a replay of
each transparent callee's mod/ref sets on the caller's frame) become
``mir-war-*`` diagnostics here, replay aside, and proof obligations in
:mod:`repro.analysis.idempotence`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..analysis.alias import PRECISE, AliasAnalysis
from ..analysis.dataflow import (
    BK,
    FW,
    DataflowProblem,
    interval_add,
    interval_covers,
    interval_intersect,
    interval_sub,
    intervals_overlap,
    solve,
)
from ..analysis.pointsto import module_points_to
from ..diagnostics import Diagnostic, DiagnosticEngine, ERROR, LEVEL_MIR
from ..ir.values import GlobalVariable
from .mir import MFunction, MInstr, StackSlot

_LOAD_SIZE = {"ldr": 4, "ldrh": 2, "ldrb": 1}
_STORE_SIZE = {"str": 4, "strh": 2, "strb": 1}


class _Fact:
    """One exposed read: the instruction, its entry-relative byte ranges,
    path flags, and whether it originates from an IR-level load."""

    __slots__ = ("instr", "ranges", "flags", "is_ir", "what")

    def __init__(self, instr, ranges, flags, is_ir, what):
        self.instr = instr
        self.ranges = ranges
        self.flags = flags
        self.is_ir = is_ir
        self.what = what

    def overlaps(self, ranges) -> bool:
        return any(intervals_overlap(a, b)
                   for a in self.ranges for b in ranges)


class _State:
    __slots__ = ("delta", "masked", "pending", "facts", "covered")

    def __init__(self, delta=0, masked=False, pending=None, facts=None,
                 covered=None):
        self.delta = delta
        self.masked = masked
        #: ranges released under cpsid awaiting their checkpoint, with the
        #: facts that were exposed at release time
        self.pending: List[Tuple[Tuple[int, int], _Fact]] = pending or []
        self.facts: Dict[int, _Fact] = facts or {}
        #: entry-relative byte intervals *definitely* written since the
        #: region started, on every path (must-analysis).  A read fully
        #: inside the covered set observes this region's own writes on
        #: re-execution, so it cannot be the first read of a WAR.
        self.covered: List[Tuple[int, int]] = covered or []

    def copy(self, add_bk=False) -> "_State":
        facts = {
            key: _Fact(
                f.instr, f.ranges, f.flags | (BK if add_bk else 0),
                f.is_ir, f.what,
            )
            for key, f in self.facts.items()
        }
        return _State(
            self.delta, self.masked, list(self.pending), facts,
            list(self.covered),
        )


def _merge(into: _State, new: _State, problems: List[str], where: str) -> bool:
    if into.delta != new.delta:
        problems.append(
            f"inconsistent stack depth at '{where}': "
            f"{into.delta} vs {new.delta} bytes from entry"
        )
        return False
    changed = False
    if new.masked and not into.masked:
        into.masked = True
        changed = True
    for key, fact in new.facts.items():
        old = into.facts.get(key)
        if old is None:
            into.facts[key] = fact
            changed = True
        elif old.flags | fact.flags != old.flags:
            old.flags |= fact.flags
            changed = True
    merged_covered = interval_intersect(into.covered, new.covered)
    if merged_covered != into.covered:
        into.covered = merged_covered
        changed = True
    return changed


#: Violation events: a write (at a ``bl``, a transparent callee's mod
#: set) may overwrite an exposed read; an exposed read's bytes are
#: released unmasked, or stored to while their masked release is
#: pending; ``cpsie`` re-enables interrupts before that release commits.
CLOBBER = "clobber"
RELEASE = "release"
UNMASKED_WINDOW = "unmasked-window"
#: Discharge-point events: a ``bl`` that ends the region, a checkpoint
#: committing a masked release, a transparent callee's frame reads.
BARRIER_CALL = "barrier-call"
MASKED_RELEASE = "masked-release"
CALLEE_READ = "callee-read"


class MachineEvent(NamedTuple):
    """One event at ``instr`` of ``block``: ``fact`` is the exposed read
    involved (for ``CALLEE_READ`` the callee's, None if it reads no
    exposed byte), ``released`` the byte range a release event frees."""

    kind: str
    block: object
    instr: MInstr
    fact: Optional[_Fact] = None
    released: Optional[Tuple[int, int]] = None


def _first_per_read(pending):
    """The first pending release of each read, in order."""
    reads = set()
    for released, fact in pending:
        if id(fact.instr) not in reads:
            reads.add(id(fact.instr))
            yield released, fact


class MachineRegionAnalysis(DataflowProblem):
    """One machine function's region dataflow and its events.

    A forward dataflow on the shared worklist engine over concrete
    stack coordinates.  The in-state seed is ``None`` everywhere but the
    entry block (``None`` = unreached: dead blocks are never analysed
    and contribute nothing to joins), every edge copies the out-state,
    and a back edge additionally widens fact flags with ``BK``.

    ``transparent_callees`` names functions lowered without any
    checkpoint: with ``calls_are_checkpoints`` a ``bl`` to one keeps the
    region open, and ``summaries`` (a
    :class:`~repro.analysis.summaries.SummaryTable`) supplies the mod/ref
    sets replayed there.  Stack-depth mismatches collect in
    ``structural``."""

    def __init__(
        self,
        mfn: MFunction,
        aa: Optional[AliasAnalysis],
        calls_are_checkpoints: bool,
        transparent_callees=None,
        summaries=None,
    ):
        self.mfn = mfn
        self.aa = aa
        self.calls_are_checkpoints = calls_are_checkpoints
        self.transparent_callees = transparent_callees or set()
        self.summaries = summaries
        self.structural: List[str] = []
        self.frame_delta = -self._prologue_bytes()
        self.addr_taken = self._address_taken_ranges()
        self.slot_for_alloca = mfn.alloca_slots
        self._index = {b.name: i for i, b in enumerate(mfn.blocks)}

    # -- geometry --------------------------------------------------------
    def _prologue_bytes(self) -> int:
        """Total downward sp motion of the prologue: the delta at which
        every ``lea``/slot access in the body executes."""
        total = 0
        if not self.mfn.blocks:
            return 0
        for instr in self.mfn.blocks[0].instructions:
            if instr.opcode == "push":
                total += 4 * len(instr.regs)
            elif instr.opcode == "subsp":
                total += instr.ops[0]
            elif instr.opcode == "checkpoint":
                continue
            else:
                break
        return total

    def _slot_range(self, slot: StackSlot, delta: int) -> Tuple[int, int]:
        # The machine resolves a slot operand against the *current* sp.
        base = delta + slot.offset
        return (base, base + slot.size)

    def _address_taken_ranges(self) -> List[Tuple[int, int]]:
        """Frame ranges of slots whose address escapes into a register
        (``lea``): the only stack bytes an unknown IR pointer can reach."""
        out = []
        for instr in self.mfn.instructions():
            if instr.opcode == "lea":
                for op in instr.ops:
                    if isinstance(op, StackSlot):
                        out.append(self._slot_range(op, self.frame_delta))
        return out

    # -- access classification ------------------------------------------
    def _ir_ranges(self, instr: MInstr) -> Optional[List[Tuple[int, int]]]:
        """Stack byte ranges an IR-originated access may touch, or None
        when it provably stays in global memory (IR-level territory)."""
        if self.aa is None:
            return self.addr_taken or None
        bases = self.aa.classify(instr.ir_mem.pointer).possible_bases()
        if bases is None:
            return self.addr_taken or None
        ranges: List[Tuple[int, int]] = []
        for base in bases:
            if isinstance(base, GlobalVariable):
                continue
            slot = self.slot_for_alloca.get(id(base))
            if slot is not None:
                ranges.append(self._slot_range(slot, self.frame_delta))
            else:
                # An alloca base with no slot (e.g. promoted away before
                # isel) cannot be addressed; be conservative.
                return self.addr_taken or None
        return ranges or None

    def _callee_frame_ranges(self, name: str, want_mod: bool):
        """Caller-frame byte ranges a transparent callee's summary may
        touch."""
        if self.summaries is None:
            return []
        summary = self.summaries.summary(name)
        if summary is None:
            return []
        objs = summary.mod if want_mod else summary.ref
        if objs is None:
            # TOP summaries never classify transparent; conservative.
            return list(self.addr_taken)
        ranges = []
        for obj in objs:
            if isinstance(obj, GlobalVariable):
                continue
            slot = self.slot_for_alloca.get(id(obj))
            if slot is not None:
                ranges.append(self._slot_range(slot, self.frame_delta))
        return ranges

    def _read_of(self, instr: MInstr, delta: int):
        """(ranges, is_ir) read by ``instr``, or None."""
        size = _LOAD_SIZE.get(instr.opcode)
        if size is not None:
            base = instr.ops[0]
            if base == "sp":
                start = delta + instr.ops[1]
                return [(start, start + size)], False, "the epilogue restore"
            if isinstance(base, StackSlot):
                start = delta + base.offset + (
                    instr.ops[1] if len(instr.ops) > 1 else 0
                )
                return [(start, start + size)], False, f"slot{base.index}"
            if instr.ir_mem is not None:
                ranges = self._ir_ranges(instr)
                if ranges:
                    return ranges, True, "an address-taken local"
            return None
        if instr.opcode == "pop":
            n = 4 * len(instr.regs)
            return [(delta, delta + n)], False, "the pop restore"
        return None

    def _write_of(self, instr: MInstr, delta: int):
        size = _STORE_SIZE.get(instr.opcode)
        if size is not None:
            base = instr.ops[1]
            if base == "sp":
                start = delta + instr.ops[2]
                return [(start, start + size)], False
            if isinstance(base, StackSlot):
                start = delta + base.offset + (
                    instr.ops[2] if len(instr.ops) > 2 else 0
                )
                return [(start, start + size)], False
            if instr.ir_mem is not None:
                ranges = self._ir_ranges(instr)
                if ranges:
                    return ranges, True
            return None
        if instr.opcode == "push":
            n = 4 * len(instr.regs)
            return [(delta - n, delta)], False
        return None

    # -- transfer --------------------------------------------------------
    def _walk(self, block, state: _State, report: bool):
        """Run ``block``'s transfer over ``state`` in place.  With
        ``report``, yield each :class:`MachineEvent` as the walk reaches
        it."""
        for instr in block.instructions:
            op = instr.opcode
            if op == "checkpoint":
                if report:
                    for released, fact in state.pending:
                        yield MachineEvent(MASKED_RELEASE, block, instr,
                                           fact, released)
                state.facts.clear()
                state.pending = []
                state.covered = []
                continue
            if op == "bl":
                # A callee operates strictly below the caller's sp, so it
                # cannot touch the concrete facts tracked here; accesses
                # through escaped pointers are the IR verifier's job, and
                # a transparent callee's are replayed from its summary.
                if not self.calls_are_checkpoints:
                    continue
                if instr.ops[0] not in self.transparent_callees:
                    # The callee checkpoints at entry: region boundary.
                    state.facts.clear()
                    state.pending = []
                    state.covered = []
                    if report:
                        yield MachineEvent(BARRIER_CALL, block, instr)
                    continue
                # A transparent callee never checkpoints, so the caller's
                # region (facts + coverage) stays open across it.
                yield from self._replay_callee(block, instr, state, report)
                continue
            if op == "cpsid":
                state.masked = True
                continue
            if op == "cpsie":
                if report:
                    for released, fact in _first_per_read(state.pending):
                        yield MachineEvent(UNMASKED_WINDOW, block, instr,
                                           fact, released)
                state.pending = []
                state.masked = False
                continue
            if op == "subsp":
                state.delta -= instr.ops[0]
                continue
            if op == "addsp":
                yield from self._release(block, instr, state, instr.ops[0],
                                         report)
                state.delta += instr.ops[0]
                continue
            if op == "bx_lr":
                if report and state.delta != 0:
                    self.structural.append(
                        f"'{self.mfn.name}' returns with sp {state.delta} "
                        f"bytes away from its entry value"
                    )
                continue

            write = self._write_of(instr, state.delta)
            if write is not None:
                ranges, is_ir = write
                if report:
                    for fact in state.facts.values():
                        if is_ir and fact.is_ir:
                            continue  # delegated to the IR-level verifier
                        if fact.overlaps(ranges):
                            yield MachineEvent(CLOBBER, block, instr, fact)
                    hit = [
                        (released, fact) for released, fact in state.pending
                        if any(intervals_overlap(r, released) for r in ranges)
                    ]
                    for entry in hit:
                        state.pending.remove(entry)
                    for released, fact in _first_per_read(hit):
                        yield MachineEvent(RELEASE, block, instr, fact,
                                           released)
                if not is_ir:
                    # Concrete stack writes are exact (must-writes): the
                    # bytes are now covered by this region's own output.
                    for r in ranges:
                        state.covered = interval_add(state.covered, r)

            read = self._read_of(instr, state.delta)
            if read is not None:
                ranges, is_ir, what = read
                if interval_covers(state.covered, ranges):
                    # Every byte this read can touch was definitely
                    # written earlier in the same region on every path:
                    # re-execution reproduces the value, so the read can
                    # never be the exposed half of a WAR (the dynamic
                    # checker's write-before-read rule says the same).
                    pass
                else:
                    old = state.facts.get(id(instr))
                    flags = (old.flags if old else 0) | FW
                    state.facts[id(instr)] = _Fact(
                        instr, ranges, flags, is_ir, what
                    )

            if op == "push":
                state.delta -= 4 * len(instr.regs)
            elif op == "pop":
                yield from self._release(block, instr, state,
                                         4 * len(instr.regs), report)
                state.delta += 4 * len(instr.regs)

    def _replay_callee(self, block, instr: MInstr, state: _State,
                       report: bool):
        """A transparent callee's mod/ref summary, replayed at its call:
        its writes may clobber the caller's exposed stack reads, and its
        reads of the caller's frame join the exposed set that the
        release rule protects."""
        name = instr.ops[0]
        if report:
            mod = self._callee_frame_ranges(name, want_mod=True)
            for fact in state.facts.values():
                if not fact.is_ir and fact.overlaps(mod):
                    yield MachineEvent(CLOBBER, block, instr, fact)
        ref = self._callee_frame_ranges(name, want_mod=False)
        fact = None
        if ref and not interval_covers(state.covered, ref):
            old = state.facts.get(id(instr))
            flags = (old.flags if old else 0) | FW
            fact = state.facts[id(instr)] = _Fact(
                instr, ref, flags, True, f"the transparent callee '{name}'",
            )
        if report:
            yield MachineEvent(CALLEE_READ, block, instr, fact)

    def _release(self, block, instr: MInstr, state: _State, nbytes: int,
                 report: bool):
        released = (state.delta, state.delta + nbytes)
        # Released bytes leave the frame: interrupt stacking or a callee
        # may clobber them, so they are no longer covered by our writes.
        state.covered = interval_sub(state.covered, released)
        exposed = [f for f in state.facts.values() if f.overlaps([released])]
        if state.masked:
            # Deferred: legal iff a checkpoint arrives before cpsie with
            # no store into the released bytes in between.
            state.pending.extend((released, f) for f in exposed)
        elif report:
            for fact in exposed:
                yield MachineEvent(RELEASE, block, instr, fact, released)

    # -- the dataflow problem (shared worklist engine) -------------------
    def nodes(self):
        return self.mfn.blocks

    def key(self, block) -> str:
        return block.name

    def edges(self, block):
        here = self._index[block.name]
        for succ in block.successors():
            yield succ, self._index[succ.name] <= here

    def initial(self, block) -> Optional[_State]:
        return _State() if block is self.mfn.blocks[0] else None

    def transfer(self, block, state: _State) -> _State:
        state = state.copy()
        for _event in self._walk(block, state, report=False):
            pass
        return state

    def flow(self, out: _State, block, succ, is_back: bool) -> _State:
        return out.copy(add_bk=is_back)

    def merge(self, existing: _State, incoming: _State, block) -> bool:
        return _merge(existing, incoming, self.structural, block.name)

    def findings(self):
        """Solve the dataflow, then walk every reached block from its
        fixpoint in-state and yield each :class:`MachineEvent` once, in
        walk order.  ``structural`` is complete once the walk ends."""
        in_states = solve(self)
        for block in self.mfn.blocks:
            state = in_states[block.name]
            if state is not None:
                yield from self._walk(block, state.copy(), report=True)


def report_mfunction_war(analysis: MachineRegionAnalysis, events,
                         engine: DiagnosticEngine) -> None:
    """Emit ``events`` (the analysis's findings, consumed here if a
    generator) as ``mir-war-*`` diagnostics, then its structural
    problems as ``mir-stack-shape``.  This verifier reports the stack
    traffic of the function's own code: discharge points, and the events
    of the transparent-callee replay, are the idempotence certifier's."""
    mfn = analysis.mfn
    for event in events:
        instr, fact = event.instr, event.fact
        if event.kind not in (CLOBBER, RELEASE, UNMASKED_WINDOW) or "bl" in (
                instr.opcode, fact.instr.opcode):
            continue
        if event.kind == CLOBBER:
            kind = "forward" if fact.flags & FW else "backward"
            code, related = f"mir-war-{kind}", "first read here"
            message = (
                f"'{instr.opcode}' overwrites stack bytes first read "
                f"by {fact.what} in the same idempotent region"
            )
        else:
            start, end = event.released
            code, related = "mir-war-release", "read here"
            message = (
                f"'{instr.opcode}' releases stack bytes [{start}, {end}) "
                f"still exposed as reads by {fact.what}; interrupt "
                f"stacking or a later call may overwrite them inside the "
                f"open idempotent region"
            )
        engine.emit(Diagnostic(
            severity=ERROR, code=code, message=message,
            function=mfn.name, level=LEVEL_MIR, loc=instr.loc,
            related=[(f"{related} by '{fact.instr.opcode}'",
                      fact.instr.loc)],
        ))
    # deduplicated: the fixpoint may revisit a join many times
    for problem in sorted(set(analysis.structural)):
        engine.error("mir-stack-shape", problem, function=mfn.name,
                     level=LEVEL_MIR)


def verify_mfunction_war(
    mfn: MFunction,
    ir_function=None,
    alias_mode: str = PRECISE,
    points_to=None,
    calls_are_checkpoints: bool = True,
    engine: Optional[DiagnosticEngine] = None,
    transparent_callees=None,
) -> DiagnosticEngine:
    """Statically verify one machine function's stack WAR-freedom.

    ``ir_function`` (the pre-lowering IR function) enables classification
    of IR-originated accesses; without it any such access conservatively
    may touch every address-taken slot.  Run after ``lower_frame`` so the
    prologue/epilogues are present.  ``transparent_callees`` names
    functions lowered without any checkpoint: a ``bl`` to one is not a
    region boundary.
    """
    if engine is None:
        engine = DiagnosticEngine()
    aa = None
    if ir_function is not None:
        aa = AliasAnalysis(ir_function, alias_mode, points_to=points_to)
    analysis = MachineRegionAnalysis(
        mfn, aa, calls_are_checkpoints, transparent_callees
    )
    report_mfunction_war(analysis, analysis.findings(), engine)
    return engine


def verify_mmodule_war(
    mmodule,
    ir_module=None,
    alias_mode: str = PRECISE,
    calls_are_checkpoints: bool = True,
    engine: Optional[DiagnosticEngine] = None,
    summaries=None,
) -> DiagnosticEngine:
    """Verify every machine function of a lowered module.

    ``summaries`` (a :class:`~repro.analysis.summaries.SummaryTable`)
    supplies the whole-program points-to map and the transparent-callee
    set, matching the relaxed call model the back end lowered under.
    """
    if engine is None:
        engine = DiagnosticEngine()
    points_to = None
    ir_functions = {}
    transparent = summaries.transparent_names() if summaries is not None else None
    if ir_module is not None:
        points_to = module_points_to(ir_module, summaries)
        ir_functions = {f.name: f for f in ir_module.defined_functions()}
    for mfn in mmodule.functions.values():
        verify_mfunction_war(
            mfn,
            ir_function=ir_functions.get(mfn.name),
            alias_mode=alias_mode,
            points_to=points_to,
            calls_are_checkpoints=calls_are_checkpoints,
            engine=engine,
            transparent_callees=transparent,
        )
    return engine


__all__ = [
    "CLOBBER", "RELEASE", "UNMASKED_WINDOW",
    "BARRIER_CALL", "MASKED_RELEASE", "CALLEE_READ",
    "MachineEvent", "MachineRegionAnalysis", "report_mfunction_war",
    "verify_mfunction_war", "verify_mmodule_war",
]
