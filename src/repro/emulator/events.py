"""Execution event tracing for the fault-injection campaign engine.

A continuous-power *harvest* run records the cycle offset of every
consistency-critical instant of an execution — the places where §2/§4 of
the paper argue a power failure is dangerous:

* ``checkpoint`` — a checkpoint instruction committed (the cycle is the
  cumulative on-time *before* the commit's ``checkpoint_cycles`` are
  charged, so the commit occupies ``[cycle, cycle + checkpoint_cycles)``);
* ``restore`` — a post-failure checkpoint restoration completed (never
  present in a continuous-power trace; recorded during schedule replays);
* ``war-write`` — the first NVM store of an idempotent region (the
  moment the region stops being trivially re-executable);
* ``war-violation`` — the dynamic WAR checker flagged this store (only
  ever present for seeded-fault builds; the prime failure target);
* ``mask`` / ``unmask`` — ``cpsid`` / ``cpsie`` executed (the
  interrupt-masked epilogue window of the WARio frame-release protocol).

The trace is the input of :mod:`repro.faultinject.plan`, which aims
deterministic failure schedules at each recorded instant.  It also
carries the run's :class:`~repro.emulator.commitlog.CommitLog`, every
store and commit, from which the campaign materialises commit states.

Tracing requires WAR checking (``war_check=True``): the store hooks
sit in the WAR-checked branch of :meth:`Machine.write_mem`, so a trace
without the checker would silently miss ``war-write`` events and the
log's stores.  :class:`~repro.emulator.machine.Machine` enforces this.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .commitlog import CommitLog

#: Event kinds, in the order the planner iterates them.
EVENT_KINDS = (
    "checkpoint",
    "restore",
    "war-write",
    "war-violation",
    "mask",
    "unmask",
)


class Event(NamedTuple):
    """One recorded instant of an execution."""

    kind: str
    cycle: int      #: cumulative on-time cycles before the instruction
    pc: int         #: instruction index (the emulator's program counter)
    detail: str = ""  #: checkpoint cause, store address, ...


class EventTrace:
    """Collects :class:`Event` values during one :class:`Machine` run.

    The machine calls the ``on_*`` hooks from both interpreter loops at
    points where ``stats.cycles`` is synchronised, so fast and reference
    runs of the same program produce identical traces (see the parity
    tests in ``tests/test_faultinject.py``).
    """

    def __init__(self) -> None:
        self.events: List[Event] = []
        #: armed until the first store of the current idempotent region
        self._war_armed = True
        #: every store and commit of the run
        self.log = CommitLog()

    def copy(self) -> "EventTrace":
        """An independent copy of the events and log recorded so far."""
        twin = EventTrace()
        twin.events = list(self.events)
        twin._war_armed = self._war_armed
        twin.log = self.log.copy()
        return twin

    # -- hooks (called by Machine) ---------------------------------------
    def record(self, kind: str, cycle: int, pc: int, detail: str = "") -> None:
        self.events.append(Event(kind, cycle, pc, detail))

    def on_checkpoint(self, cycle: int, pc: int, cause: str) -> None:
        self.record("checkpoint", cycle, pc, cause)
        self._war_armed = True

    def on_restore(self, cycle: int, pc: int) -> None:
        self.record("restore", cycle, pc)
        self._war_armed = True

    def on_store(self, cycle: int, pc: int, address: int) -> None:
        if self._war_armed:
            self._war_armed = False
            self.record("war-write", cycle, pc, f"0x{address:x}")

    def on_war_violation(self, cycle: int, pc: int, address: int) -> None:
        self.record("war-violation", cycle, pc, f"0x{address:x}")

    # -- queries ---------------------------------------------------------
    def by_kind(self) -> Dict[str, List[Event]]:
        grouped: Dict[str, List[Event]] = {}
        for event in self.events:
            grouped.setdefault(event.kind, []).append(event)
        return grouped

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    def as_tuples(self) -> List[Tuple[str, int, int, str]]:
        """A picklable, cache-stable rendering of the trace."""
        return [tuple(e) for e in self.events]

    def checkpoint_gaps(self, end_cycle: int = None) -> List[int]:
        """Observed inter-checkpoint gaps, in cycles.

        Each gap runs from the previous region boundary (start of
        execution, a committed checkpoint, or a post-failure restore) to
        the next checkpoint commit; pass ``end_cycle`` (the run's final
        ``stats.cycles``) to also count the trailing partial region.  A
        ``restore`` resets the boundary without closing a gap — the
        segment it ends contains boot/restore charges, not region work."""
        gaps: List[int] = []
        prev = 0
        for event in self.events:
            if event.kind == "checkpoint":
                gaps.append(event.cycle - prev)
                prev = event.cycle
            elif event.kind == "restore":
                prev = event.cycle
        if end_cycle is not None:
            gaps.append(end_cycle - prev)
        return gaps

    def max_checkpoint_gap(self, end_cycle: int = None) -> int:
        """Largest observed inter-checkpoint gap (see
        :meth:`checkpoint_gaps`); 0 for an empty trace."""
        gaps = self.checkpoint_gaps(end_cycle)
        return max(gaps) if gaps else 0


__all__ = ["EVENT_KINDS", "Event", "EventTrace"]
