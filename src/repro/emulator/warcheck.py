"""WAR-violation absence verification (paper §5.1.1).

Every memory access of the emulated program is checked: within one
idempotent region (the span between two checkpoints), a store to an
address whose *first* access in the region was a load is a WAR violation
— re-executing the region after a power failure would make that load
observe the new value.  Unlike the middle-end analysis, this checker sees
back-end and runtime traffic too (spills, pops, interrupt stacking),
matching the paper's extension of Maioli et al.'s verification into the
back end.

The cross-check tests rely on the static verifiers' verdict implying
this checker's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..diagnostics import SourceLoc


@dataclass
class Violation:
    address: int
    pc: int
    function: str
    region_index: int
    #: Source location of the offending store, when the program carries
    #: debug locations (threaded frontend -> IR -> machine IR).
    loc: Optional[SourceLoc] = None

    def __str__(self):
        where = f", {self.loc}" if self.loc is not None and self.loc.known else ""
        return (
            f"WAR violation: store to 0x{self.address:x} after a load in the "
            f"same idempotent region (pc={self.pc}, fn={self.function}, "
            f"region #{self.region_index}{where})"
        )


class WARChecker:
    """Tracks first-accesses per idempotent region, byte-granular."""

    READ = 1
    WRITE = 2

    def __init__(self):
        self.first: Dict[int, int] = {}
        self.violations: List[Violation] = []
        self.region_index = 0

    def copy(self) -> "WARChecker":
        """An independent copy of the checker's region state and
        findings."""
        twin = WARChecker()
        twin.first = dict(self.first)
        twin.violations = list(self.violations)
        twin.region_index = self.region_index
        return twin

    def on_read(self, address: int, size: int) -> None:
        first = self.first
        for a in range(address, address + size):
            if a not in first:
                first[a] = self.READ

    def on_write(self, address: int, size: int, pc: int = -1,
                 program=None) -> None:
        """A store of ``size`` bytes at ``address`` by the instruction at
        ``pc`` of ``program``, which names the function and source
        location of a violation; both are looked up only when a
        violation is recorded."""
        first = self.first
        for a in range(address, address + size):
            kind = first.get(a)
            if kind is None:
                first[a] = self.WRITE
            elif kind == self.READ:
                function, loc = "?", None
                if program is not None:
                    function = program.function_of_index[pc]
                    loc = program.instrs[pc].loc
                self.violations.append(
                    Violation(a, pc, function, self.region_index, loc)
                )
                # Record one violation per (region, address): promote
                # to WRITE so a loop does not flood the list.
                first[a] = self.WRITE

    def on_checkpoint(self) -> None:
        """A checkpoint ends the current idempotent region."""
        self.first.clear()
        self.region_index += 1

    def on_power_restore(self) -> None:
        """Restoration re-enters the region after the last checkpoint."""
        self.first.clear()

    @property
    def clean(self) -> bool:
        return not self.violations
