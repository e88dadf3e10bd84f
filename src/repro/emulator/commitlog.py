"""The commit log of a traced run: a differential checkpoint log.

A traced :class:`~repro.emulator.machine.Machine` (one given an
:class:`~repro.emulator.events.EventTrace`) logs every NVM store and
every checkpoint commit of its run into the trace's :class:`CommitLog`:
each store's address, size and new value, and at each commit the
machine state the commit saves plus the statistics counters.  Between
two commits the log keeps only what changed, like the differential
checkpoints of DiCA (PAPERS.md).  The columns are compact ``array``
columns, appended to from :meth:`Machine.write_mem`'s traced branch and
:meth:`Machine._take_checkpoint`'s trace branch, so an untraced run
pays nothing.

:meth:`CommitLog.materialize` turns the log of a continuous run back
into machine states: it brings another machine of the same program,
which has never failed and stands at or behind commit ``k``, to the
exact state of the run right after its ``k``-th commit, without
emulating the instructions in between.  The fault-injection campaign
(:mod:`repro.faultinject.campaign`) jumps its continuous cursor along
the oracle's log this way.
"""

from __future__ import annotations

import struct
from array import array
from typing import List

#: array type codes: 32-bit words, bytes and 64-bit counters
_WORD, _BYTE, _COUNT = "I", "B", "Q"

_P32 = struct.Struct("<I").pack_into
_P16 = struct.Struct("<H").pack_into


class CommitLog:
    """Stores and commits of one run, in execution order."""

    def __init__(self) -> None:
        # one entry per store
        self.store_addrs = array(_WORD)
        self.store_sizes = array(_BYTE)
        self.store_values = array(_WORD)
        # one entry per commit
        self.commit_stores = array(_WORD)   #: stores logged up to the commit
        self.commit_regs = array(_WORD)     #: all of ``regs``, in its order
        self.commit_pcs = array(_WORD)      #: the pc the checkpoint resumes at
        self.commit_cmps = array(_WORD)     #: ``last_cmp``, two per commit
        self.commit_irqs = array(_BYTE)     #: ``interrupts_enabled``
        self.commit_instructions = array(_COUNT)
        #: ``stats.cycles`` at the commit, before its ``checkpoint_cycles``
        #: are charged (the cycle of its ``checkpoint`` event)
        self.commit_cycles = array(_COUNT)
        self.commit_violations = array(_WORD)  #: WAR violations so far
        self.region_sizes = array(_COUNT)
        self.causes: List[str] = []
        #: ``stats.call_counts`` at each commit: its keys in insertion
        #: order, and per commit the counts of its first keys
        self.callees: List[str] = []
        self.call_ends = array(_WORD)
        self.call_counts = array(_COUNT)

    @property
    def commits(self) -> int:
        return len(self.causes)

    def copy(self) -> "CommitLog":
        """An independent copy of the columns logged so far."""
        twin = CommitLog.__new__(CommitLog)
        for name, column in vars(self).items():
            setattr(twin, name, column[:])
        return twin

    def __eq__(self, other) -> bool:
        return isinstance(other, CommitLog) and vars(self) == vars(other)

    def on_commit(self, machine, next_pc: int, cause: str) -> None:
        """Log ``machine``'s commit, right after it saved its checkpoint
        and recorded the commit in its statistics."""
        stats = machine.stats
        self.commit_stores.append(len(self.store_addrs))
        self.commit_regs.extend(machine.regs.values())
        self.commit_pcs.append(next_pc)
        self.commit_cmps.extend(machine.last_cmp)
        self.commit_irqs.append(machine.interrupts_enabled)
        self.commit_instructions.append(stats.instructions)
        self.commit_cycles.append(stats.cycles)
        self.commit_violations.append(len(machine.war.violations))
        self.region_sizes.append(stats.region_sizes[-1])
        self.causes.append(cause)
        calls = stats.call_counts
        if len(calls) > len(self.callees):
            self.callees.extend(list(calls)[len(self.callees):])
        self.call_counts.extend(calls.values())
        self.call_ends.append(len(self.call_counts))

    def materialize(self, machine, k: int) -> None:
        """Bring ``machine`` to the logged run's state right after its
        ``k``-th commit.

        ``machine`` runs the logged program under the logged cost model,
        untraced, with no timer interrupt and no JIT threshold, and has
        never failed; the logged run is a continuous one.  It stands at
        or behind commit ``k``: it has made fewer than ``k`` commits, or
        exactly ``k`` and no instruction since (then nothing changes).
        The stores logged after the machine's last commit up to commit
        ``k`` are applied to its memory in order, which also rewrites
        those it has made since that commit, and the registers, pc,
        flags, interrupt state, active checkpoint, counters and the WAR
        checker's region state are set as the commit left them.  Raises
        ``ValueError`` for a machine outside that contract, one past
        commit ``k``, a ``k`` not in the log, and a logged run that
        recorded WAR violations which the machine has not.
        """
        if not 0 < k <= self.commits:
            raise ValueError(f"commit {k} is not one of the log's "
                             f"{self.commits} commits")
        stats = machine.stats
        if (stats.power_failures or machine._trace is not None
                or machine.interrupt_interval is not None
                or machine.jit_checkpoint_threshold is not None):
            raise ValueError("only an untraced machine that has never failed "
                             "and has no timer or JIT threshold can be "
                             "materialised")
        done = stats.checkpoints
        if done > k or stats.halted or (
                done == k
                and stats.instructions != machine.commit_instructions):
            raise ValueError(f"the machine is past commit {k}")
        war = machine.war
        j = k - 1
        if (war is not None
                and self.commit_violations[j] != len(war.violations)):
            raise ValueError(f"the logged run recorded WAR violations before "
                             f"commit {k} that the machine has not")
        if done == k:
            return
        memory = machine.memory
        lo = self.commit_stores[done - 1] if done else 0
        hi = self.commit_stores[j]
        for addr, size, value in zip(self.store_addrs[lo:hi],
                                     self.store_sizes[lo:hi],
                                     self.store_values[lo:hi]):
            if size == 4:
                _P32(memory, addr, value)
            elif size == 1:
                memory[addr] = value
            else:
                _P16(memory, addr, value)

        width = len(machine.regs)
        regs = dict(zip(machine.regs, self.commit_regs[width * j:width * k]))
        pc = self.commit_pcs[j]
        last_cmp = (self.commit_cmps[2 * j], self.commit_cmps[2 * j + 1])
        machine.regs = regs
        machine.pc = pc
        machine.last_cmp = last_cmp
        machine.interrupts_enabled = bool(self.commit_irqs[j])
        machine._ckpt_active = (dict(regs), pc, last_cmp)
        machine.commit_instructions = self.commit_instructions[j]
        # the commit's own cycles open the next region
        charge = machine.costs.checkpoint_cycles
        machine.region_cycles = charge
        machine._period_used = self.commit_cycles[j] + charge

        stats.instructions = machine.commit_instructions
        stats.cycles = machine._period_used
        stats.checkpoints = k
        causes = stats.checkpoint_causes
        for cause in self.causes[done:k]:
            causes[cause] = causes.get(cause, 0) + 1
        stats.region_sizes.extend(self.region_sizes[done:k])
        first_call = self.call_ends[j - 1] if j else 0
        stats.call_counts = dict(zip(
            self.callees, self.call_counts[first_call:self.call_ends[j]]))
        if war is not None:
            war.first.clear()
            war.region_index = k


__all__ = ["CommitLog"]
