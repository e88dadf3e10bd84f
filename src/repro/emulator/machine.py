"""The intermittent-computing emulator (paper §5.1.1).

Executes an encoded :class:`~repro.backend.encoder.Program` on a model of
an ARM Cortex-M-class MCU with non-volatile main memory: globals and the
stack live in NVM (they survive power failures); the register file is
volatile and is saved only by the double-buffered checkpoint runtime.

The emulator optionally drives a :class:`~repro.emulator.power.PowerSupply`
(power failures clear the registers and charge the boot + restore path),
fires a periodic timer interrupt (hardware stacking through the WAR
checker), and verifies the absence of WAR violations on every access.
"""

from __future__ import annotations

import copy
import struct
from typing import Dict, List, Optional, Tuple

from ..backend.encoder import HALT_ADDRESS, Program, STACK_TOP
from .costs import DEFAULT_COSTS, CostModel
from .events import EventTrace
from .power import PowerSupply
from .stats import ExecutionStats
from .warcheck import WARChecker

M32 = 0xFFFFFFFF

_U32 = struct.Struct("<I").unpack_from
_P32 = struct.Struct("<I").pack_into
_U16 = struct.Struct("<H").unpack_from
_P16 = struct.Struct("<H").pack_into


class EmulationError(Exception):
    pass


class EmulationLimit(EmulationError):
    """Raised when the instruction budget is exhausted."""


class NoForwardProgress(EmulationError):
    """Raised when the power supply cannot sustain boot + restore."""


def _signed(v: int) -> int:
    v &= M32
    return v - (1 << 32) if v >= 1 << 31 else v


_COND = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: _signed(a) < _signed(b),
    "le": lambda a, b: _signed(a) <= _signed(b),
    "gt": lambda a, b: _signed(a) > _signed(b),
    "ge": lambda a, b: _signed(a) >= _signed(b),
    "lo": lambda a, b: a < b,
    "ls": lambda a, b: a <= b,
    "hi": lambda a, b: a > b,
    "hs": lambda a, b: a >= b,
}

_ALU = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "orr": lambda a, b: a | b,
    "eor": lambda a, b: a ^ b,
}


# ---------------------------------------------------------------------------
# Predecoded straight-line runs (the emulator fast path)
#
# ``Machine.run`` dominates every evaluation, and most of what the
# reference interpreter does per instruction is resolvable once per
# program.  ``_decode_program`` turns each ``MInstr`` into a flat tuple
# ``(kind, cost, ..., pc, pre)`` with
#
# * an integer opcode *kind* specialised on operand shapes (register vs
#   immediate, base register vs stack slot),
# * the cycle cost resolved through the cost model (branch kinds also
#   carry the taken cost including the pipeline refill),
# * operands reduced to physical register names, pre-masked immediates,
#   pre-folded stack offsets, resolved condition-code predicates, and
#   branch targets biased by -1 (the terminator step always increments
#   pc),
# * its own ``pc`` and ``pre``, the summed base cost of every instruction
#   before it, so the cycles between two instructions of a run are the
#   difference of their ``pre``.
#
# A *run* is the straight-line stretch from a pc up to and including the
# next terminator: a branch, call, return, checkpoint, ``cpsid``/``cpsie``
# or undecodable instruction (``K_ENDS_RUN`` and above).  Its body only
# reads and writes registers and memory, so the checks the reference
# makes around every instruction (instruction limit, power-on budget, JIT
# threshold, timer interrupt) see nothing but the counters the body
# advances.  A run whose *span*, the most cycles it can add, keeps below
# all four limits cannot meet one inside, and ``Machine._run_decoded``
# executes it with the counters advanced once; any other run steps one
# instruction at a time through the same handlers.  ``_straight_run``
# builds the run at a pc on first entry; the decoded stream and the run
# table are cached on the Program keyed by the cost model, so repeated
# Machine constructions over one program share both.
# ---------------------------------------------------------------------------

K_LDR4, K_LDR1, K_LDR2 = 0, 1, 2
K_STR4_R, K_STR1_R, K_STR2_R = 3, 4, 5
K_STR4_I, K_STR1_I, K_STR2_I = 6, 7, 8
K_ADD_RR, K_ADD_RI, K_SUB_RR, K_SUB_RI = 9, 10, 11, 12
K_ALU_RR, K_ALU_RI, K_ALU_IR, K_ALU_II = 13, 14, 15, 16
K_CMP_RR, K_CMP_RI, K_CMP_IR, K_CMP_II = 17, 18, 19, 20
K_MOV_I, K_MOV_R = 21, 22
K_PUSH, K_POP = 23, 24
K_SHIFT, K_DIV = 25, 26
K_CMOV_R, K_CMOV_I = 27, 28
K_LEA, K_ADDSP = 29, 30
K_EXT = 31
K_NOP = 32
# run terminators
K_BCC, K_B, K_BL, K_BX_LR = 33, 34, 35, 36
K_CKPT, K_CPSID, K_CPSIE, K_BAD = 37, 38, 39, 40
K_ENDS_RUN = K_BCC

_LOAD_KINDS = {"ldr": K_LDR4, "ldrb": K_LDR1, "ldrh": K_LDR2}
_STORE_KINDS_R = {"str": K_STR4_R, "strb": K_STR1_R, "strh": K_STR2_R}
_STORE_KINDS_I = {"str": K_STR4_I, "strb": K_STR1_I, "strh": K_STR2_I}
_SHIFT_IDS = {"lsl": 0, "lsr": 1, "asr": 2}
_EXT_IDS = {"sxtb": 0, "uxtb": 1, "sxth": 2, "uxth": 3}

#: the limit of a counter that nothing bounds (no supply, no timer)
_NEVER = 1 << 64
#: what both interpreters say they cannot execute at the pc just past
#: the last instruction
_END_OF_PROGRAM = "the end of the program"
_READ, _WRITE = WARChecker.READ, WARChecker.WRITE
_LOADING_KINDS = (K_LDR4, K_LDR1, K_LDR2, K_POP)


def _operand(op):
    """(is_immediate, register-name-or-masked-immediate) for a value op."""
    if isinstance(op, int):
        return True, op & M32
    return False, op.phys


def _base_and_offset(base, offset):
    """Fold an addressing operand into (register name, byte offset)."""
    if isinstance(base, str):  # 'sp'
        return base, offset
    if hasattr(base, "offset"):  # StackSlot
        return "sp", base.offset + offset
    return base.phys, offset  # VReg


def _decode(instr, program: Program, costs: CostModel) -> tuple:
    """``(kind, cost, operands...)`` of one instruction."""
    op = instr.opcode
    refill = costs.pipeline_refill
    try:
        cost = costs.cost_of(instr)
    except KeyError:
        # Unknown opcode: keep the reference behaviour of failing
        # only if the instruction is actually executed.
        return (K_BAD, 0, instr)
    ops = instr.ops
    if op in ("ldr", "ldrb", "ldrh"):
        base, off = _base_and_offset(ops[0], ops[1])
        return (_LOAD_KINDS[op], cost, instr.dst.phys, base, off)
    if op in ("str", "strb", "strh"):
        imm, src = _operand(ops[0])
        base, off = _base_and_offset(ops[1], ops[2])
        kinds = _STORE_KINDS_I if imm else _STORE_KINDS_R
        return (kinds[op], cost, src, base, off)
    if op in ("add", "sub"):
        a_imm, a = _operand(ops[0])
        b_imm, b = _operand(ops[1])
        if not a_imm:
            if b_imm:
                kind = K_ADD_RI if op == "add" else K_SUB_RI
            else:
                kind = K_ADD_RR if op == "add" else K_SUB_RR
            return (kind, cost, instr.dst.phys, a, b)
        # immediate left operand: fall back to the generic form
        kind = K_ALU_II if b_imm else K_ALU_IR
        return (kind, cost, instr.dst.phys, a, b, _ALU[op])
    if op in ("mul", "and", "orr", "eor"):
        a_imm, a = _operand(ops[0])
        b_imm, b = _operand(ops[1])
        kind = {
            (False, False): K_ALU_RR, (False, True): K_ALU_RI,
            (True, False): K_ALU_IR, (True, True): K_ALU_II,
        }[(a_imm, b_imm)]
        return (kind, cost, instr.dst.phys, a, b, _ALU[op])
    if op == "cmp":
        a_imm, a = _operand(ops[0])
        b_imm, b = _operand(ops[1])
        kind = {
            (False, False): K_CMP_RR, (False, True): K_CMP_RI,
            (True, False): K_CMP_IR, (True, True): K_CMP_II,
        }[(a_imm, b_imm)]
        return (kind, cost, a, b)
    if op == "bcc":
        return (K_BCC, cost, _COND[instr.cond], ops[0] - 1, cost + refill)
    if op == "b":
        return (K_B, cost, ops[0] - 1, cost + refill)
    if op == "mov":
        imm, src = _operand(ops[0])
        return (K_MOV_I if imm else K_MOV_R, cost, instr.dst.phys, src)
    if op == "adr":
        # the encoder resolved the address to an absolute immediate
        return (K_MOV_I, cost, instr.dst.phys, ops[0] & M32)
    if op == "bl":
        callee = program.function_of_index[ops[0]]
        return (K_BL, cost, ops[0] - 1, callee, cost + refill)
    if op == "bx_lr":
        return (K_BX_LR, cost, cost + refill)
    if op == "push":
        return (K_PUSH, cost, tuple(instr.regs))
    if op == "pop":
        return (K_POP, cost, tuple(instr.regs))
    if op in ("lsl", "lsr", "asr"):
        a_imm, a = _operand(ops[0])
        b_imm, b = _operand(ops[1])
        return (K_SHIFT, cost, _SHIFT_IDS[op], a_imm, a, b_imm, b,
                instr.dst.phys)
    if op in ("udiv", "sdiv"):
        a_imm, a = _operand(ops[0])
        b_imm, b = _operand(ops[1])
        return (K_DIV, cost, op == "sdiv", a_imm, a, b_imm, b,
                instr.dst.phys)
    if op == "cmov":
        imm, src = _operand(ops[0])
        return (K_CMOV_I if imm else K_CMOV_R, cost, _COND[instr.cond],
                instr.dst.phys, src)
    if op == "lea":
        return (K_LEA, cost, instr.dst.phys, ops[0].offset)
    if op == "addsp":
        return (K_ADDSP, cost, ops[0])
    if op == "subsp":
        return (K_ADDSP, cost, -ops[0])
    if op in ("sxtb", "uxtb", "sxth", "uxth"):
        imm, src = _operand(ops[0])
        return (K_EXT, cost, _EXT_IDS[op], instr.dst.phys, imm, src)
    if op == "checkpoint":
        return (K_CKPT, cost, instr.cause)
    if op == "cpsid":
        return (K_CPSID, cost)
    if op == "cpsie":
        return (K_CPSIE, cost)
    if op == "nop":
        return (K_NOP, cost)
    return (K_BAD, cost, instr)


def _decode_program(program: Program, costs: CostModel) -> List[tuple]:
    """The decoded stream, each entry ending in its ``(pc, pre)``, and a
    last entry that refuses to run off the end of the program."""
    decoded = []
    pre = 0
    for pc, instr in enumerate(program.instrs):
        entry = _decode(instr, program, costs)
        decoded.append(entry + (pc, pre))
        pre += entry[1]
    decoded.append((K_BAD, 0, _END_OF_PROGRAM, len(decoded), pre))
    return decoded


def _straight_run(decoded: List[tuple], pc: int, costs: CostModel) -> tuple:
    """``(body, body cycles, span, length)`` of the run starting at
    ``pc``: the body's entries up to its terminator, their summed cost,
    the most cycles the whole run can add to the clock (a taken branch
    pays the refill, a ``cpsie`` may fire a pending interrupt) and its
    instruction count, terminator included."""
    if pc >= len(decoded):
        raise EmulationError(f"no instruction at pc {pc}")
    end = pc
    while decoded[end][0] < K_ENDS_RUN:
        end += 1
    term = decoded[end]
    kind = term[0]
    if kind <= K_BX_LR:
        extra = costs.pipeline_refill
    elif kind == K_CPSIE:
        extra = (costs.interrupt_entry_cycles + costs.isr_cycles
                 + costs.interrupt_exit_cycles)
    else:
        extra = 0
    body_cycles = term[-1] - decoded[pc][-1]
    return (tuple(decoded[pc:end]), body_cycles,
            body_cycles + term[1] + extra, end - pc + 1)


def _period_cap(budget: Optional[int], jit_threshold: Optional[int],
                jit_fired: bool) -> int:
    """The power-on time a run may reach with neither a power failure nor
    a JIT checkpoint inside it."""
    if budget is None:
        return _NEVER
    if jit_threshold is None or jit_fired:
        return budget
    return min(budget, budget - jit_threshold - 1)


def _decoded_for(program: Program, costs: CostModel) -> Tuple[list, dict]:
    """The program's decoded stream and run table under ``costs``."""
    cached = getattr(program, "_decoded_cache", None)
    if cached is not None and cached[0] is costs:
        return cached[1]
    tables = (_decode_program(program, costs), {})
    program._decoded_cache = (costs, tables)
    return tables


class Machine:
    """One emulated device executing one program."""

    #: ``stats.instructions`` when the active checkpoint was committed
    #: (the boot checkpoint: 0), set by :meth:`_take_checkpoint`
    commit_instructions = 0

    def __init__(
        self,
        program: Program,
        cost_model: Optional[CostModel] = None,
        war_check: bool = True,
        interrupt_interval: Optional[int] = None,
        jit_checkpoint_threshold: Optional[int] = None,
        fast_interp: bool = True,
        trace: Optional[EventTrace] = None,
    ):
        self.program = program
        self.costs = cost_model or DEFAULT_COSTS
        #: optional :class:`EventTrace` recording consistency-critical
        #: instants (checkpoint commits, restores, first region stores,
        #: epilogue mask/unmask) for the fault-injection planner, and the
        #: run's commit log.  The store hooks live in the WAR-checked
        #: branch of :meth:`write_mem`, which the fast interpreter routes
        #: stores through only when tracing — so tracing requires
        #: ``war_check=True``.
        if trace is not None and not war_check:
            raise ValueError("event tracing requires war_check=True")
        self._trace = trace
        #: ``fast_interp=False`` selects the reference interpreter (the
        #: original per-MInstr dispatch loop); the parity tests compare
        #: its ExecutionStats against the predecoded fast path.
        self.fast_interp = fast_interp
        self._decoded = _decoded_for(program, self.costs) if fast_interp else None
        self.war = WARChecker() if war_check else None
        self.interrupt_interval = interrupt_interval
        #: Just-In-Time checkpointing (paper §6): a Hibernus-style
        #: voltage-comparator model.  When the remaining on-time of a
        #: discharge falls below the threshold the device checkpoints and
        #: sleeps until power returns.  Periods shorter than the
        #: threshold collapse faster than the comparator can react — the
        #: paper's "imprecise" hardware systems — so no checkpoint fires
        #: and the partial execution is re-run from the previous
        #: checkpoint.  Only meaningful with a non-continuous supply.
        self.jit_checkpoint_threshold = jit_checkpoint_threshold
        self._jit_fired = False
        self.stats = ExecutionStats()

        self.memory = bytearray(program.initial_memory)
        self.regs: Dict[str, int] = {f"r{i}": 0 for i in range(13)}
        self.regs["sp"] = STACK_TOP - 64
        self.regs["lr"] = HALT_ADDRESS & M32
        self.pc = program.entry
        self.last_cmp: Tuple[int, int] = (0, 0)
        self.interrupts_enabled = True
        self.pending_interrupt = False
        self.region_cycles = 0
        self._next_interrupt = interrupt_interval if interrupt_interval else None
        # double-buffered checkpoint: the initial (boot) checkpoint holds
        # the pristine entry state
        self._ckpt_active = (dict(self.regs), self.pc, self.last_cmp)
        self._halt_sentinel = HALT_ADDRESS & M32
        self._failures_since_checkpoint = 0
        #: cycles spent in the current power-on period, kept across a
        #: paused or stopped run so that the next :meth:`run` resumes it
        self._period_used = 0

    def fork(self) -> "Machine":
        """An independent copy of this machine, to be resumed on its own.

        Memory, registers, statistics, the WAR checker and the event
        trace are copied; the program, its decoded stream and run table
        and the immutable checkpoint snapshots are shared."""
        twin = copy.copy(self)
        twin.memory = bytearray(self.memory)
        twin.regs = dict(self.regs)
        twin.stats = self.stats.copy()
        if self.war is not None:
            twin.war = self.war.copy()
        if self._trace is not None:
            twin._trace = self._trace.copy()
        return twin

    def same_state(self, other: "Machine") -> bool:
        """True when both machines hold equal memory, registers, pc,
        condition flags, interrupt enable/pending state and active
        checkpoint buffer: from here on they execute alike."""
        return (
            self.pc == other.pc
            and self.regs == other.regs
            and self.last_cmp == other.last_cmp
            and self.interrupts_enabled == other.interrupts_enabled
            and self.pending_interrupt == other.pending_interrupt
            and self._ckpt_active == other._ckpt_active
            and self.memory == other.memory
        )

    # -- memory -----------------------------------------------------------
    def _resolve(self, base, offset) -> int:
        if isinstance(base, str):  # 'sp'
            addr = self.regs[base]
        elif hasattr(base, "offset"):  # StackSlot
            addr = self.regs["sp"] + base.offset
        else:  # VReg
            addr = self.regs[base.phys]
        return (addr + offset) & M32

    def read_mem(self, addr: int, size: int) -> int:
        if addr + size > len(self.memory):
            raise EmulationError(f"load out of bounds: 0x{addr:x}")
        if self.war is not None:
            self.war.on_read(addr, size)
        return int.from_bytes(self.memory[addr : addr + size], "little")

    def write_mem(self, addr: int, size: int, value: int) -> None:
        if addr + size > len(self.memory):
            raise EmulationError(f"store out of bounds: 0x{addr:x}")
        value &= (1 << (8 * size)) - 1
        war = self.war
        if war is not None:
            trace = self._trace
            if trace is None:
                war.on_write(addr, size, self.pc, self.program)
            else:
                # tracing: both loops synchronise ``stats.cycles`` (and
                # ``pc``) before reaching here, so the recorded cycle is
                # the cumulative on-time before this store's cost
                before = len(war.violations)
                war.on_write(addr, size, self.pc, self.program)
                trace.on_store(self.stats.cycles, self.pc, addr)
                if len(war.violations) != before:
                    trace.on_war_violation(self.stats.cycles, self.pc, addr)
                log = trace.log
                log.store_addrs.append(addr)
                log.store_sizes.append(size)
                log.store_values.append(value)
        self.memory[addr : addr + size] = value.to_bytes(size, "little")

    def _val(self, op) -> int:
        return op & M32 if isinstance(op, int) else self.regs[op.phys]

    # -- checkpointing ------------------------------------------------------
    def _take_checkpoint(self, cause: str, next_pc: Optional[int] = None) -> None:
        # Double buffering: the new snapshot only becomes active once it
        # is complete, so a power failure mid-checkpoint restores the old
        # one.  Instruction-granular power failures make the snapshot
        # atomic here; the buffers live in reserved NVM outside the
        # program's address space.
        if next_pc is None:
            next_pc = self.pc + 1  # resume after the checkpoint instruction
        self._ckpt_active = (dict(self.regs), next_pc, self.last_cmp)
        self.commit_instructions = self.stats.instructions
        self._failures_since_checkpoint = 0
        self.stats.record_checkpoint(cause, self.region_cycles)
        self.region_cycles = 0
        if self.war is not None:
            self.war.on_checkpoint()
        if self._trace is not None:
            self._trace.on_checkpoint(self.stats.cycles, self.pc, cause)
            self._trace.log.on_commit(self, next_pc, cause)

    def _restore_checkpoint(self) -> None:
        regs, pc, cmp_state = self._ckpt_active
        self.regs = dict(regs)
        self.pc = pc
        self.last_cmp = cmp_state
        self.interrupts_enabled = True
        self.pending_interrupt = False
        self.region_cycles = 0
        if self.war is not None:
            self.war.on_power_restore()
        if self._trace is not None:
            self._trace.on_restore(self.stats.cycles, self.pc)

    # -- interrupts -------------------------------------------------------------
    def _fire_interrupt(self) -> None:
        """Hardware exception entry: stack r0-r3, r12, lr, pc, xPSR."""
        sp = (self.regs["sp"] - 32) & M32
        self.regs["sp"] = sp
        frame = [
            self.regs["r0"], self.regs["r1"], self.regs["r2"], self.regs["r3"],
            self.regs["r12"], self.regs["lr"], self.pc & M32, 0,
        ]
        for i, word in enumerate(frame):
            self.write_mem(sp + 4 * i, 4, word)
        # ISR body is opaque; exception return unstacks the frame.
        for i in range(8):
            self.read_mem(sp + 4 * i, 4)
        self.regs["sp"] = (sp + 32) & M32
        cost = (
            self.costs.interrupt_entry_cycles
            + self.costs.isr_cycles
            + self.costs.interrupt_exit_cycles
        )
        self.stats.cycles += cost
        self.region_cycles += cost
        self.stats.interrupts += 1

    # -- main loop ---------------------------------------------------------------
    def run(
        self,
        power: Optional[PowerSupply] = None,
        max_instructions: int = 100_000_000,
        pause_before_failure: bool = False,
        stop_after_commits: Optional[int] = None,
        stop_after_failures: Optional[int] = None,
        stop_at_instructions: Optional[int] = None,
    ) -> ExecutionStats:
        """Execute until halt and return the (cumulative) statistics.

        ``pause_before_failure`` returns instead of failing when the
        supply's next power failure is due; ``stop_after_commits``
        returns right after the checkpoint instruction whose commit
        brings ``stats.checkpoints`` to that count;
        ``stop_after_failures`` returns right after the restore that
        follows the power failure bringing ``stats.power_failures`` to
        that count or past it (a dead period counts as a failure); and
        ``stop_at_instructions`` returns, where ``max_instructions``
        would raise, once ``stats.instructions`` reaches that count.
        The run returns at the first stop it meets.  Either way the
        machine (or a :meth:`fork` of it) can be run again: given the
        same supply, the runs together equal one uninterrupted run, and
        given no supply the rest runs under continuous power.  A resumed
        run re-creates the supply's iterator and skips the periods that
        ``stats.power_failures`` says are spent, so the supply must be
        deterministic.  A halted machine returns its statistics
        unchanged.  Each stop must exceed the count reached so far: a
        run could never stop at a count it has already passed.
        """
        stats = self.stats
        for name, stop, reached, what in (
                ("stop_after_commits", stop_after_commits,
                 stats.checkpoints, "commits already made"),
                ("stop_after_failures", stop_after_failures,
                 stats.power_failures, "power failures already met"),
                ("stop_at_instructions", stop_at_instructions,
                 stats.instructions, "instructions already executed")):
            if stop is not None and stop <= reached:
                raise ValueError(
                    f"{name}={stop} is not past the {reached} {what}")
        if stats.halted:
            return stats
        # an instruction count to stop at is an instruction limit at
        # which the run returns instead of raising
        stop_at_limit = (stop_at_instructions is not None
                         and stop_at_instructions <= max_instructions)
        if stop_at_limit:
            max_instructions = stop_at_instructions
        loop = self._run_decoded if self.fast_interp else self._run_reference
        return loop(power, max_instructions, pause_before_failure,
                    stop_after_commits, stop_after_failures, stop_at_limit)

    def _power_periods(self, power: Optional[PowerSupply]):
        """``(iterator, current budget)`` of a supply, advanced past the
        periods already spent; ``(None, None)`` under continuous power."""
        if power is None or power.is_continuous:
            return None, None
        on_iter = power.on_durations()
        budget = next(on_iter)
        for _ in range(self.stats.power_failures):
            budget = next(on_iter)
        return on_iter, budget

    def _park(self, icount, cycles, pc, cmp_a, cmp_b, region_cycles,
              next_interrupt) -> None:
        """Write the fast loop's local copies of the machine state back."""
        self.stats.instructions = icount
        self.stats.cycles = cycles
        self.pc = pc
        self.last_cmp = (cmp_a, cmp_b)
        self.region_cycles = region_cycles
        self._next_interrupt = next_interrupt

    def _run_decoded(
        self,
        power: Optional[PowerSupply],
        max_instructions: int,
        pause_before_failure: bool = False,
        stop_after_commits: Optional[int] = None,
        stop_after_failures: Optional[int] = None,
        stop_at_limit: bool = False,
    ) -> ExecutionStats:
        """The fast path: execute the predecoded stream run by run.

        Equivalent to :meth:`_run_reference` in every observable
        (``ExecutionStats``, memory, registers, WAR violations, event
        trace, interrupts, JIT checkpoints, exceptions and the counters
        they leave).  Hot state lives in locals and is written back on
        every slow-path event.  A run whose span fits below the
        instruction limit, the power-on budget (less the JIT threshold
        while the comparator is armed) and the next timer interrupt
        executes its body with the counters updated once, then its
        terminator; no check between its instructions could fire.  Any
        other run steps one instruction: the reference's checks before
        and after it, through the same handlers.  A stop after a commit
        lowers ``max_instructions`` to the current count, so the next run
        steps and returns at its limit test, after the checkpoint has
        completed; ``stop_at_limit`` returns there instead of raising.
        A stop after a failure returns from the power-failure handler.
        """
        decoded, runs = self._decoded
        costs = self.costs
        stats = self.stats
        regs = self.regs
        memory = self.memory
        war = self.war
        mark = war.first.setdefault if war is not None else None
        trace = self._trace
        program = self.program
        cc = stats.call_counts

        pc = self.pc
        cmp_a, cmp_b = self.last_cmp
        cycles = stats.cycles
        icount = stats.instructions
        region_cycles = self.region_cycles
        halt_sentinel = self._halt_sentinel
        jit_threshold = self.jit_checkpoint_threshold
        jit_enabled = jit_threshold is not None
        jit_fired = self._jit_fired
        interrupt_interval = self.interrupt_interval
        next_interrupt = self._next_interrupt
        irq_at = _NEVER if next_interrupt is None else next_interrupt
        checkpoint_cycles = costs.checkpoint_cycles

        on_iter, budget = self._power_periods(power)
        if jit_enabled and budget is not None and budget <= jit_threshold:
            jit_fired = True  # collapsed before the comparator
            self._jit_fired = True
        period_cap = _period_cap(budget, jit_threshold, jit_fired)
        period_used = self._period_used
        stopping = stop_at_limit

        addr = 0
        try:
            while True:
                run = runs.get(pc)
                if run is None:
                    run = runs[pc] = _straight_run(decoded, pc, costs)
                body, body_cycles, span, length = run
                stepping = not (icount + length <= max_instructions
                                and period_used + span <= period_cap
                                and cycles + span < irq_at)
                if stepping:
                    # a boundary may fall inside this run: step one
                    # instruction under the reference's checks
                    if icount >= max_instructions:
                        self._park(icount, cycles, pc, cmp_a, cmp_b,
                                   region_cycles, next_interrupt)
                        self._period_used = period_used
                        if stopping:
                            return stats
                        raise EmulationLimit(
                            f"exceeded {max_instructions} instructions "
                            f"({stats.summary()})"
                        )
                    if budget is not None and period_used + decoded[pc][1] > budget:
                        if pause_before_failure:
                            self._park(icount, cycles, pc, cmp_a, cmp_b,
                                       region_cycles, next_interrupt)
                            self._period_used = period_used
                            return stats
                        # ---- power failure -----------------------------
                        stats.instructions = icount
                        stats.cycles = cycles
                        stats.power_failures += 1
                        stats.reexecuted_cycles += region_cycles
                        self._failures_since_checkpoint += 1
                        if self._failures_since_checkpoint > 1000:
                            raise NoForwardProgress(
                                "the idempotent region does not fit the "
                                f"power-on window ({stats.summary()})"
                            )
                        boot = costs.boot_cycles + costs.restore_cycles
                        dead_periods = 0
                        budget = next(on_iter)
                        while budget < boot:
                            dead_periods += 1
                            stats.power_failures += 1
                            if dead_periods > 10_000:
                                raise NoForwardProgress(
                                    "power-on periods shorter than boot + "
                                    "restore"
                                )
                            budget = next(on_iter)
                        period_used = boot
                        cycles += boot
                        stats.cycles = cycles
                        stats.boot_cycles += boot
                        # a too-short period collapses before the comparator
                        jit_fired = jit_enabled and budget - boot <= jit_threshold
                        self._jit_fired = jit_fired
                        period_cap = _period_cap(budget, jit_threshold, jit_fired)
                        self._restore_checkpoint()
                        regs = self.regs
                        pc = self.pc
                        cmp_a, cmp_b = self.last_cmp
                        region_cycles = 0
                        if (stop_after_failures is not None
                                and stats.power_failures >= stop_after_failures):
                            self._park(icount, cycles, pc, cmp_a, cmp_b,
                                       region_cycles, next_interrupt)
                            self._period_used = period_used
                            return stats
                        continue
                    if body:
                        body = body[:1]
                        body_cycles = body[0][1]

                if body:
                    # dispatch ordered by measured dynamic frequency across
                    # the benchsuite (see docs/PERFORMANCE.md)
                    try:
                        for d in body:
                            k = d[0]
                            if k == K_MOV_R:
                                regs[d[2]] = regs[d[3]]
                            elif k == K_ADD_RR:
                                regs[d[2]] = (regs[d[3]] + regs[d[4]]) & M32
                            elif k == K_LDR4:
                                addr = (regs[d[3]] + d[4]) & M32
                                regs[d[2]] = _U32(memory, addr)[0]
                                if mark is not None:
                                    mark(addr, _READ)
                                    mark(addr + 1, _READ)
                                    mark(addr + 2, _READ)
                                    mark(addr + 3, _READ)
                            elif k == K_MOV_I:
                                regs[d[2]] = d[3]
                            elif k == K_SHIFT:
                                a = d[4] if d[3] else regs[d[4]]
                                amount = (d[6] if d[5] else regs[d[6]]) & 0xFF
                                mode = d[2]
                                if mode == 0:  # lsl
                                    result = (a << amount) & M32 if amount < 32 else 0
                                elif mode == 1:  # lsr
                                    result = a >> amount if amount < 32 else 0
                                else:  # asr
                                    result = (_signed(a) >> amount) & M32 if amount < 32 else (
                                        M32 if _signed(a) < 0 else 0
                                    )
                                regs[d[7]] = result
                            elif k == K_ALU_RR:
                                regs[d[2]] = d[5](regs[d[3]], regs[d[4]]) & M32
                            elif k == K_EXT:
                                v = d[5] if d[4] else regs[d[5]]
                                mode = d[2]
                                if mode == 0:  # sxtb
                                    v &= 0xFF
                                    regs[d[3]] = (v - 256 if v >= 128 else v) & M32
                                elif mode == 1:  # uxtb
                                    regs[d[3]] = v & 0xFF
                                elif mode == 2:  # sxth
                                    v &= 0xFFFF
                                    regs[d[3]] = (v - 65536 if v >= 32768 else v) & M32
                                else:  # uxth
                                    regs[d[3]] = v & 0xFFFF
                            elif k == K_ADD_RI:
                                regs[d[2]] = (regs[d[3]] + d[4]) & M32
                            elif k == K_CMP_RI:
                                cmp_a = regs[d[2]]
                                cmp_b = d[3]
                            elif k == K_STR4_R:
                                addr = (regs[d[3]] + d[4]) & M32
                                if trace is None:
                                    # mark each byte's first access as a write; only
                                    # a byte first loaded makes the checker record a
                                    # violation (a traced store keeps ``write_mem``)
                                    _P32(memory, addr, regs[d[2]])
                                    if mark is not None and (
                                            mark(addr, _WRITE) | mark(addr + 1, _WRITE)
                                            | mark(addr + 2, _WRITE)
                                            | mark(addr + 3, _WRITE)) & _READ:
                                        war.on_write(addr, 4, d[-2], program)
                                else:
                                    self.pc = d[-2]
                                    stats.cycles = cycles + d[-1] - body[0][-1]
                                    self.write_mem(addr, 4, regs[d[2]])
                            elif k == K_LDR1:
                                addr = (regs[d[3]] + d[4]) & M32
                                regs[d[2]] = memory[addr]
                                if mark is not None:
                                    mark(addr, _READ)
                            elif k == K_SUB_RI:
                                regs[d[2]] = (regs[d[3]] - d[4]) & M32
                            elif k == K_STR1_R:
                                addr = (regs[d[3]] + d[4]) & M32
                                if trace is None:
                                    memory[addr] = regs[d[2]] & 0xFF
                                    if mark is not None and mark(addr, _WRITE) & _READ:
                                        war.on_write(addr, 1, d[-2], program)
                                else:
                                    self.pc = d[-2]
                                    stats.cycles = cycles + d[-1] - body[0][-1]
                                    self.write_mem(addr, 1, regs[d[2]])
                            elif k == K_CMP_RR:
                                cmp_a = regs[d[2]]
                                cmp_b = regs[d[3]]
                            elif k == K_ALU_RI:
                                regs[d[2]] = d[5](regs[d[3]], d[4]) & M32
                            elif k == K_SUB_RR:
                                regs[d[2]] = (regs[d[3]] - regs[d[4]]) & M32
                            elif k == K_LDR2:
                                addr = (regs[d[3]] + d[4]) & M32
                                regs[d[2]] = _U16(memory, addr)[0]
                                if mark is not None:
                                    mark(addr, _READ)
                                    mark(addr + 1, _READ)
                            elif k == K_STR2_R:
                                addr = (regs[d[3]] + d[4]) & M32
                                if trace is None:
                                    _P16(memory, addr, regs[d[2]] & 0xFFFF)
                                    if mark is not None and (mark(addr, _WRITE)
                                                             | mark(addr + 1, _WRITE)) & _READ:
                                        war.on_write(addr, 2, d[-2], program)
                                else:
                                    self.pc = d[-2]
                                    stats.cycles = cycles + d[-1] - body[0][-1]
                                    self.write_mem(addr, 2, regs[d[2]])
                            elif k == K_PUSH:
                                names = d[2]
                                sp = (regs["sp"] - 4 * len(names)) & M32
                                regs["sp"] = sp
                                addr = sp
                                if war is None:
                                    for name in names:
                                        _P32(memory, addr, regs[name])
                                        addr += 4
                                else:
                                    self.pc = d[-2]
                                    if trace is not None:
                                        stats.cycles = cycles + d[-1] - body[0][-1]
                                    for name in names:
                                        self.write_mem(addr, 4, regs[name])
                                        addr += 4
                            elif k == K_POP:
                                names = d[2]
                                sp = regs["sp"]
                                addr = sp
                                for name in names:
                                    regs[name] = _U32(memory, addr)[0]
                                    if mark is not None:
                                        mark(addr, _READ)
                                        mark(addr + 1, _READ)
                                        mark(addr + 2, _READ)
                                        mark(addr + 3, _READ)
                                    addr += 4
                                regs["sp"] = (sp + 4 * len(names)) & M32
                            elif k == K_DIV:
                                a = d[4] if d[3] else regs[d[4]]
                                b = d[6] if d[5] else regs[d[6]]
                                if b == 0:
                                    result = 0  # ARM semantics: division by zero yields 0
                                elif not d[2]:  # udiv
                                    result = a // b
                                else:
                                    sa, sb = _signed(a), _signed(b)
                                    result = abs(sa) // abs(sb)
                                    if (sa < 0) != (sb < 0):
                                        result = -result
                                regs[d[7]] = result & M32
                            elif k == K_CMOV_R:
                                if d[2](cmp_a, cmp_b):
                                    regs[d[3]] = regs[d[4]]
                            elif k == K_CMOV_I:
                                if d[2](cmp_a, cmp_b):
                                    regs[d[3]] = d[4]
                            elif k == K_LEA:
                                regs[d[2]] = (regs["sp"] + d[3]) & M32
                            elif k == K_ADDSP:
                                regs["sp"] = (regs["sp"] + d[2]) & M32
                            elif k == K_STR4_I:
                                addr = (regs[d[3]] + d[4]) & M32
                                if trace is None:
                                    _P32(memory, addr, d[2])
                                    if mark is not None and (
                                            mark(addr, _WRITE) | mark(addr + 1, _WRITE)
                                            | mark(addr + 2, _WRITE)
                                            | mark(addr + 3, _WRITE)) & _READ:
                                        war.on_write(addr, 4, d[-2], program)
                                else:
                                    self.pc = d[-2]
                                    stats.cycles = cycles + d[-1] - body[0][-1]
                                    self.write_mem(addr, 4, d[2])
                            elif k == K_STR1_I:
                                addr = (regs[d[3]] + d[4]) & M32
                                if trace is None:
                                    memory[addr] = d[2] & 0xFF
                                    if mark is not None and mark(addr, _WRITE) & _READ:
                                        war.on_write(addr, 1, d[-2], program)
                                else:
                                    self.pc = d[-2]
                                    stats.cycles = cycles + d[-1] - body[0][-1]
                                    self.write_mem(addr, 1, d[2])
                            elif k == K_STR2_I:
                                addr = (regs[d[3]] + d[4]) & M32
                                if trace is None:
                                    _P16(memory, addr, d[2] & 0xFFFF)
                                    if mark is not None and (mark(addr, _WRITE)
                                                             | mark(addr + 1, _WRITE)) & _READ:
                                        war.on_write(addr, 2, d[-2], program)
                                else:
                                    self.pc = d[-2]
                                    stats.cycles = cycles + d[-1] - body[0][-1]
                                    self.write_mem(addr, 2, d[2])
                            elif k == K_CMP_IR:
                                cmp_a = d[2]
                                cmp_b = regs[d[3]]
                            elif k == K_CMP_II:
                                cmp_a = d[2]
                                cmp_b = d[3]
                            elif k == K_ALU_IR:
                                regs[d[2]] = d[5](d[3], regs[d[4]]) & M32
                            elif k == K_ALU_II:
                                regs[d[2]] = d[5](d[3], d[4]) & M32
                            # K_NOP: nothing to do
                    except (IndexError, struct.error, EmulationError) as exc:
                        # bring the locals to the faulting instruction:
                        # counted, its own cycles not yet charged
                        off = d[-1] - body[0][-1]
                        icount += d[-2] - pc + 1
                        cycles += off
                        region_cycles += off
                        pc = d[-2]
                        if isinstance(exc, EmulationError):
                            raise
                        # the fast accessors bounds-check by construction:
                        # bytearray indexing and struct packing reject any
                        # access past the 1 MB address space
                        access = "load" if d[0] in _LOADING_KINDS else "store"
                        raise EmulationError(
                            f"{access} out of bounds: 0x{addr:x}") from None
                    count = len(body)
                    icount += count
                    cycles += body_cycles
                    region_cycles += body_cycles
                    period_used += body_cycles
                    pc += count

                if not (stepping and body):
                    # the run's terminator
                    d = decoded[pc]
                    cost = d[1]
                    icount += 1
                    k = d[0]
                    if k == K_BCC:
                        if d[2](cmp_a, cmp_b):
                            pc = d[3]
                            cost = d[4]
                    elif k == K_B:
                        pc = d[2]
                        cost = d[3]
                    elif k == K_BL:
                        regs["lr"] = (pc + 1) & M32
                        callee = d[3]
                        cc[callee] = cc.get(callee, 0) + 1
                        pc = d[2]
                        cost = d[4]
                    elif k == K_BX_LR:
                        target = regs["lr"]
                        if target == halt_sentinel:
                            cycles += cost
                            region_cycles += cost
                            stats.halted = True
                            stats.final_region_cycles = region_cycles
                            self._park(icount, cycles, pc, cmp_a, cmp_b,
                                       region_cycles, next_interrupt)
                            return stats
                        pc = target - 1
                        cost = d[2]
                    elif k == K_CKPT:
                        self._park(icount, cycles, pc, cmp_a, cmp_b,
                                   region_cycles, next_interrupt)
                        self._take_checkpoint(d[2])
                        region_cycles = 0
                        if stats.checkpoints == stop_after_commits:
                            stopping = True
                            max_instructions = icount
                    elif k == K_CPSID:
                        self.interrupts_enabled = False
                        if trace is not None:
                            trace.record("mask", cycles, pc)
                    elif k == K_CPSIE:
                        self.interrupts_enabled = True
                        if trace is not None:
                            trace.record("unmask", cycles, pc)
                        if self.pending_interrupt:
                            self.pending_interrupt = False
                            self._park(icount, cycles, pc, cmp_a, cmp_b,
                                       region_cycles, next_interrupt)
                            self._fire_interrupt()
                            cycles = stats.cycles
                            region_cycles = self.region_cycles
                    else:
                        raise EmulationError(f"cannot execute {d[2]!r}")
                    cycles += cost
                    region_cycles += cost
                    period_used += cost
                    pc += 1

                if stepping:
                    # JIT checkpoint: the comparator sees the capacitor
                    # voltage crossing the configured threshold; the
                    # device saves state and sleeps out the remainder of
                    # the discharge.
                    if (
                        jit_enabled
                        and budget is not None
                        and not jit_fired
                        and budget - period_used <= jit_threshold
                    ):
                        jit_fired = True
                        self._jit_fired = True
                        period_cap = budget
                        cycles += checkpoint_cycles
                        region_cycles += checkpoint_cycles
                        self._park(icount, cycles, pc, cmp_a, cmp_b,
                                   region_cycles, next_interrupt)
                        self._take_checkpoint("jit", next_pc=pc)
                        region_cycles = 0
                        period_used = budget  # sleep until the brown-out

                    # periodic timer interrupt
                    if cycles >= irq_at:
                        next_interrupt += interrupt_interval
                        irq_at = next_interrupt
                        if self.interrupts_enabled:
                            self._park(icount, cycles, pc, cmp_a, cmp_b,
                                       region_cycles, next_interrupt)
                            self._fire_interrupt()
                            cycles = stats.cycles
                            region_cycles = self.region_cycles
                        else:
                            self.pending_interrupt = True
        except EmulationError:
            # raised with the locals at the faulting instruction; the
            # power-on time stays as the reference leaves it
            self._park(icount, cycles, pc, cmp_a, cmp_b, region_cycles,
                       next_interrupt)
            raise

    def _run_reference(
        self,
        power: Optional[PowerSupply],
        max_instructions: int,
        pause_before_failure: bool = False,
        stop_after_commits: Optional[int] = None,
        stop_after_failures: Optional[int] = None,
        stop_at_limit: bool = False,
    ) -> ExecutionStats:
        instrs = self.program.instrs
        end = len(instrs)
        costs = self.costs
        stats = self.stats
        regs = self.regs

        on_iter, budget = self._power_periods(power)
        if (
            self.jit_checkpoint_threshold is not None
            and budget is not None
            and budget <= self.jit_checkpoint_threshold
        ):
            self._jit_fired = True  # collapsed before the comparator
        period_used = self._period_used
        stopping = stop_at_limit

        while True:
            # a malformed program fails as in the fast loop: a pc past
            # the end at once, and the end of the program or an unknown
            # opcode (costing 0 cycles) when executed
            if self.pc > end:
                raise EmulationError(f"no instruction at pc {self.pc}")
            if stats.instructions >= max_instructions:
                self._period_used = period_used
                if stopping:
                    return stats
                raise EmulationLimit(
                    f"exceeded {max_instructions} instructions "
                    f"({stats.summary()})"
                )
            instr, cost = None, 0
            if self.pc < end:
                instr = instrs[self.pc]
                try:
                    cost = costs.cost_of(instr)
                except KeyError:
                    pass

            if budget is not None and period_used + cost > budget:
                if pause_before_failure:
                    self._period_used = period_used
                    return stats
                # ---- power failure ---------------------------------------
                stats.power_failures += 1
                stats.reexecuted_cycles += self.region_cycles
                self._failures_since_checkpoint += 1
                if self._failures_since_checkpoint > 1000:
                    raise NoForwardProgress(
                        "the idempotent region does not fit the power-on "
                        f"window ({stats.summary()})"
                    )
                boot = costs.boot_cycles + costs.restore_cycles
                dead_periods = 0
                budget = next(on_iter)
                while budget < boot:
                    dead_periods += 1
                    stats.power_failures += 1
                    if dead_periods > 10_000:
                        raise NoForwardProgress(
                            "power-on periods shorter than boot + restore"
                        )
                    budget = next(on_iter)
                period_used = boot
                stats.cycles += boot
                stats.boot_cycles += boot
                self._jit_fired = (
                    self.jit_checkpoint_threshold is not None
                    and budget - boot <= self.jit_checkpoint_threshold
                )  # a too-short period collapses before the comparator
                self._restore_checkpoint()
                regs = self.regs
                if (stop_after_failures is not None
                        and stats.power_failures >= stop_after_failures):
                    self._period_used = period_used
                    return stats
                continue

            stats.instructions += 1
            if instr is None:
                raise EmulationError(f"cannot execute {_END_OF_PROGRAM!r}")
            taken_branch = False
            op = instr.opcode
            ops = instr.ops

            if op == "mov":
                regs[instr.dst.phys] = self._val(ops[0])
            elif op in _ALU:
                regs[instr.dst.phys] = _ALU[op](self._val(ops[0]), self._val(ops[1])) & M32
            elif op in ("lsl", "lsr", "asr"):
                amount = self._val(ops[1]) & 0xFF
                a = self._val(ops[0])
                if op == "lsl":
                    result = (a << amount) & M32 if amount < 32 else 0
                elif op == "lsr":
                    result = a >> amount if amount < 32 else 0
                else:
                    result = (_signed(a) >> amount) & M32 if amount < 32 else (
                        M32 if _signed(a) < 0 else 0
                    )
                regs[instr.dst.phys] = result
            elif op in ("udiv", "sdiv"):
                a, b = self._val(ops[0]), self._val(ops[1])
                if b == 0:
                    result = 0  # ARM semantics: division by zero yields 0
                elif op == "udiv":
                    result = a // b
                else:
                    sa, sb = _signed(a), _signed(b)
                    result = abs(sa) // abs(sb)
                    if (sa < 0) != (sb < 0):
                        result = -result
                regs[instr.dst.phys] = result & M32
            elif op in ("ldr", "ldrb", "ldrh"):
                size = {"ldr": 4, "ldrb": 1, "ldrh": 2}[op]
                addr = self._resolve(ops[0], ops[1])
                regs[instr.dst.phys] = self.read_mem(addr, size)
            elif op in ("str", "strb", "strh"):
                size = {"str": 4, "strb": 1, "strh": 2}[op]
                addr = self._resolve(ops[1], ops[2])
                self.write_mem(addr, size, self._val(ops[0]))
            elif op == "cmp":
                self.last_cmp = (self._val(ops[0]), self._val(ops[1]))
            elif op == "bcc":
                if _COND[instr.cond](*self.last_cmp):
                    self.pc = ops[0] - 1
                    taken_branch = True
            elif op == "b":
                self.pc = ops[0] - 1
                taken_branch = True
            elif op == "cmov":
                if _COND[instr.cond](*self.last_cmp):
                    regs[instr.dst.phys] = self._val(ops[0])
            elif op == "adr":
                regs[instr.dst.phys] = ops[0]
            elif op == "lea":
                regs[instr.dst.phys] = (regs["sp"] + ops[0].offset) & M32
            elif op == "bl":
                regs["lr"] = (self.pc + 1) & M32
                callee = self.program.function_of_index[ops[0]]
                stats.call_counts[callee] = stats.call_counts.get(callee, 0) + 1
                self.pc = ops[0] - 1
                taken_branch = True
            elif op == "bx_lr":
                target = regs["lr"]
                if target == self._halt_sentinel:
                    stats.cycles += cost
                    self.region_cycles += cost
                    stats.halted = True
                    stats.final_region_cycles = self.region_cycles
                    return stats
                self.pc = target - 1
                taken_branch = True
            elif op == "push":
                n = len(instr.regs)
                sp = (regs["sp"] - 4 * n) & M32
                regs["sp"] = sp
                for i, reg in enumerate(instr.regs):
                    self.write_mem(sp + 4 * i, 4, regs[reg])
            elif op == "pop":
                sp = regs["sp"]
                for i, reg in enumerate(instr.regs):
                    regs[reg] = self.read_mem(sp + 4 * i, 4)
                regs["sp"] = (sp + 4 * len(instr.regs)) & M32
            elif op == "addsp":
                regs["sp"] = (regs["sp"] + ops[0]) & M32
            elif op == "subsp":
                regs["sp"] = (regs["sp"] - ops[0]) & M32
            elif op == "sxtb":
                v = self._val(ops[0]) & 0xFF
                regs[instr.dst.phys] = (v - 256 if v >= 128 else v) & M32
            elif op == "uxtb":
                regs[instr.dst.phys] = self._val(ops[0]) & 0xFF
            elif op == "sxth":
                v = self._val(ops[0]) & 0xFFFF
                regs[instr.dst.phys] = (v - 65536 if v >= 32768 else v) & M32
            elif op == "uxth":
                regs[instr.dst.phys] = self._val(ops[0]) & 0xFFFF
            elif op == "checkpoint":
                self._take_checkpoint(instr.cause)
                if stats.checkpoints == stop_after_commits:
                    stopping = True
                    max_instructions = stats.instructions
            elif op == "cpsid":
                self.interrupts_enabled = False
                if self._trace is not None:
                    self._trace.record("mask", stats.cycles, self.pc)
            elif op == "cpsie":
                self.interrupts_enabled = True
                if self._trace is not None:
                    self._trace.record("unmask", stats.cycles, self.pc)
                if self.pending_interrupt:
                    self.pending_interrupt = False
                    self._fire_interrupt()
            elif op == "nop":
                pass
            else:
                raise EmulationError(f"cannot execute {instr!r}")

            if taken_branch:
                cost += costs.pipeline_refill
            stats.cycles += cost
            self.region_cycles += cost
            period_used += cost
            self.pc += 1

            # JIT checkpoint: the comparator sees the capacitor voltage
            # crossing the configured threshold; the device saves state
            # and sleeps out the remainder of the discharge.  A period
            # that started below the threshold collapsed too fast for the
            # comparator (handled at period start).
            if (
                self.jit_checkpoint_threshold is not None
                and budget is not None
                and not self._jit_fired
                and budget - period_used <= self.jit_checkpoint_threshold
            ):
                self._jit_fired = True
                jit_cost = costs.checkpoint_cycles
                stats.cycles += jit_cost
                self.region_cycles += jit_cost
                period_used += jit_cost
                self._take_checkpoint("jit", next_pc=self.pc)
                period_used = budget  # sleep until the brown-out

            # periodic timer interrupt
            if self._next_interrupt is not None and stats.cycles >= self._next_interrupt:
                self._next_interrupt += self.interrupt_interval
                if self.interrupts_enabled:
                    self._fire_interrupt()
                else:
                    self.pending_interrupt = True

    # -- post-run inspection ---------------------------------------------------
    def read_global(self, name: str, count: int = 1, size: int = 4, signed: bool = False):
        """Read a global scalar or array from memory after (or during) a
        run.  Returns an int for ``count == 1``, else a list."""
        addr = self.program.global_addr[name]
        values = []
        for i in range(count):
            raw = int.from_bytes(
                self.memory[addr + i * size : addr + (i + 1) * size], "little"
            )
            if signed and raw >= 1 << (8 * size - 1):
                raw -= 1 << (8 * size)
            values.append(raw)
        return values[0] if count == 1 else values
