"""Back-end tests: instruction selection, register allocation, spill
checkpoints, frame lowering, and encoding."""

import pytest

from helpers import compile_and_run

from repro.backend import Program, encode_module, lower_module
from repro.backend.encoder import GLOBALS_BASE, encode_size
from repro.backend.mir import ALLOCATABLE, MInstr, VReg
from repro.backend.regalloc import CALLER_POOL
from repro.backend.spill_checkpoints import find_spill_wars
from repro.core.pipeline import environment, run_middle_end
from repro.frontend import compile_source


def _machine_module(src, env="plain"):
    m = compile_source(src)
    config = environment(env)
    run_middle_end(m, config)
    return lower_module(
        m,
        spill_checkpoint_mode=config.spill_checkpoint_mode if config.instrument else None,
        epilogue_style=config.epilogue_style,
        entry_checkpoints=config.instrument,
    )


SRC_CALLS = """
unsigned int g;
int helper(int a, int b, int c) {
    int i; int acc = a;
    for (i = 0; i < 50; i++) { acc = acc * 3 + b; acc = acc ^ c; acc = acc + (acc >> 3); }
    return acc;
}
int main(void) { g = (unsigned int)helper(1, 2, 3); return 0; }
"""


class TestRegisterAllocation:
    def test_all_operands_physical(self):
        mm = _machine_module(SRC_CALLS)
        for fn in mm.functions.values():
            for instr in fn.instructions():
                for op in instr.ops:
                    if isinstance(op, VReg):
                        assert op.is_phys, f"{fn.name}: {instr!r}"
                if instr.dst is not None:
                    assert instr.dst.is_phys

    def test_callee_saved_pushed(self):
        mm = _machine_module(SRC_CALLS)
        helper = mm.functions["helper"]
        used = set()
        for instr in helper.instructions():
            for reg in instr.uses() + instr.defs():
                if reg.phys in ALLOCATABLE:
                    used.add(reg.phys)
        saved = set(helper.saved_low + helper.saved_high) - {"lr"}
        assert used <= saved

    def test_caller_saved_not_live_across_calls(self):
        # a value used after the helper() call must not sit in r2/r3
        src = """
        unsigned int g;
        int id(int x) { int i; for (i=0;i<60;i++) { x = x + 1; x = x - 1; } return x; }
        int main(void) {
            int keep = 123;
            int got = id(7);
            g = (unsigned int)(keep + got);
            return 0;
        }
        """
        machine = compile_and_run(src)
        assert machine.read_global("g") == 130

    def test_spill_pressure_program_correct(self):
        # deliberately exceed 10 live values
        decls = "".join(f"unsigned int g{i};" for i in range(16))
        body = "".join(f"unsigned int v{i} = g{i} + {i};" for i in range(16))
        uses = " + ".join(f"v{i}" for i in range(16))
        src = f"""
        {decls}
        unsigned int total;
        int main(void) {{
            {body}
            total = {uses};
            return 0;
        }}
        """
        machine = compile_and_run(src)
        assert machine.read_global("total") == sum(range(16))


class TestSpillCheckpoints:
    def _pressure_loop(self):
        # enough live values inside a loop to force spill WARs
        lines = "\n".join(
            f"unsigned int v{i} = start + {i};" for i in range(14)
        )
        accum = " + ".join(f"v{i}" for i in range(14))
        rotate = "\n".join(
            f"v{i} = v{(i + 1) % 14} + {i};" for i in range(14)
        )
        return f"""
        unsigned int out;
        int main(void) {{
            unsigned int start = 3;
            int r;
            {lines}
            for (r = 0; r < 20; r++) {{
                {rotate}
            }}
            out = {accum};
            return 0;
        }}
        """

    def test_spill_wars_detected_and_resolved(self):
        src = self._pressure_loop()
        m = compile_source(src)
        config = environment("r-pdg")
        run_middle_end(m, config)
        from repro.backend.isel import InstructionSelector
        from repro.backend.peephole import eliminate_dead_defs
        from repro.backend.regalloc import allocate_registers
        from repro.backend.spill_checkpoints import insert_spill_checkpoints
        from repro.transforms.simplifycfg import simplify_cfg
        from repro.transforms.critedge import split_critical_edges
        f = m.main
        simplify_cfg(f)
        split_critical_edges(f)
        mfn = InstructionSelector(f).run()
        eliminate_dead_defs(mfn)
        allocate_registers(mfn)
        wars_before = find_spill_wars(mfn, calls_are_checkpoints=True)
        inserted = insert_spill_checkpoints(mfn, "hitting-set")
        wars_after = find_spill_wars(mfn, calls_are_checkpoints=True)
        if wars_before:
            assert inserted >= 1
        assert wars_after == []

    def test_hitting_set_not_worse_than_basic(self):
        src = self._pressure_loop()

        def count(mode):
            m = compile_source(src)
            config = environment("r-pdg")
            run_middle_end(m, config)
            from repro.backend.isel import InstructionSelector
            from repro.backend.peephole import eliminate_dead_defs
            from repro.backend.regalloc import allocate_registers
            from repro.backend.spill_checkpoints import insert_spill_checkpoints
            from repro.transforms.simplifycfg import simplify_cfg
            from repro.transforms.critedge import split_critical_edges
            f = m.main
            simplify_cfg(f)
            split_critical_edges(f)
            mfn = InstructionSelector(f).run()
            eliminate_dead_defs(mfn)
            allocate_registers(mfn)
            return insert_spill_checkpoints(mfn, mode)

        assert count("hitting-set") <= count("basic")

    def test_spilled_program_still_correct(self):
        src = self._pressure_loop()
        machine = compile_and_run(src, env="wario", war_check=True)
        assert machine.war.clean


class TestFrameLowering:
    def test_epilogue_checkpoint_counts(self):
        def exits(style_env):
            mm = _machine_module(SRC_CALLS, style_env)
            helper = mm.functions["helper"]
            return sum(
                1
                for i in helper.instructions()
                if i.opcode == "checkpoint" and i.cause == "function-exit"
            )

        assert exits("plain") == 0
        # Ratchet: one checkpoint per sp adjustment; WARio: exactly one
        assert exits("ratchet") >= 1
        assert exits("wario") == 1
        assert exits("ratchet") >= exits("wario")

    def test_wario_epilogue_masks_interrupts(self):
        mm = _machine_module(SRC_CALLS, "wario")
        helper = mm.functions["helper"]
        ops = [i.opcode for i in helper.instructions()]
        assert "cpsid" in ops and "cpsie" in ops

    def test_entry_checkpoint_only_when_instrumented(self):
        mm_plain = _machine_module(SRC_CALLS, "plain")
        mm_inst = _machine_module(SRC_CALLS, "ratchet")
        def entries(mm, name):
            return sum(
                1
                for i in mm.functions[name].instructions()
                if i.opcode == "checkpoint" and i.cause == "function-entry"
            )
        assert entries(mm_plain, "helper") == 0
        assert entries(mm_inst, "helper") == 1
        assert entries(mm_inst, "main") == 0  # main is the entry function


class TestEncoder:
    def test_layout_and_entry(self):
        mm = _machine_module(SRC_CALLS)
        program = encode_module(mm)
        assert program.entry == program.func_entry["main"] == 0
        assert program.global_addr["g"] >= GLOBALS_BASE
        assert program.text_size == sum(program.sizes) > 0

    def test_branches_resolved_to_indices(self):
        mm = _machine_module(SRC_CALLS)
        program = encode_module(mm)
        for instr in program.instrs:
            if instr.opcode in ("b", "bcc", "bl"):
                assert isinstance(instr.ops[0], int)
                assert 0 <= instr.ops[0] < len(program.instrs)

    def test_globals_initialized(self):
        src = """
        unsigned int magic = 0xCAFEBABE;
        unsigned char raw[3] = { 1, 2, 3 };
        int main(void) { return 0; }
        """
        m = compile_source(src)
        run_middle_end(m, environment("plain"))
        program = encode_module(lower_module(m))
        addr = program.global_addr["magic"]
        assert program.initial_memory[addr : addr + 4] == (0xCAFEBABE).to_bytes(4, "little")
        raw = program.global_addr["raw"]
        assert program.initial_memory[raw : raw + 3] == bytes([1, 2, 3])

    def test_size_model_covers_all_opcodes(self):
        mm = _machine_module(SRC_CALLS, "wario")
        program = encode_module(mm)
        for instr in program.instrs:
            assert encode_size(instr) in (2, 4, 8)

    def test_instrumented_text_larger(self):
        mm_plain = _machine_module(SRC_CALLS, "plain")
        mm_inst = _machine_module(SRC_CALLS, "ratchet")
        assert encode_module(mm_inst).text_size > encode_module(mm_plain).text_size

    def test_fallthrough_branches_removed(self):
        mm = _machine_module(SRC_CALLS)
        program = encode_module(mm)
        for idx, instr in enumerate(program.instrs):
            if instr.opcode == "b":
                assert instr.ops[0] != idx + 1, "fallthrough branch survived"
