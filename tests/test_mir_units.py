"""Unit tests for the machine IR data structures and related backend
plumbing."""

import pytest

from repro.backend.mir import (
    ALLOCATABLE,
    ARG_REGS,
    INVERT_COND,
    PREDICATE_TO_COND,
    MFunction,
    MInstr,
    VReg,
    mfunction_to_str,
)


class TestVReg:
    def test_virtual_by_default(self):
        reg = VReg("x")
        assert not reg.is_phys
        reg.phys = "r4"
        assert reg.is_phys

    def test_pinned(self):
        reg = VReg("r0", phys="r0")
        assert reg.is_phys
        assert repr(reg) == "%r0"

    def test_unique_ids(self):
        assert VReg().id != VReg().id


class TestMInstr:
    def test_uses_and_defs(self):
        a, b, d = VReg("a"), VReg("b"), VReg("d")
        instr = MInstr("add", d, [a, b])
        assert instr.defs() == [d]
        assert instr.uses() == [a, b]

    def test_cmov_reads_destination(self):
        d, s = VReg("d"), VReg("s")
        instr = MInstr("cmov", d, [s], cond="eq")
        assert d in instr.uses()

    def test_bl_args_are_uses(self):
        a = VReg("a")
        instr = MInstr("bl", None, ["callee"], args=[a])
        assert a in instr.uses()

    def test_branch_targets(self):
        assert MInstr("b", ops=["x"]).branch_targets() == ["x"]
        assert MInstr("bcc", ops=["y"], cond="eq").branch_targets() == ["y"]
        assert MInstr("mov", VReg(), [1]).branch_targets() == []

    def test_terminator_classification(self):
        assert MInstr("b", ops=["x"]).is_terminator
        assert MInstr("bx_lr").is_terminator
        assert not MInstr("bcc", ops=["x"], cond="eq").is_terminator

    def test_unknown_attr_rejected(self):
        with pytest.raises(TypeError):
            MInstr("mov", VReg(), [1], sparkle=True)

    def test_repr_readable(self):
        d = VReg("d")
        text = repr(MInstr("bcc", ops=["loop"], cond="ne"))
        assert "bcc.ne" in text
        assert "checkpoint" in repr(MInstr("checkpoint", cause="back-end-war"))


class TestMFunctionStructure:
    def _fn(self):
        fn = MFunction("f")
        a = fn.add_block("a")
        b = fn.add_block("b")
        c = fn.add_block("c")
        a.append(MInstr("bcc", ops=["c"], cond="eq"))
        a.append(MInstr("b", ops=["b"]))
        b.append(MInstr("bx_lr"))
        c.append(MInstr("b", ops=["b"]))
        return fn

    def test_successors(self):
        fn = self._fn()
        assert sorted(s.name for s in fn.block("a").successors()) == ["b", "c"]
        assert [s.name for s in fn.block("b").successors()] == []
        assert [s.name for s in fn.block("c").successors()] == ["b"]

    def test_duplicate_block_rejected(self):
        fn = self._fn()
        with pytest.raises(ValueError):
            fn.add_block("a")

    def test_slots(self):
        fn = self._fn()
        s1 = fn.new_slot(4, "spill")
        s2 = fn.new_slot(8, "local")
        assert s1.index == 0 and s2.index == 1
        assert s1 != s2
        assert s1 == s1

    def test_printer(self):
        text = mfunction_to_str(self._fn())
        assert "f:" in text and ".a:" in text and "bcc.eq" in text


class TestRegisterTables:
    def test_conventions(self):
        assert ALLOCATABLE == tuple(f"r{i}" for i in range(4, 12))
        assert ARG_REGS == ("r0", "r1", "r2", "r3")

    def test_condition_tables_consistent(self):
        for pred, cond in PREDICATE_TO_COND.items():
            assert cond in INVERT_COND
            assert INVERT_COND[INVERT_COND[cond]] == cond
