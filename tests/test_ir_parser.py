"""Textual IR parser tests: hand-written fixtures and full round-trips
through the printer."""

import pytest

from repro import Machine
from repro.core import build
from repro.frontend import compile_source
from repro.ir import module_to_str, verify_module
from repro.ir.parser import IRParseError, parse_module, parse_type
from repro.ir.types import I8, I32, ArrayType, PointerType
from repro.transforms import optimize_module


class TestParseType:
    def test_scalars(self):
        assert parse_type("i32") == I32
        assert parse_type("i8") == I8

    def test_pointers_and_arrays(self):
        assert parse_type("i32*") == PointerType(I32)
        assert parse_type("[4 x i8]") == ArrayType(I8, 4)
        assert parse_type("[2 x [3 x i32]]*") == PointerType(
            ArrayType(ArrayType(I32, 3), 2)
        )

    def test_unknown_rejected(self):
        with pytest.raises(IRParseError):
            parse_type("f64")


HAND_WRITTEN = """
@g = global i32 5
@a = global [4 x i32] [1, 2, 3, 4]
define i32 @main() {
entry:
  %x = load i32, @g
  %p = gep @a, 2
  %y = load i32, %p
  %sum = add %x, %y
  store %sum, @g
  ret 0
}
"""


class TestHandWrittenIR:
    def test_parses_and_verifies(self):
        module = parse_module(HAND_WRITTEN)
        verify_module(module)
        assert set(module.globals) == {"g", "a"}

    def test_executes(self):
        module = parse_module(HAND_WRITTEN)
        program = build(module, "plain").encode()
        machine = Machine(program, war_check=False)
        machine.run()
        assert machine.read_global("g") == 5 + 3

    def test_instrumented_execution(self):
        module = parse_module(HAND_WRITTEN)
        program = build(module, "ratchet").encode()
        machine = Machine(program, war_check=True)
        machine.run()
        assert machine.read_global("g") == 8
        assert machine.war.clean

    def test_loop_with_phi(self):
        text = """
        @out = global i32 0
        define i32 @main() {
        entry:
          br label %loop
        loop:
          %i = phi i32 [0, %entry], [%inext, %loop]
          %acc = phi i32 [0, %entry], [%accnext, %loop]
          %accnext = add %acc, %i
          %inext = add %i, 1
          %cond = icmp slt %inext, 10
          br %cond, label %loop, label %done
        done:
          store %accnext, @out
          ret 0
        }
        """
        module = parse_module(text)
        verify_module(module)
        program = build(module, "plain").encode()
        machine = Machine(program)
        machine.run()
        assert machine.read_global("out") == sum(range(10))

    def test_error_on_unknown_value(self):
        with pytest.raises(IRParseError, match="undefined value"):
            parse_module(
                """
                define i32 @main() {
                entry:
                  %x = add %nope, 1
                  ret %x
                }
                """
            )

    def test_error_on_bad_instruction(self):
        with pytest.raises(IRParseError):
            parse_module(
                """
                define i32 @main() {
                entry:
                  launch_missiles
                }
                """
            )


ROUND_TRIP_SOURCES = [
    # arithmetic + control flow
    """
    unsigned int out;
    int main(void) {
        int i; unsigned int s = 0;
        for (i = 0; i < 20; i++) { if (i & 1) { s += (unsigned int)i; } }
        out = s;
        return 0;
    }
    """,
    # arrays, calls, select-style code
    """
    unsigned int a[16]; unsigned int out;
    unsigned int pick(unsigned int x, unsigned int y) { return x > y ? x : y; }
    int main(void) {
        int i;
        for (i = 0; i < 16; i++) { a[i] = (unsigned int)(i * 13 % 7); }
        out = 0;
        for (i = 0; i < 16; i++) { out = pick(out, a[i]); }
        return 0;
    }
    """,
    # an integer cast to a pointer: an inttoptr
    """
    unsigned int b[4]; unsigned int out;
    void poke(unsigned int addr, unsigned int v) { unsigned int *q = (unsigned int *)addr; *q = v; }
    int main(void) { poke((unsigned int)&b[1], 7u); out = b[1]; return 0; }
    """,
]


@pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
def test_print_parse_round_trip(source):
    original = compile_source(source)
    optimize_module(original)
    text = module_to_str(original)
    reparsed = parse_module(text)
    verify_module(reparsed)
    # both modules must behave identically
    results = []
    for module in (original, reparsed):
        program = build(module, "plain").encode()
        machine = Machine(program, war_check=False)
        machine.run()
        results.append(machine.read_global("out"))
    assert results[0] == results[1]
    # and the reparsed module prints back to the same text (fixpoint)
    assert module_to_str(parse_module(text)) == text
