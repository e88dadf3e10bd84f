"""End-to-end language semantics: compile mini-C and execute on the
emulator, checking results against C semantics.  Every case exercises the
whole stack (front end, optimizer, back end, emulator)."""

import pytest

from helpers import compile_and_run, eval_expr, run_main

M32 = 0xFFFFFFFF


class TestArithmetic:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1 + 2", 3),
            ("10 - 3", 7),
            ("3 - 10", (3 - 10) & M32),
            ("6 * 7", 42),
            ("100 / 7", 14),
            ("100 % 7", 2),
            ("-100 / 7", (-14) & M32),
            ("-100 % 7", (-2) & M32),
            ("100 / -7", (-14) & M32),
            ("0xFFFFFFFF + 1", 0),
            ("2147483647 + 1", 0x80000000),
            ("65535 * 65535", (65535 * 65535) & M32),
        ],
    )
    def test_int_arith(self, expr, expected):
        assert eval_expr(expr) == expected

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("0xF0 | 0x0F", 0xFF),
            ("0xFF & 0x3C", 0x3C),
            ("0xFF ^ 0x0F", 0xF0),
            ("~0", M32),
            ("1 << 31", 0x80000000),
            # 0x80000000 does not fit in int, so it is unsigned in C and
            # shifts logically
            ("0x80000000 >> 31", 1),
            ("0xFF << 8", 0xFF00),
        ],
    )
    def test_bitwise(self, expr, expected):
        assert eval_expr(expr) == expected

    def test_unsigned_division(self):
        assert eval_expr("x / 2", "unsigned int x = 0xFFFFFFFE;") == 0x7FFFFFFF

    def test_signed_shift_right_is_arithmetic(self):
        assert eval_expr("x >> 31", "int x = -2147483647 - 1;") == M32

    def test_signed_division_of_negative_global(self):
        assert eval_expr("x / 2", "int x = -10;") == (-5) & M32

    def test_unsigned_modulo(self):
        assert eval_expr("x % 10", "unsigned int x = 0xFFFFFFFF;") == 0xFFFFFFFF % 10


class TestComparisons:
    @pytest.mark.parametrize(
        "decl,expr,expected",
        [
            ("int a = -1; int b = 1;", "a < b", 1),
            ("unsigned int a = 0xFFFFFFFF; unsigned int b = 1;", "a < b", 0),
            ("int a = 5; int b = 5;", "a <= b", 1),
            ("int a = 5; int b = 5;", "a == b", 1),
            ("int a = 5; int b = 6;", "a != b", 1),
            ("int a = -5; int b = -6;", "a > b", 1),
            ("unsigned int a = 0x80000000;", "a > 0", 1),
            ("int a = 0x80000000 - 1;", "a + 1 < 0", 1),  # overflow wraps
        ],
    )
    def test_compare(self, decl, expr, expected):
        assert eval_expr(expr, decl) == expected


class TestLogicalOps:
    def test_and_or_values(self):
        assert eval_expr("(3 && 5)") == 1
        assert eval_expr("(3 && 0)") == 0
        assert eval_expr("(0 || 0)") == 0
        assert eval_expr("(0 || 7)") == 1
        assert eval_expr("!7") == 0
        assert eval_expr("!0") == 1

    def test_short_circuit_skips_side_effect(self):
        src = """
        unsigned int result;
        unsigned int touched;
        int bump(void) { touched = touched + 1; return 1; }
        int main(void) {
            int a = 0;
            if (a && bump()) { result = 1; }
            if (a || bump()) { result = result + 2; }
            return 0;
        }
        """
        out = run_main(src, result=1, touched=1)
        assert out["touched"] == 1  # only the || arm evaluated bump()
        assert out["result"] == 2

    def test_ternary(self):
        assert eval_expr("5 > 3 ? 10 : 20") == 10
        assert eval_expr("5 < 3 ? 10 : 20") == 20

    def test_nested_ternary_side(self):
        src = """
        unsigned int result;
        int main(void) {
            int x = 7;
            result = x > 10 ? 1 : (x > 5 ? 2 : 3);
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 2


class TestControlFlow:
    def test_if_else_chain(self):
        src = """
        unsigned int result;
        int classify(int x) {
            if (x < 10) return 1;
            else if (x < 100) return 2;
            else return 3;
        }
        int main(void) {
            result = classify(5) * 100 + classify(50) * 10 + classify(500);
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 123

    def test_while_loop(self):
        src = """
        unsigned int result;
        int main(void) {
            int i = 0; unsigned int s = 0;
            while (i < 10) { s = s + i; i = i + 1; }
            result = s;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 45

    def test_do_while_runs_once(self):
        src = """
        unsigned int result;
        int main(void) {
            int i = 100;
            do { result = result + 1; i = i + 1; } while (i < 3);
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 1

    def test_for_with_break_continue(self):
        src = """
        unsigned int result;
        int main(void) {
            int i; unsigned int s = 0;
            for (i = 0; i < 100; i++) {
                if (i == 50) break;
                if (i % 2) continue;
                s = s + i;
            }
            result = s;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == sum(
            i for i in range(50) if i % 2 == 0
        )

    def test_nested_loops(self):
        src = """
        unsigned int result;
        int main(void) {
            int i, j; unsigned int s = 0;
            for (i = 0; i < 5; i++)
                for (j = 0; j < 5; j++)
                    s = s + i * j;
            result = s;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == sum(
            i * j for i in range(5) for j in range(5)
        )

    def test_infinite_loop_with_break(self):
        src = """
        unsigned int result;
        int main(void) {
            int i = 0;
            for (;;) { i++; if (i > 9) break; }
            result = (unsigned int)i;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 10

    def test_loop_with_side_effect_condition(self):
        src = """
        unsigned int result;
        int main(void) {
            int n = 5; unsigned int s = 0;
            while (n--) { s = s + 1; }
            result = s;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 5

    def test_comma_operator(self):
        src = """
        unsigned int result;
        int main(void) {
            int i, j;
            for (i = 0, j = 10; i < j; i++, j--) { }
            result = (unsigned int)i;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 5


class TestIncrementDecrement:
    def test_post_pre(self):
        src = """
        unsigned int r0; unsigned int r1; unsigned int r2; unsigned int r3;
        int main(void) {
            int x = 5;
            r0 = (unsigned int)x++;
            r1 = (unsigned int)x;
            r2 = (unsigned int)++x;
            r3 = (unsigned int)--x;
            return 0;
        }
        """
        out = run_main(src, r0=1, r1=1, r2=1, r3=1)
        assert (out["r0"], out["r1"], out["r2"], out["r3"]) == (5, 6, 7, 6)

    def test_compound_assignment(self):
        src = """
        unsigned int result;
        int main(void) {
            unsigned int x = 100;
            x += 5; x -= 1; x *= 2; x /= 4; x %= 31;
            x <<= 2; x >>= 1; x |= 0x10; x &= 0x7F; x ^= 3;
            result = x;
            return 0;
        }
        """
        x = 100
        x += 5; x -= 1; x *= 2; x //= 4; x %= 31
        x <<= 2; x >>= 1; x |= 0x10; x &= 0x7F; x ^= 3
        assert run_main(src, result=1)["result"] == x


class TestArraysAndPointers:
    def test_1d_array(self):
        src = """
        unsigned int a[8]; unsigned int result;
        int main(void) {
            int i;
            for (i = 0; i < 8; i++) a[i] = i * i;
            result = a[3] + a[7];
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 9 + 49

    def test_2d_array(self):
        src = """
        unsigned int m[4][6]; unsigned int result;
        int main(void) {
            int i, j;
            for (i = 0; i < 4; i++)
                for (j = 0; j < 6; j++)
                    m[i][j] = i * 100 + j;
            result = m[2][5] + m[3][0];
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 205 + 300

    def test_pointer_read_write(self):
        src = """
        unsigned int a[4]; unsigned int result;
        int main(void) {
            unsigned int *p = a;
            *p = 10;
            p[1] = 20;
            *(p + 2) = 30;
            result = a[0] + a[1] + a[2];
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 60

    def test_pointer_increment_walk(self):
        src = """
        unsigned int a[5]; unsigned int result;
        int main(void) {
            int i; unsigned int s = 0;
            unsigned int *p = a;
            for (i = 0; i < 5; i++) a[i] = i + 1;
            for (i = 0; i < 5; i++) { s = s + *p; p++; }
            result = s;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 15

    def test_pointer_difference(self):
        src = """
        unsigned int a[10]; unsigned int result;
        int main(void) {
            unsigned int *p = a + 7;
            unsigned int *q = a + 2;
            result = (unsigned int)(p - q);
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 5

    def test_address_of_local(self):
        src = """
        unsigned int result;
        void set(unsigned int *p) { *p = 99; }
        int main(void) {
            unsigned int x = 0;
            set(&x);
            result = x;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 99

    def test_address_of_array_element(self):
        src = """
        unsigned int a[4]; unsigned int result;
        void bump(unsigned int *p) { *p = *p + 1; }
        int main(void) {
            a[2] = 41;
            bump(&a[2]);
            result = a[2];
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 42

    def test_local_array(self):
        src = """
        unsigned int result;
        int main(void) {
            unsigned int tmp[4];
            int i;
            for (i = 0; i < 4; i++) tmp[i] = i * 3;
            result = tmp[0] + tmp[1] + tmp[2] + tmp[3];
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 18

    def test_local_array_initializer(self):
        src = """
        unsigned int result;
        int main(void) {
            unsigned int tmp[5] = { 10, 20, 30 };
            result = tmp[0] + tmp[1] + tmp[2] + tmp[3] + tmp[4];
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 60


class TestCharAndShort:
    def test_char_truncation(self):
        src = """
        unsigned char c; unsigned int result;
        int main(void) {
            c = (unsigned char)(300);
            result = c;
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 300 & 0xFF

    def test_signed_char_extension(self):
        src = """
        signed char c; unsigned int result;
        int main(void) {
            c = (signed char)(0xFF);
            result = (unsigned int)(c + 0);
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == M32  # -1

    def test_char_array_bytes(self):
        src = """
        unsigned char b[4]; unsigned int result;
        int main(void) {
            b[0] = 0x11; b[1] = 0x22; b[2] = 0x33; b[3] = 0x44;
            result = ((unsigned int)b[3] << 24) | ((unsigned int)b[2] << 16)
                   | ((unsigned int)b[1] << 8) | (unsigned int)b[0];
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == 0x44332211

    def test_short_roundtrip(self):
        src = """
        unsigned short h; short sh; unsigned int r0; unsigned int r1;
        int main(void) {
            h = (unsigned short)(0x12345);
            sh = (short)(0xFFFF);
            r0 = h;
            r1 = (unsigned int)(sh + 0);
            return 0;
        }
        """
        out = run_main(src, r0=1, r1=1)
        assert out["r0"] == 0x2345
        assert out["r1"] == M32  # -1

    def test_global_char_initializer(self):
        src = """
        unsigned char tbl[4] = { 'a', 'b', 200, 0 };
        unsigned int result;
        int main(void) { result = tbl[0] + tbl[1] + tbl[2]; return 0; }
        """
        assert run_main(src, result=1)["result"] == 97 + 98 + 200


class TestFunctions:
    def test_recursion(self):
        src = """
        unsigned int result;
        unsigned int fib(int n) {
            if (n < 2) return (unsigned int)n;
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) { result = fib(12); return 0; }
        """
        assert run_main(src, result=1)["result"] == 144

    def test_mutual_recursion(self):
        src = """
        unsigned int result;
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main(void) { result = (unsigned int)(is_even(10) * 10 + is_odd(7)); return 0; }
        """
        assert run_main(src, result=1)["result"] == 11

    def test_four_args(self):
        src = """
        unsigned int result;
        int combine(int a, int b, int c, int d) { return a * 1000 + b * 100 + c * 10 + d; }
        int main(void) { result = (unsigned int)combine(1, 2, 3, 4); return 0; }
        """
        assert run_main(src, result=1)["result"] == 1234

    def test_void_function(self):
        src = """
        unsigned int counter;
        void tick(void) { counter = counter + 1; }
        int main(void) { tick(); tick(); tick(); return 0; }
        """
        assert run_main(src, counter=1)["counter"] == 3

    def test_early_returns(self):
        src = """
        unsigned int result;
        int sign(int x) {
            if (x > 0) return 1;
            if (x < 0) return 0 - 1;
            return 0;
        }
        int main(void) {
            result = (unsigned int)(sign(5) + sign(-5) * 10 + sign(0) * 100);
            return 0;
        }
        """
        assert run_main(src, result=1)["result"] == (1 - 10) & M32

    def test_deep_call_chain(self):
        src = """
        unsigned int result;
        int f4(int x) { return x + 4; }
        int f3(int x) { return f4(x) + 3; }
        int f2(int x) { return f3(x) + 2; }
        int f1(int x) { return f2(x) + 1; }
        int main(void) { result = (unsigned int)f1(0); return 0; }
        """
        assert run_main(src, result=1)["result"] == 10

    def test_multiple_translation_units(self):
        from repro.frontend import compile_sources
        from repro.ir import verify_module
        from repro.core import build
        from repro import Machine

        unit1 = "unsigned int result; int helper(int x); int main(void) { result = (unsigned int)helper(20); return 0; }"
        unit2 = "int helper(int x) { return x * 2 + 2; }"
        module = compile_sources([unit1, unit2])
        verify_module(module)
        program = build(module, "plain").encode()
        machine = Machine(program, war_check=False)
        machine.run()
        assert machine.read_global("result") == 42


class TestSwitch:
    def test_basic_dispatch(self):
        src = """
        unsigned int r;
        unsigned int classify(int x) {
            switch (x) {
                case 1: return 10;
                case 2: return 20;
                default: return 99;
            }
        }
        int main(void) {
            r = classify(1) + classify(2) * 100 + classify(7) * 10000;
            return 0;
        }
        """
        assert run_main(src, r=1)["r"] == 10 + 2000 + 990000

    def test_fallthrough(self):
        src = """
        unsigned int r;
        int main(void) {
            int x = 1;
            switch (x) {
                case 1:
                    r = r + 1;
                case 2:
                    r = r + 10;
                    break;
                case 3:
                    r = r + 100;
            }
            return 0;
        }
        """
        assert run_main(src, r=1)["r"] == 11

    def test_no_default_no_match(self):
        src = """
        unsigned int r = 7;
        int main(void) {
            switch (42) { case 1: r = 0; break; }
            return 0;
        }
        """
        assert run_main(src, r=1)["r"] == 7

    def test_shared_labels(self):
        src = """
        unsigned int r;
        int main(void) {
            int i;
            for (i = 0; i < 6; i++) {
                switch (i) {
                    case 0:
                    case 1:
                    case 2:
                        r = r + 1;
                        break;
                    default:
                        r = r + 100;
                }
            }
            return 0;
        }
        """
        assert run_main(src, r=1)["r"] == 3 + 300

    def test_break_in_switch_inside_loop(self):
        src = """
        unsigned int r;
        int main(void) {
            int i;
            for (i = 0; i < 10; i++) {
                switch (i & 1) {
                    case 0: r = r + 1; break;
                    default: r = r + 10; break;
                }
                if (i == 5) break;   /* loop break, after the switch */
            }
            return 0;
        }
        """
        # iterations 0..5 execute: evens 0,2,4 (+1 each), odds 1,3,5 (+10)
        assert run_main(src, r=1)["r"] == 3 + 30

    def test_continue_inside_switch_targets_loop(self):
        src = """
        unsigned int r;
        int main(void) {
            int i;
            for (i = 0; i < 8; i++) {
                switch (i & 3) {
                    case 0: continue;
                    default: r = r + 1; break;
                }
                r = r + 100;
            }
            return 0;
        }
        """
        # i%4==0 (i=0,4): skip entirely; others: +1 +100
        assert run_main(src, r=1)["r"] == 6 * 101

    def test_duplicate_case_rejected(self):
        import pytest
        from repro.frontend import ParseError, compile_source

        with pytest.raises(ParseError, match="duplicate case"):
            compile_source(
                "int main(void) { switch (1) { case 1: break; case 1: break; } return 0; }"
            )

    def test_switch_instrumented(self):
        src = """
        unsigned int counts[3];
        int main(void) {
            int i;
            for (i = 0; i < 30; i++) {
                switch (i % 3) {
                    case 0: counts[0] = counts[0] + 1; break;
                    case 1: counts[1] = counts[1] + 1; break;
                    default: counts[2] = counts[2] + 1; break;
                }
            }
            return 0;
        }
        """
        from helpers import compile_and_run

        machine = compile_and_run(src, env="wario", war_check=True)
        assert machine.read_global("counts", 3) == [10, 10, 10]
        assert machine.war.clean
