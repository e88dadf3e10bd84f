"""Front-end tests: lexer tokens, parser AST, constant expressions, and
compile errors."""

import pytest

from repro.frontend import (
    CompileError,
    LexError,
    ParseError,
    compile_source,
    eval_const_expr,
    parse,
    tokenize,
)
from repro.frontend import c_ast as ast


class TestLexer:
    def kinds(self, src):
        return [(t.kind, t.text) for t in tokenize(src) if t.kind != "eof"]

    def test_identifiers_and_keywords(self):
        toks = self.kinds("int foo while whilex")
        assert toks == [
            ("keyword", "int"), ("ident", "foo"),
            ("keyword", "while"), ("ident", "whilex"),
        ]

    def test_decimal_and_hex(self):
        toks = tokenize("42 0x2A 0XFF")
        assert [t.value for t in toks[:-1]] == [42, 42, 255]

    def test_integer_suffixes(self):
        toks = tokenize("42u 42UL 1L")
        assert [t.value for t in toks[:-1]] == [42, 42, 1]

    def test_char_literals(self):
        toks = tokenize(r"'a' '\n' '\0' '\\'")
        assert [t.value for t in toks[:-1]] == [97, 10, 0, 92]

    def test_line_comment(self):
        assert self.kinds("a // b c\n d") == [("ident", "a"), ("ident", "d")]

    def test_block_comment(self):
        assert self.kinds("a /* b\nc */ d") == [("ident", "a"), ("ident", "d")]

    def test_multichar_operators(self):
        toks = self.kinds("a <<= b >>= c == != <= >= && || << >>")
        ops = [text for kind, text in toks if kind == "op"]
        assert ops == ["<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_preprocessor_rejected(self):
        with pytest.raises(LexError):
            tokenize("#include <stdio.h>\n")

    def test_unknown_char(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestParser:
    def test_global_scalar(self):
        prog = parse("int x = 5;")
        assert prog.globals[0].name == "x"
        assert eval_const_expr(prog.globals[0].init) == 5

    def test_global_array_with_init(self):
        prog = parse("unsigned int a[4] = { 1, 2, 3 };")
        g = prog.globals[0]
        assert g.ctype.is_array and g.ctype.count == 4
        assert [eval_const_expr(e) for e in g.init] == [1, 2, 3]

    def test_const_global(self):
        prog = parse("const int k = 7;")
        assert prog.globals[0].is_const

    def test_array_size_const_expr(self):
        prog = parse("int a[4 * 8];")
        assert prog.globals[0].ctype.count == 32

    def test_function_params(self):
        prog = parse("int f(int a, unsigned char *p, int arr[]) { return 0; }")
        params = prog.functions[0].params
        assert params[0].ctype == ast.INT
        assert params[1].ctype.is_pointer
        assert params[2].ctype.is_pointer  # array decays

    def test_void_params(self):
        prog = parse("int f(void) { return 1; }")
        assert prog.functions[0].params == []

    def test_declaration_only(self):
        prog = parse("int f(int x);")
        assert prog.functions[0].body is None

    def test_precedence(self):
        expr = parse("int x = 2 + 3 * 4;").globals[0].init
        assert eval_const_expr(expr) == 14

    def test_precedence_full(self):
        cases = {
            "1 | 2 ^ 3 & 4": 1 | 2 ^ 3 & 4,
            "10 - 2 - 3": 5,
            "1 << 3 + 1": 1 << 4,
            "7 & 3 == 3": 7 & (3 == 3),
            "1 + 2 < 4 == 1": ((1 + 2) < 4) == 1,
        }
        for text, expected in cases.items():
            expr = parse(f"int x = {text};").globals[0].init
            assert eval_const_expr(expr) == expected, text

    def test_ternary_const(self):
        expr = parse("int x = 1 ? 10 : 20;").globals[0].init
        assert eval_const_expr(expr) == 10

    def test_sizeof(self):
        expr = parse("int x = sizeof(unsigned int);").globals[0].init
        assert eval_const_expr(expr) == 4

    def test_unary_const(self):
        expr = parse("int x = -(3) + ~0 + !5;").globals[0].init
        assert eval_const_expr(expr) == -4

    def test_statement_kinds(self):
        prog = parse(
            """
            int f(void) {
                int i;
                if (1) { ; } else { ; }
                while (0) { break; }
                do { continue; } while (0);
                for (i = 0; i < 3; i++) { }
                return 0;
            }
            """
        )
        kinds = [type(s).__name__ for s in prog.functions[0].body.statements]
        assert kinds == ["VarDecl", "If", "While", "DoWhile", "For", "Return"]

    def test_multi_declarator(self):
        prog = parse("int f(void) { int a = 1, b = 2, *p; return a + b; }")
        decl = prog.functions[0].body.statements[0]
        names = [d[0] for d in decl.declarations]
        assert names == ["a", "b", "p"]
        assert decl.declarations[2][1].is_pointer

    def test_parse_error_message(self):
        with pytest.raises(ParseError):
            parse("int f( { }")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int f(void) { return 0 }")

    def test_side_effect_detection(self):
        prog = parse("int f(int g) { for (;g = g - 1;) { } return 0; }")
        loop = prog.functions[0].body.statements[0]
        assert ast.has_side_effects(loop.cond)
        pure = parse("int f(int g) { for (;g < 3;) { } return 0; }")
        assert not ast.has_side_effects(pure.functions[0].body.statements[0].cond)


class TestSemanticErrors:
    def test_unknown_identifier(self):
        with pytest.raises(CompileError, match="unknown identifier"):
            compile_source("int main(void) { return nope; }")

    def test_unknown_function(self):
        with pytest.raises(CompileError, match="undeclared"):
            compile_source("int main(void) { return f(); }")

    def test_arity_mismatch(self):
        with pytest.raises(CompileError, match="expects"):
            compile_source(
                "int f(int a) { return a; } int main(void) { return f(1, 2); }"
            )

    def test_too_many_params(self):
        with pytest.raises(CompileError, match="parameters"):
            compile_source(
                "int f(int a, int b, int c, int d, int e) { return a; }"
            )

    def test_redefinition(self):
        with pytest.raises(CompileError, match="redefinition"):
            compile_source("int main(void) { int x; int x; return 0; }")

    def test_break_outside_loop(self):
        with pytest.raises(CompileError, match="break"):
            compile_source("int main(void) { break; return 0; }")

    def test_continue_outside_loop(self):
        with pytest.raises(CompileError, match="continue"):
            compile_source("int main(void) { continue; return 0; }")

    def test_not_an_lvalue(self):
        with pytest.raises(CompileError, match="lvalue"):
            compile_source("int main(void) { 3 = 4; return 0; }")

    def test_subscript_non_pointer(self):
        with pytest.raises(CompileError, match="subscript"):
            compile_source("int main(void) { int x; return x[0]; }")

    def test_conflicting_redeclaration(self):
        with pytest.raises(CompileError, match="conflicting"):
            compile_source("int f(int a); int f(void) { return 0; }")

    def test_global_initializer_error_names_its_line(self):
        with pytest.raises(CompileError,
                           match=r"^line 2: unsupported global type i32\*$"):
            compile_source("int g;\nint *p = 0;\n"
                           "int main(void) { return 0; }")


#: programs nested ``n`` deep, one construct per recursive cycle of the
#: grammar
NESTED = {
    "parentheses": lambda n: "(" * n + "1" + ")" * n,
    "negations": lambda n: "-(" * n + "1" + ")" * n,
    "prefix operators": lambda n: "!" * n + "1",
    "assignments": lambda n: "g = " * n + "1",
    "conditionals": lambda n: "g ? 1 : " * n + "0",
    "subscripts": lambda n: "a[" * n + "0" + "]" * n,
}


def _program(shape, n):
    if shape == "blocks":
        return "int g; int main(void) " + "{" * n + "g = 1;" + "}" * n
    if shape == "unbraced ifs":
        return "int g; int main(void) { " + "if (g < 5) " * n + \
            "g = g + 1; return 0; }"
    return ("int g; int a[2]; int main(void) { g = "
            + NESTED[shape](n) + "; return 0; }")


class TestNestingBound:
    """The parser rejects nesting past ``MAX_NESTING`` with an error that
    names the line, and every later phase handles the deepest program it
    accepts."""

    @pytest.mark.parametrize("shape", sorted(NESTED) + ["blocks",
                                                        "unbraced ifs"])
    def test_deepest_accepted_program_compiles_and_runs(self, shape):
        from repro.core.lint import certify
        from repro.core.pipeline import build, environment
        from repro.emulator import Machine
        from repro.frontend import compile_sources
        from repro.frontend.parser import MAX_NESTING

        def accepted(n):
            try:
                parse(_program(shape, n))
            except ParseError as exc:
                assert str(exc) == (f"line 1: nesting deeper than "
                                    f"{MAX_NESTING} levels")
                return False
            return True

        deepest = 1
        while accepted(deepest + 1):
            deepest += 1
        assert deepest >= MAX_NESTING // 4
        cell = build(compile_sources([_program(shape, deepest)], "deep"),
                     environment("wario"))
        assert certify(cell).certified
        assert Machine(cell.encode()).run(max_instructions=100_000).halted
