"""Recursive-descent parser for the mini-C dialect.

Produces the AST of :mod:`repro.frontend.c_ast`.  Supported subset:
global scalars/arrays (with initializers), functions, ``if``/``while``/
``do``/``for``/``switch`` (with fallthrough)/``break``/``continue``/
``return``, full C expression grammar over integers and pointers
(including ``?:``, compound assignment, ``++``/``--``, casts and
``sizeof``), 1-D and 2-D arrays.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import c_ast as ast
from .c_ast import CType
from .lexer import Token, tokenize


class ParseError(Exception):
    pass


#: The deepest nesting a program may use: how many statements, assignment
#: expressions, unary expressions and brace initializers may be open at
#: once (a parenthesised operand opens two).  Every recursive cycle of the
#: grammar passes through one of them, so the bound keeps this parser and
#: each later pass over the syntax tree inside Python's recursion limit.
MAX_NESTING = 128


def _nested(parse):
    """Count one nesting level while ``parse`` runs, and reject the
    program with a located :class:`ParseError` past :data:`MAX_NESTING`."""

    def parse_nested(self, *args):
        if self.depth == MAX_NESTING:
            raise ParseError(f"line {self.cur.line}: nesting deeper than "
                             f"{MAX_NESTING} levels")
        self.depth += 1
        node = parse(self, *args)
        self.depth -= 1  # a ParseError ends the parse: no unwinding
        return node

    return parse_nested


#: binary operator precedence (higher binds tighter)
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<source>"):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        #: how many nested constructs are open (see :data:`MAX_NESTING`)
        self.depth = 0

    # -- token helpers ---------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    def at_op(self, text: str) -> bool:
        return self.at("op", text)

    def accept_op(self, text: str) -> bool:
        if self.at_op(text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            self.error(f"expected {text or kind}, found {self.cur.text!r}")
        return self.advance()

    def expect_op(self, text: str) -> Token:
        return self.expect("op", text)

    def error(self, msg: str):
        raise ParseError(f"{self.filename}:{self.cur.line}: {msg}")

    # -- types -------------------------------------------------------------
    _TYPE_STARTERS = {
        "int", "char", "short", "long", "void", "unsigned", "signed", "const",
        "static", "uint8_t", "uint16_t", "uint32_t", "int8_t", "int16_t",
        "int32_t",
    }

    def at_type(self) -> bool:
        return self.cur.kind == "keyword" and self.cur.text in self._TYPE_STARTERS

    def parse_base_type(self) -> Tuple[CType, bool]:
        """Parse the type-specifier part; returns (type, is_const)."""
        is_const = False
        signedness: Optional[bool] = None
        base: Optional[str] = None
        fixed: Optional[CType] = None
        while self.cur.kind == "keyword" and self.cur.text in self._TYPE_STARTERS:
            text = self.advance().text
            if text == "const":
                is_const = True
            elif text == "static":
                pass  # single translation unit: static is a no-op
            elif text == "unsigned":
                signedness = False
            elif text == "signed":
                signedness = True
            elif text in ("int", "char", "short", "long", "void"):
                if base is not None and not (base == "long" and text == "int"):
                    self.error(f"unexpected type keyword {text!r}")
                if base != "long" or text != "int":
                    base = text
            else:
                fixed = {
                    "uint8_t": ast.UCHAR, "int8_t": ast.SCHAR,
                    "uint16_t": ast.USHORT, "int16_t": ast.SHORT,
                    "uint32_t": ast.UINT, "int32_t": ast.INT,
                }[text]
        if fixed is not None:
            ctype = fixed
        elif base == "void":
            ctype = ast.CVOID
        elif base == "char":
            if signedness is None:
                ctype = ast.CHAR           # plain char: unsigned (ARM EABI)
            else:
                ctype = CType("int", 8, signedness)
        elif base == "short":
            ctype = CType("int", 16, signedness if signedness is not None else True)
        elif base in ("int", "long", None):
            if base is None and signedness is None:
                self.error("expected a type")
            ctype = CType("int", 32, signedness if signedness is not None else True)
        else:
            self.error(f"unsupported type {base!r}")
        while self.accept_op("*"):
            ctype = ast.ptr(ctype)
        return ctype, is_const

    def parse_type_name(self) -> CType:
        """A type inside a cast or sizeof: base type plus '*'s."""
        ctype, _ = self.parse_base_type()
        return ctype

    # -- program ------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self.at("eof"):
            self.parse_top_level(program)
        return program

    def parse_top_level(self, program: ast.Program) -> None:
        line = self.cur.line
        ctype, is_const = self.parse_base_type()
        name = self.expect("ident").text
        if self.at_op("("):
            program.functions.append(self.parse_function(name, ctype, line))
            return
        # global variable(s)
        while True:
            var_type = ctype
            dims: List[int] = []
            while self.accept_op("["):
                dims.append(self.parse_const_expr_value())
                self.expect_op("]")
            for dim in reversed(dims):
                var_type = ast.array(var_type, dim)
            init = None
            if self.accept_op("="):
                init = self.parse_initializer()
            program.globals.append(
                ast.GlobalVar(name, var_type, init, is_const, line)
            )
            if self.accept_op(","):
                name = self.expect("ident").text
                continue
            break
        self.expect_op(";")

    @_nested
    def parse_initializer(self):
        if self.accept_op("{"):
            items = []
            if not self.at_op("}"):
                while True:
                    if self.at_op("{"):
                        items.append(self.parse_initializer())
                    else:
                        items.append(self.parse_assignment())
                    if not self.accept_op(","):
                        break
                    if self.at_op("}"):
                        break  # trailing comma
            self.expect_op("}")
            return items
        return self.parse_assignment()

    def parse_function(self, name: str, return_type: CType, line: int) -> ast.FuncDef:
        self.expect_op("(")
        params: List[ast.Param] = []
        if self.at("keyword", "void") and self.peek().text == ")":
            self.advance()
        elif not self.at_op(")"):
            while True:
                ptype, _ = self.parse_base_type()
                pname = self.expect("ident").text
                if self.accept_op("["):
                    # array parameter decays to pointer
                    if not self.at_op("]"):
                        self.parse_const_expr_value()
                    self.expect_op("]")
                    ptype = ast.ptr(ptype)
                params.append(ast.Param(pname, ptype))
                if not self.accept_op(","):
                    break
        self.expect_op(")")
        if self.accept_op(";"):
            return ast.FuncDef(name, return_type, params, None, line)
        body = self.parse_block()
        return ast.FuncDef(name, return_type, params, body, line)

    # -- statements ------------------------------------------------------------
    def parse_block(self) -> ast.Block:
        line = self.cur.line
        self.expect_op("{")
        statements: List[ast.Stmt] = []
        while not self.at_op("}"):
            statements.append(self.parse_statement())
        self.expect_op("}")
        return ast.Block(line=line, statements=statements)

    @_nested
    def parse_statement(self) -> ast.Stmt:
        line = self.cur.line
        if self.at_op("{"):
            return self.parse_block()
        if self.at_type():
            return self.parse_var_decl()
        if self.at("keyword", "if"):
            self.advance()
            self.expect_op("(")
            cond = self.parse_expression()
            self.expect_op(")")
            then = self.parse_statement()
            other = None
            if self.at("keyword", "else"):
                self.advance()
                other = self.parse_statement()
            return ast.If(line=line, cond=cond, then=then, other=other)
        if self.at("keyword", "while"):
            self.advance()
            self.expect_op("(")
            cond = self.parse_expression()
            self.expect_op(")")
            body = self.parse_statement()
            return ast.While(line=line, cond=cond, body=body)
        if self.at("keyword", "do"):
            self.advance()
            body = self.parse_statement()
            self.expect("keyword", "while")
            self.expect_op("(")
            cond = self.parse_expression()
            self.expect_op(")")
            self.expect_op(";")
            return ast.DoWhile(line=line, body=body, cond=cond)
        if self.at("keyword", "for"):
            self.advance()
            self.expect_op("(")
            init: Optional[ast.Stmt] = None
            if not self.at_op(";"):
                if self.at_type():
                    init = self.parse_var_decl()
                else:
                    init = ast.ExprStmt(line=line, expr=self.parse_expression())
                    self.expect_op(";")
            else:
                self.expect_op(";")
            cond = None
            if not self.at_op(";"):
                cond = self.parse_expression()
            self.expect_op(";")
            step = None
            if not self.at_op(")"):
                step = self.parse_expression()
            self.expect_op(")")
            body = self.parse_statement()
            return ast.For(line=line, init=init, cond=cond, step=step, body=body)
        if self.at("keyword", "switch"):
            return self.parse_switch()
        if self.at("keyword", "return"):
            self.advance()
            value = None
            if not self.at_op(";"):
                value = self.parse_expression()
            self.expect_op(";")
            return ast.Return(line=line, value=value)
        if self.at("keyword", "break"):
            self.advance()
            self.expect_op(";")
            return ast.Break(line=line)
        if self.at("keyword", "continue"):
            self.advance()
            self.expect_op(";")
            return ast.Continue(line=line)
        if self.accept_op(";"):
            return ast.Empty(line=line)
        expr = self.parse_expression()
        self.expect_op(";")
        return ast.ExprStmt(line=line, expr=expr)

    def parse_switch(self) -> ast.Switch:
        line = self.cur.line
        self.expect("keyword", "switch")
        self.expect_op("(")
        scrutinee = self.parse_expression()
        self.expect_op(")")
        self.expect_op("{")
        cases: List[ast.SwitchCase] = []
        current: Optional[ast.SwitchCase] = None
        seen_default = False
        while not self.at_op("}"):
            if self.at("keyword", "case"):
                self.advance()
                value = self.parse_const_expr_value()
                self.expect_op(":")
                current = ast.SwitchCase(value=value)
                cases.append(current)
                continue
            if self.at("keyword", "default"):
                if seen_default:
                    self.error("duplicate default label")
                seen_default = True
                self.advance()
                self.expect_op(":")
                current = ast.SwitchCase(value=None)
                cases.append(current)
                continue
            if current is None:
                self.error("statement before the first case label")
            current.body.append(self.parse_statement())
        self.expect_op("}")
        values = [c.value for c in cases if c.value is not None]
        if len(values) != len(set(values)):
            self.error("duplicate case value")
        return ast.Switch(line=line, scrutinee=scrutinee, cases=cases)

    def parse_var_decl(self) -> ast.VarDecl:
        line = self.cur.line
        ctype, _ = self.parse_base_type()
        base_no_ptr = ctype
        decl = ast.VarDecl(line=line)
        while True:
            var_type = ctype
            name = self.expect("ident").text
            dims: List[int] = []
            while self.accept_op("["):
                dims.append(self.parse_const_expr_value())
                self.expect_op("]")
            for dim in reversed(dims):
                var_type = ast.array(var_type, dim)
            init = None
            if self.accept_op("="):
                if self.at_op("{"):
                    decl.array_inits[name] = self.parse_initializer()
                else:
                    init = self.parse_assignment()
            decl.declarations.append((name, var_type, init))
            if not self.accept_op(","):
                break
            # subsequent declarators share the base type, with fresh '*'s
            ctype = base_no_ptr
            while self.accept_op("*"):
                ctype = ast.ptr(ctype)
        self.expect_op(";")
        return decl

    # -- expressions ---------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment()
        while self.accept_op(","):
            right = self.parse_assignment()
            expr = ast.Binary(line=expr.line, op=",", left=expr, right=right)
        return expr

    @_nested
    def parse_assignment(self) -> ast.Expr:
        left = self.parse_ternary()
        if self.cur.kind == "op" and self.cur.text in _ASSIGN_OPS:
            op = self.advance().text
            value = self.parse_assignment()
            return ast.Assign(line=left.line, op=op, target=left, value=value)
        return left

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(1)
        if self.accept_op("?"):
            then = self.parse_assignment()
            self.expect_op(":")
            other = self.parse_assignment()
            return ast.Ternary(line=cond.line, cond=cond, then=then, other=other)
        return cond

    def parse_binary(self, min_prec: int) -> ast.Expr:
        left = self.parse_unary()
        while (
            self.cur.kind == "op"
            and self.cur.text in _PRECEDENCE
            and _PRECEDENCE[self.cur.text] >= min_prec
        ):
            op = self.advance().text
            right = self.parse_binary(_PRECEDENCE[op] + 1)
            left = ast.Binary(line=left.line, op=op, left=left, right=right)
        return left

    @_nested
    def parse_unary(self) -> ast.Expr:
        line = self.cur.line
        if self.accept_op("-"):
            return ast.Unary(line=line, op="-", operand=self.parse_unary())
        if self.accept_op("+"):
            return self.parse_unary()
        if self.accept_op("~"):
            return ast.Unary(line=line, op="~", operand=self.parse_unary())
        if self.accept_op("!"):
            return ast.Unary(line=line, op="!", operand=self.parse_unary())
        if self.accept_op("++"):
            return ast.Unary(line=line, op="++", operand=self.parse_unary())
        if self.accept_op("--"):
            return ast.Unary(line=line, op="--", operand=self.parse_unary())
        if self.accept_op("*"):
            return ast.Deref(line=line, operand=self.parse_unary())
        if self.accept_op("&"):
            return ast.AddrOf(line=line, operand=self.parse_unary())
        if self.at("keyword", "sizeof"):
            self.advance()
            self.expect_op("(")
            if self.at_type():
                ctype = self.parse_type_name()
            else:
                self.error("sizeof only supports type names")
            self.expect_op(")")
            return ast.SizeofExpr(line=line, ctype=ctype)
        # cast: '(' type-name ')' unary
        if self.at_op("(") and self.peek().kind == "keyword" and self.peek().text in self._TYPE_STARTERS:
            self.expect_op("(")
            ctype = self.parse_type_name()
            self.expect_op(")")
            return ast.CastExpr(line=line, ctype=ctype, operand=self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.accept_op("["):
                index = self.parse_expression()
                self.expect_op("]")
                expr = ast.Index(line=expr.line, base=expr, index=index)
            elif self.at_op("(") and isinstance(expr, ast.Ident):
                self.advance()
                args: List[ast.Expr] = []
                if not self.at_op(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept_op(","):
                            break
                self.expect_op(")")
                expr = ast.CallExpr(line=expr.line, name=expr.name, args=args)
            elif self.accept_op("++"):
                expr = ast.PostIncDec(line=expr.line, op="++", operand=expr)
            elif self.accept_op("--"):
                expr = ast.PostIncDec(line=expr.line, op="--", operand=expr)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        line = self.cur.line
        if self.at("num"):
            tok = self.advance()
            return ast.Num(line=line, value=tok.value)
        if self.at("ident"):
            return ast.Ident(line=line, name=self.advance().text)
        if self.accept_op("("):
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        self.error(f"unexpected token {self.cur.text!r}")

    # -- constant expressions --------------------------------------------------------
    def parse_const_expr_value(self) -> int:
        expr = self.parse_ternary()
        return eval_const_expr(expr)


def eval_const_expr(expr: ast.Expr) -> int:
    """Fold a compile-time constant expression (array sizes, global inits)."""
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Unary):
        v = eval_const_expr(expr.operand)
        return {"-": -v, "~": ~v, "!": int(not v)}[expr.op]
    if isinstance(expr, ast.Binary):
        lhs = eval_const_expr(expr.left)
        rhs = eval_const_expr(expr.right)
        ops = {
            "+": lambda a, b: a + b, "-": lambda a, b: a - b,
            "*": lambda a, b: a * b, "/": lambda a, b: a // b if b else 0,
            "%": lambda a, b: a % b if b else 0,
            "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
            "&": lambda a, b: a & b, "|": lambda a, b: a | b,
            "^": lambda a, b: a ^ b,
            "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
            "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
            "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
            "&&": lambda a, b: int(bool(a) and bool(b)),
            "||": lambda a, b: int(bool(a) or bool(b)),
        }
        return ops[expr.op](lhs, rhs)
    if isinstance(expr, ast.SizeofExpr):
        return expr.ctype.size
    if isinstance(expr, ast.CastExpr):
        return eval_const_expr(expr.operand)
    if isinstance(expr, ast.Ternary):
        return (
            eval_const_expr(expr.then)
            if eval_const_expr(expr.cond)
            else eval_const_expr(expr.other)
        )
    raise ParseError(f"not a constant expression: {expr!r}")


def parse(source: str, filename: str = "<source>") -> ast.Program:
    return Parser(tokenize(source, filename), filename).parse_program()
