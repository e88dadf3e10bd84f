"""AST -> IR lowering for the mini-C front end.

Loops are emitted *rotated* (guard + bottom-tested body) whenever the
condition is side-effect free, which is the shape -O3 would produce and
the shape WARio's Loop Write Clusterer targets (paper Figure 3).  Locals
are allocas; mem2reg promotes the scalars afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import (
    I8,
    I16,
    I32,
    VOID,
    ArrayType,
    Constant,
    FunctionType,
    IRBuilder,
    IntType,
    Module,
    PointerType,
    Type,
    Value,
)
from ..diagnostics import SourceLoc
from ..ir.instructions import ICmp
from . import c_ast as ast
from .c_ast import CType
from .parser import eval_const_expr, parse


class CompileError(Exception):
    pass


#: maximum register-passed arguments (r0-r3 on the target)
MAX_ARGS = 4


def _ir_type(ctype: CType) -> Type:
    if ctype.is_void:
        return VOID
    if ctype.is_integer:
        return {8: I8, 16: I16, 32: I32}[ctype.bits]
    if ctype.is_pointer:
        return PointerType(_ir_type(ctype.target))
    if ctype.is_array:
        return ArrayType(_ir_type(ctype.target), ctype.count)
    raise CompileError(f"cannot lower type {ctype}")


def _promote(ctype: CType) -> CType:
    """C integer promotion: sub-int types widen to (signed) int."""
    if ctype.is_integer and ctype.bits < 32:
        return ast.INT
    return ctype


def _common_type(a: CType, b: CType) -> CType:
    a, b = _promote(a), _promote(b)
    if a.is_pointer:
        return a
    if b.is_pointer:
        return b
    if not a.signed or not b.signed:
        return ast.UINT
    return ast.INT


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.vars: Dict[str, Tuple[Value, CType]] = {}

    def lookup(self, name: str) -> Optional[Tuple[Value, CType]]:
        scope = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None

    def define(self, name: str, value: Value, ctype: CType) -> None:
        if name in self.vars:
            raise CompileError(f"redefinition of {name!r}")
        self.vars[name] = (value, ctype)


class IRGenerator:
    """Lowers one parsed program into an IR module."""

    def __init__(self, program: ast.Program, module_name: str = "module"):
        self.program = program
        self.module = Module(module_name)
        self.file = module_name  # sources are in-memory; name the unit
        self.func_types: Dict[str, Tuple[CType, List[CType]]] = {}
        self.globals_scope = _Scope()
        # per-function state
        self.builder: Optional[IRBuilder] = None
        self.function = None
        self.entry_builder: Optional[IRBuilder] = None
        self.scope: Optional[_Scope] = None
        self.loop_stack: List[Tuple[object, object]] = []  # (break_bb, continue_bb)
        self.return_ctype: Optional[CType] = None

    # ------------------------------------------------------------------
    def generate(self) -> Module:
        for gv in self.program.globals:
            self._declare_global(gv)
        for fn in self.program.functions:
            self._declare_function(fn)
        for fn in self.program.functions:
            if fn.body is not None:
                self._define_function(fn)
        return self.module

    # -- declarations ----------------------------------------------------
    def _declare_global(self, gv: ast.GlobalVar) -> None:
        ir_type = _ir_type(gv.ctype)
        init = None
        if gv.init is not None:
            if isinstance(gv.init, list):
                init = [eval_const_expr(e) & 0xFFFFFFFF for e in _flatten(gv.init)]
            else:
                init = eval_const_expr(gv.init) & 0xFFFFFFFF
        try:
            value = self.module.add_global(gv.name, ir_type, init,
                                           gv.is_const)
        except (TypeError, ValueError) as exc:  # the IR refused it
            raise CompileError(f"line {gv.line}: {exc}") from None
        self.globals_scope.define(gv.name, value, gv.ctype)

    def _declare_function(self, fn: ast.FuncDef) -> None:
        if len(fn.params) > MAX_ARGS:
            raise CompileError(
                f"{fn.name}: more than {MAX_ARGS} parameters not supported "
                f"by the register-argument calling convention"
            )
        param_ctypes = [p.ctype.decay() for p in fn.params]
        if fn.name in self.func_types:
            declared = self.func_types[fn.name]
            if declared != (fn.return_type, param_ctypes):
                raise CompileError(f"conflicting declarations of {fn.name!r}")
            if fn.body is None or not self.module.functions[fn.name].is_declaration:
                if fn.body is not None:
                    raise CompileError(f"redefinition of {fn.name!r}")
                return
            # definition after declaration: replace below
            del self.module.functions[fn.name]
        self.func_types[fn.name] = (fn.return_type, param_ctypes)
        ftype = FunctionType(
            _ir_type(fn.return_type), [_ir_type(c) for c in param_ctypes]
        )
        self.module.add_function(fn.name, ftype, [p.name for p in fn.params])

    # -- function bodies ----------------------------------------------------
    def _define_function(self, fn: ast.FuncDef) -> None:
        self.function = self.module.get_function(fn.name)
        entry = self.function.add_block("entry")
        body_block = self.function.add_block("body")
        self.entry_builder = IRBuilder(entry)
        self.builder = IRBuilder(body_block)
        self.scope = _Scope(self.globals_scope)
        self.return_ctype = fn.return_type
        self.loop_stack = []
        # Mutable parameters: spill into allocas (mem2reg lifts them back).
        for param, arg in zip(fn.params, self.function.args):
            ctype = param.ctype.decay()
            slot = self.entry_builder.alloca(_ir_type(ctype), param.name)
            self.builder.store(arg, slot)
            self.scope.define(param.name, slot, ctype)
        self._gen_block(fn.body)
        self._terminate_open_block()
        # entry falls through to body
        self.entry_builder.br(body_block)

    def _terminate_open_block(self) -> None:
        block = self.builder.block
        if block.terminator is None:
            if self.return_ctype.is_void:
                self.builder.ret()
            else:
                self.builder.ret(self.builder.const(0))

    def _new_block(self, name: str):
        return self.function.add_block(name)

    def _seal_and_switch(self, block) -> None:
        self.builder.position_at_end(block)

    # -- statements -------------------------------------------------------------
    def _gen_block(self, block: ast.Block) -> None:
        self.scope = _Scope(self.scope)
        for stmt in block.statements:
            self._gen_stmt(stmt)
        self.scope = self.scope.parent

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        if stmt.line > 0:
            self.builder.loc = SourceLoc(stmt.line, self.file)
        if self.builder.block.terminator is not None:
            # dead code after break/continue/return: park in a fresh block
            self._seal_and_switch(self._new_block("dead"))
        if isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_expr(stmt.expr)
        elif isinstance(stmt, ast.VarDecl):
            self._gen_var_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._gen_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._gen_switch(stmt)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise CompileError("break outside of a loop")
            self.builder.br(self.loop_stack[-1][0])
        elif isinstance(stmt, ast.Continue):
            target = None
            for break_bb, continue_bb in reversed(self.loop_stack):
                if continue_bb is not None:
                    target = continue_bb
                    break
            if target is None:
                raise CompileError("continue outside of a loop")
            self.builder.br(target)
        elif isinstance(stmt, ast.Empty):
            pass
        else:
            raise CompileError(f"unsupported statement {stmt!r}")

    def _gen_var_decl(self, decl: ast.VarDecl) -> None:
        for name, ctype, init in decl.declarations:
            slot = self.entry_builder.alloca(_ir_type(ctype), name)
            self.scope.define(name, slot, ctype)
            if name in decl.array_inits:
                self._gen_array_init(slot, ctype, decl.array_inits[name])
            elif init is not None:
                value, vtype = self._gen_expr(init)
                self._gen_store(slot, ctype, value, vtype)

    def _gen_array_init(self, slot, ctype: CType, inits) -> None:
        if not ctype.is_array:
            raise CompileError("brace initializer on non-array")
        flat = _flatten(inits)
        elem = ctype.target
        while elem.is_array:
            elem = elem.target
        count = ctype.size // elem.size
        if len(flat) > count:
            raise CompileError("too many array initializers")
        # For multi-dimensional arrays we initialise through a flat view.
        for i, expr in enumerate(flat):
            value, vtype = self._gen_expr(expr)
            ptr = self.builder.gep(_flat_base(self.builder, slot), self.builder.const(i))
            self._gen_store(ptr, elem, value, vtype)
        for i in range(len(flat), count):
            ptr = self.builder.gep(_flat_base(self.builder, slot), self.builder.const(i))
            self._gen_store(ptr, elem, self.builder.const(0), ast.INT)

    def _gen_if(self, stmt: ast.If) -> None:
        cond = self._gen_condition(stmt.cond)
        then_bb = self._new_block("if.then")
        merge_bb = self._new_block("if.end")
        else_bb = self._new_block("if.else") if stmt.other is not None else merge_bb
        self.builder.cond_br(cond, then_bb, else_bb)
        self._seal_and_switch(then_bb)
        self._gen_stmt(stmt.then)
        if self.builder.block.terminator is None:
            self.builder.br(merge_bb)
        if stmt.other is not None:
            self._seal_and_switch(else_bb)
            self._gen_stmt(stmt.other)
            if self.builder.block.terminator is None:
                self.builder.br(merge_bb)
        self._seal_and_switch(merge_bb)

    def _gen_while(self, stmt: ast.While) -> None:
        if ast.has_side_effects(stmt.cond):
            self._gen_top_tested_loop(stmt.cond, stmt.body, step=None)
            return
        body_bb = self._new_block("while.body")
        latch_bb = self._new_block("while.latch")
        exit_bb = self._new_block("while.end")
        guard = self._gen_condition(stmt.cond)
        self.builder.cond_br(guard, body_bb, exit_bb)
        self._seal_and_switch(body_bb)
        self.loop_stack.append((exit_bb, latch_bb))
        self._gen_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(latch_bb)
        self._seal_and_switch(latch_bb)
        cond = self._gen_condition(stmt.cond)
        self.builder.cond_br(cond, body_bb, exit_bb)
        self._seal_and_switch(exit_bb)

    def _gen_do_while(self, stmt: ast.DoWhile) -> None:
        body_bb = self._new_block("do.body")
        latch_bb = self._new_block("do.latch")
        exit_bb = self._new_block("do.end")
        self.builder.br(body_bb)
        self._seal_and_switch(body_bb)
        self.loop_stack.append((exit_bb, latch_bb))
        self._gen_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(latch_bb)
        self._seal_and_switch(latch_bb)
        cond = self._gen_condition(stmt.cond)
        self.builder.cond_br(cond, body_bb, exit_bb)
        self._seal_and_switch(exit_bb)

    def _gen_for(self, stmt: ast.For) -> None:
        self.scope = _Scope(self.scope)
        if stmt.init is not None:
            self._gen_stmt(stmt.init)
        if stmt.cond is not None and ast.has_side_effects(stmt.cond):
            self._gen_top_tested_loop(stmt.cond, stmt.body, stmt.step)
            self.scope = self.scope.parent
            return
        body_bb = self._new_block("for.body")
        latch_bb = self._new_block("for.latch")
        exit_bb = self._new_block("for.end")
        if stmt.cond is not None:
            guard = self._gen_condition(stmt.cond)
            self.builder.cond_br(guard, body_bb, exit_bb)
        else:
            self.builder.br(body_bb)
        self._seal_and_switch(body_bb)
        self.loop_stack.append((exit_bb, latch_bb))
        self._gen_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(latch_bb)
        self._seal_and_switch(latch_bb)
        if stmt.step is not None:
            self._gen_expr(stmt.step)
        if stmt.cond is not None:
            cond = self._gen_condition(stmt.cond)
            self.builder.cond_br(cond, body_bb, exit_bb)
        else:
            self.builder.br(body_bb)
        self._seal_and_switch(exit_bb)
        self.scope = self.scope.parent

    def _gen_top_tested_loop(self, cond, body, step) -> None:
        """Fallback (non-rotated) loop for side-effecting conditions."""
        header_bb = self._new_block("loop.header")
        body_bb = self._new_block("loop.body")
        latch_bb = self._new_block("loop.latch")
        exit_bb = self._new_block("loop.end")
        self.builder.br(header_bb)
        self._seal_and_switch(header_bb)
        cond_val = self._gen_condition(cond)
        self.builder.cond_br(cond_val, body_bb, exit_bb)
        self._seal_and_switch(body_bb)
        self.loop_stack.append((exit_bb, latch_bb))
        self._gen_stmt(body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(latch_bb)
        self._seal_and_switch(latch_bb)
        if step is not None:
            self._gen_expr(step)
        self.builder.br(header_bb)
        self._seal_and_switch(exit_bb)

    def _gen_switch(self, stmt: ast.Switch) -> None:
        """Lower to a compare chain dispatching into per-case body blocks;
        bodies fall through to the next case as C requires, and ``break``
        exits the switch."""
        scrutinee, _ = self._gen_expr(stmt.scrutinee)
        exit_bb = self._new_block("switch.end")
        body_blocks = [self._new_block(f"switch.case{i}") for i in range(len(stmt.cases))]
        default_target = exit_bb
        for case, body_bb in zip(stmt.cases, body_blocks):
            if case.value is None:
                default_target = body_bb
        # dispatch chain
        for case, body_bb in zip(stmt.cases, body_blocks):
            if case.value is None:
                continue
            cmp = self.builder.icmp(
                "eq", scrutinee, self.builder.const(case.value & 0xFFFFFFFF)
            )
            next_test = self._new_block("switch.test")
            self.builder.cond_br(cmp, body_bb, next_test)
            self._seal_and_switch(next_test)
        self.builder.br(default_target)
        # bodies, falling through in declaration order
        self.loop_stack.append((exit_bb, None))
        for i, (case, body_bb) in enumerate(zip(stmt.cases, body_blocks)):
            self._seal_and_switch(body_bb)
            for inner in case.body:
                self._gen_stmt(inner)
            if self.builder.block.terminator is None:
                target = body_blocks[i + 1] if i + 1 < len(body_blocks) else exit_bb
                self.builder.br(target)
        self.loop_stack.pop()
        self._seal_and_switch(exit_bb)

    def _gen_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            if not self.return_ctype.is_void:
                raise CompileError("return without value in non-void function")
            self.builder.ret()
            return
        value, ctype = self._gen_expr(stmt.value)
        self.builder.ret(value)

    # -- expressions --------------------------------------------------------------
    def _gen_expr(self, expr: ast.Expr) -> Tuple[Value, CType]:
        if isinstance(expr, ast.Num):
            ctype = ast.INT if -(1 << 31) <= expr.value < (1 << 31) else ast.UINT
            return self.builder.const(expr.value & 0xFFFFFFFF), ctype
        if isinstance(expr, ast.Ident):
            found = self.scope.lookup(expr.name)
            if found is None:
                raise CompileError(f"line {expr.line}: unknown identifier {expr.name!r}")
            ptr, ctype = found
            if ctype.is_array:
                return self._decay(ptr), ast.ptr(ctype.target)
            return self._gen_load(ptr, ctype), ctype
        if isinstance(expr, ast.Index):
            ptr, elem = self._gen_lvalue(expr)
            if elem.is_array:
                return self._decay(ptr), ast.ptr(elem.target)
            return self._gen_load(ptr, elem), elem
        if isinstance(expr, ast.Deref):
            ptr, elem = self._gen_lvalue(expr)
            return self._gen_load(ptr, elem), elem
        if isinstance(expr, ast.AddrOf):
            ptr, elem = self._gen_lvalue(expr.operand)
            return ptr, ast.ptr(elem)
        if isinstance(expr, ast.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.PostIncDec):
            return self._gen_post_inc_dec(expr)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Ternary):
            return self._gen_ternary(expr)
        if isinstance(expr, ast.CallExpr):
            return self._gen_call(expr)
        if isinstance(expr, ast.CastExpr):
            return self._gen_cast(expr)
        if isinstance(expr, ast.SizeofExpr):
            return self.builder.const(expr.ctype.size), ast.UINT
        raise CompileError(f"unsupported expression {expr!r}")

    def _gen_lvalue(self, expr: ast.Expr) -> Tuple[Value, CType]:
        """Pointer to the storage plus the *pointee* C type."""
        if isinstance(expr, ast.Ident):
            found = self.scope.lookup(expr.name)
            if found is None:
                raise CompileError(f"line {expr.line}: unknown identifier {expr.name!r}")
            return found
        if isinstance(expr, ast.Index):
            # Subscripting an array lvalue indexes the array directly (no
            # decay) so multi-dimensional arrays scale by full row size.
            base_static = self._static_lvalue_ctype(expr.base)
            if base_static is not None and base_static.is_array:
                base_ptr, base_elem = self._gen_lvalue(expr.base)
                idx, _ = self._gen_expr(expr.index)
                ptr = self.builder.gep(base_ptr, idx)
                return ptr, base_elem.target
            base_val, base_ctype = self._gen_expr(expr.base)
            if not base_ctype.is_pointer:
                raise CompileError(f"line {expr.line}: subscript of non-pointer")
            idx, _ = self._gen_expr(expr.index)
            ptr = self.builder.gep(base_val, idx)
            return ptr, base_ctype.target
        if isinstance(expr, ast.Deref):
            value, ctype = self._gen_expr(expr.operand)
            if not ctype.is_pointer:
                raise CompileError(f"line {expr.line}: dereference of non-pointer")
            return value, ctype.target
        raise CompileError(f"line {expr.line}: expression is not an lvalue")

    def _static_lvalue_ctype(self, expr) -> Optional[CType]:
        """The C type an lvalue expression designates, computed without
        emitting any code (used to pick array-vs-pointer subscripting)."""
        if isinstance(expr, ast.Ident):
            found = self.scope.lookup(expr.name)
            return found[1] if found is not None else None
        if isinstance(expr, ast.Index):
            base = self._static_lvalue_ctype(expr.base)
            if base is not None and (base.is_array or base.is_pointer):
                return base.target
            return None
        if isinstance(expr, ast.Deref):
            base = self._static_lvalue_ctype(expr.operand)
            if base is not None and base.is_pointer:
                return base.target
            return None
        return None

    def _decay(self, ptr: Value) -> Value:
        """Array-to-pointer decay: &arr[0]."""
        if isinstance(ptr.type.pointee, ArrayType):
            return self.builder.gep(ptr, self.builder.const(0))
        return ptr

    def _gen_load(self, ptr: Value, ctype: CType) -> Value:
        if ctype.is_array:
            return self._decay(ptr)
        load = self.builder.load(ptr)
        if ctype.is_integer and ctype.bits < 32:
            op = "zext" if not ctype.signed else "sext"
            return self.builder.cast(op, load, I32)
        return load

    def _gen_store(self, ptr: Value, ctype: CType, value: Value, vtype: CType) -> Value:
        if ctype.is_integer and ctype.bits < 32:
            value32 = value
            value = self.builder.cast("trunc", value, _ir_type(ctype))
            self.builder.store(value, ptr)
            return value32
        self.builder.store(value, ptr)
        return value

    def _gen_assign(self, expr: ast.Assign) -> Tuple[Value, CType]:
        ptr, ctype = self._gen_lvalue(expr.target)
        if expr.op == "=":
            value, vtype = self._gen_expr(expr.value)
            if ctype.is_pointer and vtype.is_integer:
                pass  # int -> pointer assignment, allowed silently
            self._gen_store(ptr, ctype, value, vtype)
            return self._masked(value, ctype), ctype
        # compound assignment: load, op, store
        op = expr.op[:-1]
        current = self._gen_load(ptr, ctype)
        rhs, rtype = self._gen_expr(expr.value)
        if ctype.is_pointer:
            if op not in ("+", "-"):
                raise CompileError("invalid pointer compound assignment")
            idx = rhs if op == "+" else self.builder.sub(self.builder.const(0), rhs)
            result = self.builder.gep(current, idx)
            self.builder.store(result, ptr)
            return result, ctype
        result = self._arith(op, current, ctype, rhs, rtype)
        self._gen_store(ptr, ctype, result, ast.INT)
        return self._masked(result, ctype), ctype

    def _masked(self, value: Value, ctype: CType) -> Value:
        """Value of an assignment expression: converted to the target type."""
        if ctype.is_integer and ctype.bits < 32:
            trunc = self.builder.cast("trunc", value, _ir_type(ctype))
            op = "zext" if not ctype.signed else "sext"
            return self.builder.cast(op, trunc, I32)
        return value

    def _gen_unary(self, expr: ast.Unary) -> Tuple[Value, CType]:
        if expr.op in ("++", "--"):
            ptr, ctype = self._gen_lvalue(expr.operand)
            current = self._gen_load(ptr, ctype)
            if ctype.is_pointer:
                delta = 1 if expr.op == "++" else -1
                result = self.builder.gep(current, self.builder.const(delta & 0xFFFFFFFF))
                self.builder.store(result, ptr)
                return result, ctype
            op = "add" if expr.op == "++" else "sub"
            result = self.builder.binop(op, current, self.builder.const(1))
            self._gen_store(ptr, ctype, result, ast.INT)
            return self._masked(result, ctype), ctype
        value, ctype = self._gen_expr(expr.operand)
        if expr.op == "-":
            return self.builder.sub(self.builder.const(0), value), _promote(ctype)
        if expr.op == "~":
            return (
                self.builder.binop("xor", value, self.builder.const(0xFFFFFFFF)),
                _promote(ctype),
            )
        if expr.op == "!":
            cmp = self.builder.icmp("eq", value, self.builder.const(0))
            return self.builder.cast("zext", cmp, I32), ast.INT
        raise CompileError(f"unsupported unary {expr.op!r}")

    def _gen_post_inc_dec(self, expr: ast.PostIncDec) -> Tuple[Value, CType]:
        ptr, ctype = self._gen_lvalue(expr.operand)
        current = self._gen_load(ptr, ctype)
        if ctype.is_pointer:
            delta = 1 if expr.op == "++" else -1
            updated = self.builder.gep(current, self.builder.const(delta & 0xFFFFFFFF))
            self.builder.store(updated, ptr)
            return current, ctype
        op = "add" if expr.op == "++" else "sub"
        updated = self.builder.binop(op, current, self.builder.const(1))
        self._gen_store(ptr, ctype, updated, ast.INT)
        return current, ctype

    def _arith(self, op: str, lhs: Value, ltype: CType, rhs: Value, rtype: CType) -> Value:
        common = _common_type(ltype, rtype)
        unsigned = not common.signed
        if op == ">>":
            # shift semantics follow the *left* operand's promoted type
            ir_op = "lshr" if not _promote(ltype).signed else "ashr"
        else:
            ir_op = {
                "+": "add", "-": "sub", "*": "mul",
                "/": "udiv" if unsigned else "sdiv",
                "%": "urem" if unsigned else "srem",
                "&": "and", "|": "or", "^": "xor",
                "<<": "shl",
            }[op]
        return self.builder.binop(ir_op, lhs, rhs)

    def _gen_binary(self, expr: ast.Binary) -> Tuple[Value, CType]:
        op = expr.op
        if op == ",":
            self._gen_expr(expr.left)
            return self._gen_expr(expr.right)
        if op in ("&&", "||"):
            return self._gen_logical(expr)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            lhs, ltype = self._gen_expr(expr.left)
            rhs, rtype = self._gen_expr(expr.right)
            cmp = self._emit_compare(op, lhs, ltype, rhs, rtype)
            return self.builder.cast("zext", cmp, I32), ast.INT
        lhs, ltype = self._gen_expr(expr.left)
        rhs, rtype = self._gen_expr(expr.right)
        # pointer arithmetic
        if ltype.is_pointer and op in ("+", "-") and rtype.is_integer:
            idx = rhs if op == "+" else self.builder.sub(self.builder.const(0), rhs)
            return self.builder.gep(lhs, idx), ltype
        if rtype.is_pointer and op == "+" and ltype.is_integer:
            return self.builder.gep(rhs, lhs), rtype
        if ltype.is_pointer and rtype.is_pointer and op == "-":
            diff = self.builder.sub(lhs, rhs)
            size = ltype.target.size
            if size > 1:
                diff = self.builder.binop("sdiv", diff, self.builder.const(size))
            return diff, ast.INT
        result = self._arith(op, lhs, ltype, rhs, rtype)
        return result, _common_type(ltype, rtype)

    def _emit_compare(self, op, lhs, ltype, rhs, rtype) -> Value:
        unsigned = (
            ltype.is_pointer
            or rtype.is_pointer
            or not _common_type(ltype, rtype).signed
        )
        preds = {
            "==": "eq", "!=": "ne",
            "<": "ult" if unsigned else "slt",
            "<=": "ule" if unsigned else "sle",
            ">": "ugt" if unsigned else "sgt",
            ">=": "uge" if unsigned else "sge",
        }
        return self.builder.icmp(preds[op], lhs, rhs)

    def _gen_logical(self, expr: ast.Binary) -> Tuple[Value, CType]:
        is_and = expr.op == "&&"
        rhs_bb = self._new_block("log.rhs")
        merge_bb = self._new_block("log.end")
        lhs_cond = self._gen_condition(expr.left)
        lhs_end = self.builder.block
        if is_and:
            self.builder.cond_br(lhs_cond, rhs_bb, merge_bb)
        else:
            self.builder.cond_br(lhs_cond, merge_bb, rhs_bb)
        self._seal_and_switch(rhs_bb)
        rhs_cond = self._gen_condition(expr.right)
        rhs_val = self.builder.cast("zext", rhs_cond, I32)
        rhs_end = self.builder.block
        self.builder.br(merge_bb)
        self._seal_and_switch(merge_bb)
        phi = self.builder.phi(I32, "log")
        phi.add_incoming(self.builder.const(0 if is_and else 1), lhs_end)
        phi.add_incoming(rhs_val, rhs_end)
        return phi, ast.INT

    def _gen_ternary(self, expr: ast.Ternary) -> Tuple[Value, CType]:
        cond = self._gen_condition(expr.cond)
        then_bb = self._new_block("sel.then")
        else_bb = self._new_block("sel.else")
        merge_bb = self._new_block("sel.end")
        self.builder.cond_br(cond, then_bb, else_bb)
        self._seal_and_switch(then_bb)
        tval, ttype = self._gen_expr(expr.then)
        then_end = self.builder.block
        self.builder.br(merge_bb)
        self._seal_and_switch(else_bb)
        fval, ftype = self._gen_expr(expr.other)
        else_end = self.builder.block
        self.builder.br(merge_bb)
        self._seal_and_switch(merge_bb)
        result_type = ttype if ttype.is_pointer else _common_type(ttype, ftype)
        phi = self.builder.phi(tval.type, "sel")
        phi.add_incoming(tval, then_end)
        phi.add_incoming(fval, else_end)
        return phi, result_type

    def _gen_call(self, expr: ast.CallExpr) -> Tuple[Value, CType]:
        if expr.name not in self.func_types:
            raise CompileError(f"line {expr.line}: call to undeclared {expr.name!r}")
        ret_ctype, param_ctypes = self.func_types[expr.name]
        if len(expr.args) != len(param_ctypes):
            raise CompileError(
                f"line {expr.line}: {expr.name} expects {len(param_ctypes)} args, "
                f"got {len(expr.args)}"
            )
        args = []
        for arg_expr, pctype in zip(expr.args, param_ctypes):
            value, vtype = self._gen_expr(arg_expr)
            args.append(value)
        callee = self.module.get_function(expr.name)
        result = self.builder.call(callee, args, expr.name)
        return result, (ast.INT if ret_ctype.is_void else ret_ctype)

    def _gen_cast(self, expr: ast.CastExpr) -> Tuple[Value, CType]:
        value, vtype = self._gen_expr(expr.operand)
        target = expr.ctype
        if target.is_integer and target.bits < 32:
            return self._masked(value, target), _promote(target)
        # pointer <-> int and 32-bit casts are value-preserving here
        return value, target

    def _gen_condition(self, expr: ast.Expr) -> Value:
        """Produce an i1 for a branch condition."""
        if isinstance(expr, ast.Binary) and expr.op in ("==", "!=", "<", "<=", ">", ">="):
            lhs, ltype = self._gen_expr(expr.left)
            rhs, rtype = self._gen_expr(expr.right)
            return self._emit_compare(expr.op, lhs, ltype, rhs, rtype)
        if isinstance(expr, ast.Unary) and expr.op == "!":
            value, _ = self._gen_expr(expr.operand)
            return self.builder.icmp("eq", value, self.builder.const(0))
        value, _ = self._gen_expr(expr)
        if isinstance(value, ICmp):
            return value
        return self.builder.icmp("ne", value, self.builder.const(0))


def _flatten(items) -> list:
    out = []
    for item in items if isinstance(items, list) else [items]:
        if isinstance(item, list):
            out.extend(_flatten(item))
        else:
            out.append(item)
    return out


def _flat_base(builder: IRBuilder, slot: Value):
    """A pointer to the first scalar element of a (possibly nested) array."""
    ptr = slot
    while isinstance(ptr.type.pointee, ArrayType):
        ptr = builder.gep(ptr, builder.const(0))
    return ptr


def compile_source(source: str, name: str = "module") -> Module:
    """Front end entry point: mini-C source -> IR module."""
    program = parse(source, name)
    return IRGenerator(program, name).generate()


def compile_sources(sources: List[str], name: str = "program") -> Module:
    """Compile multiple translation units and link them into one module
    (the gllvm whole-program step of the paper, §4.6)."""
    modules = [compile_source(src, f"{name}.{i}") for i, src in enumerate(sources)]
    linked = modules[0]
    linked.name = name
    for other in modules[1:]:
        linked.link(other)
    return linked
