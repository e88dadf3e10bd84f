"""Textual IR parser: the inverse of :mod:`repro.ir.printer`.

Round-tripping IR through text makes golden tests and hand-written IR
fixtures possible without the mini-C front end.  The accepted grammar is
exactly what the printer emits::

    @g = global i32 5
    @a = constant [4 x i32] [1, 2, 3, 4]
    define i32 @f(i32 %x) {
    entry:
      %v0 = add %x, 1
      ret %v0
    }
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .block import BasicBlock
from .function import Function
from .instructions import (
    BINARY_OPS,
    CKPT_CAUSES,
    ICMP_PREDICATES,
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    Checkpoint,
    CondBranch,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from .module import Module
from .types import I1, I8, I16, I32, VOID, ArrayType, FunctionType, PointerType, Type
from .values import Constant, UndefValue


class IRParseError(Exception):
    pass


_TYPE_NAMES = {"i1": I1, "i8": I8, "i16": I16, "i32": I32, "void": VOID}


def parse_type(text: str) -> Type:
    text = text.strip()
    if text.endswith("*"):
        return PointerType(parse_type(text[:-1]))
    match = re.fullmatch(r"\[(\d+) x (.+)\]", text)
    if match:
        return ArrayType(parse_type(match.group(2)), int(match.group(1)))
    if text in _TYPE_NAMES:
        return _TYPE_NAMES[text]
    raise IRParseError(f"unknown type {text!r}")


class _FunctionParser:
    """Parses one ``define ... { ... }`` body with forward references."""

    def __init__(self, module: Module, function: Function):
        self.module = module
        self.function = function
        self.values: Dict[str, object] = {a.name: a for a in function.args}
        self.blocks: Dict[str, BasicBlock] = {}
        self.pending: List[Tuple[object, int, str]] = []  # (instr, op index, name)
        self.pending_targets: List[Tuple[object, int, str]] = []
        self.pending_phi_blocks: List[Tuple[Phi, int, str]] = []

    # -- operand handling --------------------------------------------------
    def block_ref(self, name: str) -> BasicBlock:
        if name not in self.blocks:
            self.blocks[name] = self.function.add_block(name)
        return self.blocks[name]

    def operand(self, token: str):
        token = token.strip()
        if token == "undef":
            return UndefValue(I32)
        if token.startswith("%"):
            name = token[1:]
            return self.values.get(name, ("forward", name))
        if token.startswith("@"):
            name = token[1:]
            if name in self.module.globals:
                return self.module.globals[name]
            raise IRParseError(f"unknown global {token}")
        try:
            return Constant(int(token, 0))
        except ValueError:
            raise IRParseError(f"bad operand {token!r}") from None

    def set_operand(self, instr, idx: int, value) -> None:
        if isinstance(value, tuple) and value and value[0] == "forward":
            self.pending.append((instr, idx, value[1]))
            instr.operands[idx] = UndefValue(I32)  # placeholder
        else:
            instr.operands[idx] = value

    def define(self, name: str, instr) -> None:
        instr.name = name
        self.values[name] = instr

    def resolve_pending(self) -> None:
        for instr, idx, name in self.pending:
            if name not in self.values:
                raise IRParseError(f"undefined value %{name}")
            instr.operands[idx] = self.values[name]


_INSTR_RE = re.compile(r"^(?:%(?P<dst>[\w.]+)\s*=\s*)?(?P<rest>.+)$")


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse printer-format IR text into a fresh module."""
    module = Module(name)
    lines = [ln.rstrip() for ln in text.splitlines()]
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith(";"):
            continue
        if line.startswith("@"):
            _parse_global(module, line)
            continue
        if line.startswith("declare"):
            _parse_declare(module, line)
            continue
        if line.startswith("define"):
            i = _parse_define(module, lines, i - 1) + 1
            continue
        raise IRParseError(f"unexpected top-level line: {line!r}")
    return module


def _parse_global(module: Module, line: str) -> None:
    match = re.fullmatch(
        r"@([\w.]+) = (global|constant) (.+?) (\[.*\]|None|-?\d+|0x[0-9a-fA-F]+)",
        line,
    )
    if not match:
        raise IRParseError(f"bad global line: {line!r}")
    gname, kind, type_text, init_text = match.groups()
    # disambiguate "[4 x i32] [1, 2]" vs scalar types
    if type_text.startswith("["):
        # the regex may have split the array type greedily; re-split
        full = f"{type_text} {init_text}"
        m2 = re.fullmatch(r"(\[\d+ x [^\]]+\])\s*(.*)", full)
        if not m2:
            raise IRParseError(f"bad array global: {line!r}")
        type_text, init_text = m2.group(1), m2.group(2) or "None"
    gtype = parse_type(type_text)
    if init_text == "None":
        init = None
    elif init_text.startswith("["):
        init = [int(tok, 0) for tok in re.findall(r"-?\d+|0x[0-9a-fA-F]+", init_text)]
    else:
        init = int(init_text, 0)
    module.add_global(gname, gtype, init, is_constant=(kind == "constant"))


def _parse_declare(module: Module, line: str) -> None:
    match = re.fullmatch(r"declare (.+?) @([\w.]+)\((.*)\)", line)
    if not match:
        raise IRParseError(f"bad declare line: {line!r}")
    ret_text, fname, params_text = match.groups()
    params = [parse_type(p) for p in params_text.split(",") if p.strip()]
    module.add_function(fname, FunctionType(parse_type(ret_text), params))


def _parse_define(module: Module, lines: List[str], start: int) -> int:
    header = lines[start].strip()
    match = re.fullmatch(r"define (.+?) @([\w.]+)\((.*)\) \{", header)
    if not match:
        raise IRParseError(f"bad define line: {header!r}")
    ret_text, fname, params_text = match.groups()
    param_types, param_names = [], []
    for chunk in params_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        type_text, pname = chunk.rsplit("%", 1)
        param_types.append(parse_type(type_text.strip()))
        param_names.append(pname)
    function = module.add_function(
        fname, FunctionType(parse_type(ret_text), param_types), param_names
    )
    parser = _FunctionParser(module, function)
    label_order: List[str] = []

    current: Optional[BasicBlock] = None
    i = start + 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith(";"):
            continue
        if line == "}":
            parser.resolve_pending()
            # restore the textual block order (forward branch targets are
            # created on first reference, which would otherwise reorder)
            order = {name: idx for idx, name in enumerate(label_order)}
            function.blocks.sort(key=lambda b: order.get(b.name, len(order)))
            return i - 1
        label = re.fullmatch(r"([\w.]+):", line)
        if label:
            current = parser.block_ref(label.group(1))
            label_order.append(label.group(1))
            continue
        if current is None:
            raise IRParseError(f"instruction outside a block: {line!r}")
        _parse_instruction(parser, current, line)
    raise IRParseError(f"unterminated function @{fname}")


def _parse_instruction(p: _FunctionParser, block: BasicBlock, line: str) -> None:
    match = _INSTR_RE.match(line)
    dst, rest = match.group("dst"), match.group("rest").strip()

    def op(token):
        return p.operand(token)

    def finish(instr, operand_tokens):
        block.append(instr)
        for idx, token in enumerate(operand_tokens):
            p.set_operand(instr, idx, op(token))
        if dst:
            p.define(dst, instr)
        return instr

    if rest.startswith("alloca "):
        instr = Alloca(parse_type(rest[len("alloca "):]))
        block.append(instr)
        if dst:
            p.define(dst, instr)
        return
    if rest.startswith("load "):
        m = re.fullmatch(r"load (.+?), (.+)", rest)
        ptr = op(m.group(2))
        if isinstance(ptr, tuple):
            raise IRParseError("load pointer must be defined before use")
        instr = Load(ptr)
        block.append(instr)
        if dst:
            p.define(dst, instr)
        return
    if rest.startswith("store "):
        m = re.fullmatch(r"store (.+?), (.+)", rest)
        ptr = op(m.group(2))
        if isinstance(ptr, tuple):
            raise IRParseError("store pointer must be defined before use")
        instr = Store(Constant(0), ptr)
        block.append(instr)
        p.set_operand(instr, 0, op(m.group(1)))
        return
    if rest.startswith("icmp "):
        m = re.fullmatch(r"icmp (\w+) (.+?), (.+)", rest)
        pred = m.group(1)
        if pred not in ICMP_PREDICATES:
            raise IRParseError(f"bad predicate {pred!r}")
        instr = ICmp(pred, Constant(0), Constant(0))
        return finish(instr, [m.group(2), m.group(3)]) and None
    if rest.startswith("select "):
        m = re.fullmatch(r"select (.+?), (.+?), (.+)", rest)
        instr = Select(Constant(0), Constant(0), Constant(0))
        finish(instr, [m.group(1), m.group(2), m.group(3)])
        return
    if rest.startswith("gep "):
        m = re.fullmatch(r"gep (.+?), (.+)", rest)
        base = op(m.group(1))
        if isinstance(base, tuple):
            raise IRParseError("gep base must be defined before use")
        instr = GetElementPtr(base, Constant(0))
        block.append(instr)
        p.set_operand(instr, 1, op(m.group(2)))
        if dst:
            p.define(dst, instr)
        return
    if rest.startswith(("zext ", "sext ", "trunc ", "inttoptr ")):
        m = re.fullmatch(r"(zext|sext|trunc|inttoptr) (.+?) to (.+)", rest)
        to_type = parse_type(m.group(3))
        if isinstance(to_type, PointerType) != (m.group(1) == "inttoptr"):
            raise IRParseError(
                "inttoptr produces pointers, the other casts integers")
        instr = Cast(m.group(1), Constant(0), to_type)
        finish(instr, [m.group(2)])
        return
    if rest.startswith("br label "):
        target = rest[len("br label %"):]
        block.append(Branch(p.block_ref(target)))
        return
    if rest.startswith("br "):
        m = re.fullmatch(r"br (.+?), label %([\w.]+), label %([\w.]+)", rest)
        instr = CondBranch(Constant(0), p.block_ref(m.group(2)), p.block_ref(m.group(3)))
        block.append(instr)
        p.set_operand(instr, 0, op(m.group(1)))
        return
    if rest.startswith("call ") or re.match(r"call @", rest):
        m = re.fullmatch(r"call @([\w.]+)\((.*)\)", rest)
        callee = p.module.functions.get(m.group(1))
        if callee is None:
            raise IRParseError(f"unknown callee @{m.group(1)}")
        args_tokens = [t for t in _split_args(m.group(2)) if t]
        instr = Call(callee, [Constant(0)] * len(args_tokens))
        finish(instr, args_tokens)
        return
    if rest == "ret void":
        block.append(Ret())
        return
    if rest.startswith("ret "):
        instr = Ret(Constant(0))
        block.append(instr)
        p.set_operand(instr, 0, op(rest[len("ret "):]))
        return
    if rest.startswith("phi "):
        m = re.fullmatch(r"phi (.+?) ((?:\[.+?, %[\w.]+\](?:, )?)+)", rest)
        phi = Phi(parse_type(m.group(1)))
        block.append(phi)
        for vtok, btok in re.findall(r"\[(.+?), %([\w.]+)\]", m.group(2)):
            phi.add_incoming(Constant(0), p.block_ref(btok))
            p.set_operand(phi, len(phi.operands) - 1, op(vtok))
        if dst:
            p.define(dst, phi)
        return
    if rest.startswith("checkpoint"):
        m = re.fullmatch(r"checkpoint !([\w-]+)", rest)
        cause = m.group(1)
        if cause not in CKPT_CAUSES:
            raise IRParseError(f"bad checkpoint cause {cause!r}")
        block.append(Checkpoint(cause))
        return
    # binary operations: "<op> lhs, rhs"
    m = re.fullmatch(r"(\w+) (.+?), (.+)", rest)
    if m and m.group(1) in BINARY_OPS:
        instr = BinaryOp(m.group(1), Constant(0), Constant(0))
        finish(instr, [m.group(2), m.group(3)])
        return
    raise IRParseError(f"cannot parse instruction: {line!r}")


def _split_args(text: str) -> List[str]:
    return [t.strip() for t in text.split(",")] if text.strip() else []
