"""Verifier tests: well-formedness and SSA dominance checking."""

import pytest

from repro.ir import (
    I32,
    Branch,
    Constant,
    FunctionType,
    IRBuilder,
    Module,
    Phi,
    PointerType,
    Ret,
    VerificationError,
    verify_function,
    verify_module,
)


def _fn(ret=I32, params=()):
    m = Module()
    f = m.add_function("f", FunctionType(ret, list(params)))
    return m, f


def test_valid_function_passes():
    m, f = _fn()
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.const(0))
    verify_module(m)


def test_empty_function_rejected():
    m, f = _fn()
    with pytest.raises(VerificationError):
        verify_function(f)


def test_missing_terminator_rejected():
    m, f = _fn()
    b = IRBuilder(f.add_block("entry"))
    b.add(b.const(1), b.const(2))
    with pytest.raises(VerificationError, match="terminator"):
        verify_function(f)


def test_mid_block_terminator_rejected():
    m, f = _fn()
    entry = f.add_block("entry")
    entry.append(Ret(Constant(0)))
    entry.append(Ret(Constant(0)))
    with pytest.raises(VerificationError, match="middle"):
        verify_function(f)


def test_branch_to_foreign_block_rejected():
    m, f = _fn()
    m2, f2 = _fn()
    foreign = f2.add_block("other")
    entry = f.add_block("entry")
    entry.append(Branch(foreign))
    with pytest.raises(VerificationError, match="foreign"):
        verify_function(f)


def test_phi_in_entry_rejected():
    m, f = _fn()
    entry = f.add_block("entry")
    entry.insert(0, Phi(I32, "p"))
    entry.append(Ret(Constant(0)))
    with pytest.raises(VerificationError, match="entry"):
        verify_function(f)


def test_phi_after_non_phi_rejected():
    m, f = _fn()
    entry = f.add_block("entry")
    body = f.add_block("body")
    entry.append(Branch(body))
    b = IRBuilder(body)
    v = b.add(b.const(1), b.const(1))
    phi = Phi(I32, "p")
    phi.add_incoming(Constant(0), entry)
    body.append(phi)
    body.append(Ret(v))
    # fix ordering so phi is after the add
    body.instructions = [v, phi, body.instructions[-1]]
    for i in body.instructions:
        i.parent = body
    with pytest.raises(VerificationError, match="phi after non-phi"):
        verify_function(f)


def test_phi_incoming_mismatch_rejected():
    m, f = _fn()
    entry = f.add_block("entry")
    body = f.add_block("body")
    entry.append(Branch(body))
    phi = Phi(I32, "p")  # no incoming entries at all
    body.insert(0, phi)
    body.append(Ret(phi))
    with pytest.raises(VerificationError, match="incoming"):
        verify_function(f)


def test_use_before_def_rejected():
    m, f = _fn()
    entry = f.add_block("entry")
    b = IRBuilder(entry)
    x = b.add(b.const(1), b.const(1), "x")
    y = b.add(x, b.const(1), "y")
    # swap so y precedes its operand x
    entry.instructions = [y, x]
    for i in entry.instructions:
        i.parent = entry
    b2 = IRBuilder(entry)
    b2.ret(y)
    with pytest.raises(VerificationError, match="dominated"):
        verify_function(f)


def test_cross_branch_dominance_rejected():
    m, f = _fn()
    entry = f.add_block("entry")
    left = f.add_block("left")
    right = f.add_block("right")
    merge = f.add_block("merge")
    eb = IRBuilder(entry)
    cond = eb.icmp("eq", eb.const(0), eb.const(0))
    eb.cond_br(cond, left, right)
    lb = IRBuilder(left)
    x = lb.add(lb.const(1), lb.const(2), "x")
    lb.br(merge)
    rb = IRBuilder(right)
    rb.br(merge)
    mb = IRBuilder(merge)
    mb.ret(x)  # x does not dominate merge
    with pytest.raises(VerificationError, match="dominated"):
        verify_function(f)


def test_valid_phi_accepted():
    m, f = _fn()
    entry = f.add_block("entry")
    left = f.add_block("left")
    right = f.add_block("right")
    merge = f.add_block("merge")
    eb = IRBuilder(entry)
    cond = eb.icmp("eq", eb.const(0), eb.const(0))
    eb.cond_br(cond, left, right)
    lb = IRBuilder(left)
    x = lb.add(lb.const(1), lb.const(2), "x")
    lb.br(merge)
    rb = IRBuilder(right)
    rb.br(merge)
    phi = Phi(I32, "p")
    phi.add_incoming(x, left)
    phi.add_incoming(Constant(0), right)
    merge.insert(0, phi)
    IRBuilder(merge).ret(phi)
    verify_function(f)


def test_unknown_operand_rejected():
    m, f = _fn()
    m2, f2 = _fn()
    entryB = f2.add_block("entry")
    bb = IRBuilder(entryB)
    stray = bb.add(bb.const(1), bb.const(1))
    entry = f.add_block("entry")
    b = IRBuilder(entry)
    v = b.add(stray, b.const(1))
    b.ret(v)
    with pytest.raises(VerificationError, match="unknown value"):
        verify_function(f)


@pytest.mark.parametrize("access", ["load", "store"])
def test_non_pointer_address_rejected(access):
    """A load or store addresses memory through a pointer: an integer
    put in its address operand (as a rewrite could) is refused, and the
    ``inttoptr`` a cast compiles to is accepted."""
    m, f = _fn(params=(PointerType(I32), I32))
    pointer, integer = f.args
    b = IRBuilder(f.add_block("entry"))
    address = b.cast("inttoptr", integer, PointerType(I32))
    instr = (b.load(pointer) if access == "load"
             else b.store(b.const(7), pointer))
    b.ret(b.const(0))
    verify_function(f)
    instr.replace_uses_of(pointer, integer)
    with pytest.raises(VerificationError, match="through non-pointer"):
        verify_function(f)
    instr.replace_uses_of(integer, address)
    verify_function(f)
