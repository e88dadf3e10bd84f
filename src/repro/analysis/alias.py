"""Alias analysis, in three precision modes.

``conservative``
    The precision Ratchet gets from the compiler's built-in aliasing:
    distinct named objects (globals, allocas) never alias, but accesses
    into the same object are never disambiguated.

``precise``
    The NOELLE-PDG precision used by R-PDG and WARio in the paper: GEP
    chains are decomposed into ``base + const + coeff * iv`` (an
    affine/SCEV-lite form), so ``state[1]`` and ``state[13]`` — or
    ``W[t]`` and ``W[t-3]`` in the same iteration — are proven disjoint.
    Across loop iterations, iv-dependent accesses stay may-alias (the
    PDG does not carry dependence distances).

``affine``
    An extension beyond the paper: full cross-iteration distance
    reasoning over induction variables (eliminates the loop-carried WARs
    of stencil-style loops entirely).  Used by the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.instructions import Alloca, BinaryOp, Cast, GetElementPtr, Phi
from ..ir.values import Argument, Constant, GlobalVariable, Value
from .loops import Loop, find_induction_variables

PRECISE = "precise"
CONSERVATIVE = "conservative"
AFFINE = "affine"
ALIAS_MODES = (CONSERVATIVE, PRECISE, AFFINE)


@dataclass
class PointerInfo:
    """Decomposition of a pointer as ``base + const_offset + coeff * iv``.

    ``base`` is a :class:`GlobalVariable`, :class:`Alloca` or
    :class:`Argument` when known, else ``None``.  ``base_set`` (from the
    whole-program points-to analysis) bounds the objects an argument-
    rooted pointer can reach.  ``exact`` means the decomposition captures
    the address fully; otherwise only the base information is
    trustworthy.  Offsets are in bytes.
    """

    base: Optional[Value]
    const_offset: int = 0
    iv: Optional[Phi] = None
    coeff: int = 0
    exact: bool = True
    base_set: Optional[frozenset] = None

    @property
    def has_distinct_base(self) -> bool:
        return isinstance(self.base, (GlobalVariable, Alloca))

    def possible_bases(self) -> Optional[frozenset]:
        """The set of objects this pointer may point into, or None when
        unbounded."""
        if self.has_distinct_base:
            return frozenset((self.base,))
        if self.base_set is not None:
            return self.base_set
        return None


@dataclass
class _Affine:
    """An index expression ``const + coeff * iv`` (or unknown)."""

    const: int = 0
    iv: Optional[Phi] = None
    coeff: int = 0
    exact: bool = True


def _affine_index(value: Value) -> _Affine:
    """Decompose an integer index into affine form."""
    if isinstance(value, Constant):
        v = value.value
        if v >= 1 << 31:
            v -= 1 << 32
        return _Affine(const=v)
    if isinstance(value, Phi):
        return _Affine(iv=value, coeff=1)
    if isinstance(value, Cast) and value.op in ("zext", "sext"):
        return _affine_index(value.value)
    if isinstance(value, BinaryOp):
        if value.op in ("add", "sub"):
            left = _affine_index(value.lhs)
            right = _affine_index(value.rhs)
            sign = -1 if value.op == "sub" else 1
            if left.exact and right.exact and (left.iv is None or right.iv is None):
                iv = left.iv or right.iv
                coeff = left.coeff + sign * right.coeff
                if right.iv is not None and value.op == "sub":
                    coeff = left.coeff - right.coeff
                return _Affine(left.const + sign * right.const, iv, coeff, True)
        if value.op == "mul":
            for a, b in ((value.lhs, value.rhs), (value.rhs, value.lhs)):
                if isinstance(b, Constant):
                    inner = _affine_index(a)
                    if inner.exact:
                        scale = b.value
                        if scale >= 1 << 31:
                            scale -= 1 << 32
                        return _Affine(inner.const * scale, inner.iv, inner.coeff * scale, True)
        if value.op == "shl" and isinstance(value.rhs, Constant) and value.rhs.value < 31:
            inner = _affine_index(value.lhs)
            if inner.exact:
                scale = 1 << value.rhs.value
                return _Affine(inner.const * scale, inner.iv, inner.coeff * scale, True)
    return _Affine(exact=False)


class AliasAnalysis:
    """Per-function alias queries over load/store pointer operands."""

    def __init__(self, function, mode: str = PRECISE, points_to=None):
        if mode not in ALIAS_MODES:
            raise ValueError(f"unknown alias mode {mode!r}")
        self.function = function
        self.mode = mode
        #: whole-program argument points-to (PDG precision); unused in
        #: conservative mode, which is function-local like basic AA.
        self.points_to = points_to
        self._cache: Dict[int, PointerInfo] = {}
        self._iv_cache: Dict[int, Dict[int, tuple]] = {}

    # -- pointer classification -----------------------------------------
    def classify(self, ptr: Value) -> PointerInfo:
        info = self._cache.get(id(ptr))
        if info is None:
            info = self._classify(ptr)
            self._cache[id(ptr)] = info
        return info

    def _classify(self, ptr: Value) -> PointerInfo:
        if isinstance(ptr, (GlobalVariable, Alloca)):
            return PointerInfo(base=ptr)
        if isinstance(ptr, Argument):
            # Offsets are tracked relative to the argument itself, so
            # within-argument disambiguation works regardless of the
            # points-to set bounding which objects it can reach.
            if self.mode != CONSERVATIVE and self.points_to is not None:
                bases = self.points_to.get(id(ptr))
                if bases is not None:
                    return PointerInfo(base=ptr, base_set=bases)
            return PointerInfo(base=ptr)
        if isinstance(ptr, Cast) and ptr.op == "inttoptr":
            return self.classify(ptr.value)  # the integer is the address
        if isinstance(ptr, GetElementPtr):
            base_info = self.classify(ptr.base)
            elem_size = ptr.element_size
            if self.mode == CONSERVATIVE:
                # Object granularity only: no within-object disambiguation.
                return PointerInfo(base=base_info.base, exact=False,
                                   base_set=base_info.base_set)
            idx = _affine_index(ptr.index)
            if not idx.exact or not base_info.exact:
                return PointerInfo(base=base_info.base, exact=False,
                                   base_set=base_info.base_set)
            if idx.iv is not None and base_info.iv is not None and idx.iv is not base_info.iv:
                return PointerInfo(base=base_info.base, exact=False)
            iv = base_info.iv or idx.iv
            coeff = base_info.coeff + idx.coeff * elem_size
            return PointerInfo(
                base=base_info.base,
                const_offset=base_info.const_offset + idx.const * elem_size,
                iv=iv,
                coeff=coeff,
                exact=True,
                base_set=base_info.base_set,
            )
        # Pointer phi / select / call result / unknown arithmetic.
        return PointerInfo(base=None, exact=False)

    # -- queries -------------------------------------------------------------
    def may_alias(self, ptr_a: Value, size_a: int, ptr_b: Value, size_b: int) -> bool:
        """May the two accesses overlap *within the same loop iteration*
        (or outside any loop)?"""
        return self.may_alias_info(
            self.classify(ptr_a), size_a, self.classify(ptr_b), size_b
        )

    def may_alias_info(self, a: PointerInfo, size_a: int,
                       b: PointerInfo, size_b: int) -> bool:
        """:meth:`may_alias` over already-classified pointers."""
        if self._distinct_bases(a, b):
            return False
        if a.base is None or b.base is None or a.base is not b.base:
            return True  # unknown or possibly-equal bases
        if not (a.exact and b.exact):
            return True
        if a.iv is not b.iv:
            return True
        if a.iv is not None and a.coeff != b.coeff:
            return True
        return _ranges_overlap(a.const_offset, size_a, b.const_offset, size_b)

    def must_alias(self, ptr_a: Value, size_a: int, ptr_b: Value, size_b: int) -> bool:
        """Do the two accesses certainly start at the same address (same
        iteration)?"""
        if ptr_a is ptr_b:
            return True
        a, b = self.classify(ptr_a), self.classify(ptr_b)
        return (
            a.base is not None
            and a.base is b.base
            and a.exact
            and b.exact
            and a.iv is b.iv
            and a.coeff == b.coeff
            and a.const_offset == b.const_offset
        )

    def may_alias_cross_iteration(
        self,
        ptr_earlier: Value,
        size_e: int,
        ptr_later: Value,
        size_l: int,
        loop: Loop,
    ) -> bool:
        """May an access at iteration ``i`` (earlier) overlap an access at
        iteration ``i + k`` for some ``k >= 1`` (later) of ``loop``?"""
        return self.may_alias_cross_iteration_info(
            self.classify(ptr_earlier), size_e,
            self.classify(ptr_later), size_l, loop,
        )

    def may_alias_cross_iteration_info(
        self,
        a: PointerInfo,
        size_e: int,
        b: PointerInfo,
        size_l: int,
        loop: Loop,
    ) -> bool:
        """:meth:`may_alias_cross_iteration` over already-classified
        pointers (``a`` the earlier access, ``b`` the later one)."""
        if self._distinct_bases(a, b):
            return False
        if a.base is None or b.base is None or a.base is not b.base:
            return True
        if not (a.exact and b.exact):
            return True
        if a.iv is None and b.iv is None:
            # Loop-invariant addresses: same location every iteration.
            return _ranges_overlap(a.const_offset, size_e, b.const_offset, size_l)
        if self.mode != AFFINE:
            # The PDG has no dependence distances: an iv-dependent access
            # may revisit any address of its object in a later iteration.
            return True
        if a.iv is not b.iv or a.coeff != b.coeff:
            return True
        if a.iv is None:
            return _ranges_overlap(a.const_offset, size_e, b.const_offset, size_l)
        steps = self._iv_cache.get(id(loop))
        if steps is None:
            steps = find_induction_variables(loop)
            self._iv_cache[id(loop)] = steps
        entry = steps.get(id(a.iv))
        if entry is None:
            return True
        step_bytes = entry[1] * a.coeff
        if step_bytes == 0:
            return _ranges_overlap(a.const_offset, size_e, b.const_offset, size_l)
        # earlier: base + c1 + i*S ; later: base + c2 + (i+k)*S, k >= 1.
        # Overlap iff c1 - c2 - size_l < k*S < c1 - c2 + size_e for some k >= 1.
        c1, c2, s = a.const_offset, b.const_offset, step_bytes
        lo = c1 - c2 - size_l  # exclusive
        hi = c1 - c2 + size_e  # exclusive
        if s > 0:
            k_min = lo // s + 1
            k_max = -((-hi) // s) - 1  # largest k with k*s < hi
            return max(k_min, 1) <= k_max
        # With s < 0: k*s decreases as k grows; k*s < hi for k > hi/s.
        k_low = _ceil_div_exclusive(hi, s)
        k_high = _floor_div_exclusive(lo, s)
        return max(k_low, 1) <= k_high

    # -- helpers -----------------------------------------------------------------
    @staticmethod
    def _distinct_bases(a: PointerInfo, b: PointerInfo) -> bool:
        """True when the two pointers provably point to different objects.

        Two different named objects never overlap; argument-rooted
        pointers are distinct from anything outside their points-to set
        (PDG precision) and otherwise distinct from nothing.
        """
        if a.base is b.base and a.base is not None:
            return False
        set_a, set_b = a.possible_bases(), b.possible_bases()
        if set_a is None or set_b is None:
            return False
        return not (set_a & set_b)


def _ranges_overlap(off_a: int, size_a: int, off_b: int, size_b: int) -> bool:
    return off_a < off_b + size_b and off_b < off_a + size_a


def _ceil_div_exclusive(value: int, divisor: int) -> int:
    """Smallest integer k with k*divisor < value (divisor < 0)."""
    # k > value / divisor  (inequality flips for negative divisor)
    import math

    return math.floor(value / divisor) + 1


def _floor_div_exclusive(value: int, divisor: int) -> int:
    """Largest integer k with k*divisor > value (divisor < 0)."""
    import math

    return math.ceil(value / divisor) - 1
