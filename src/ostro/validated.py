"""Validated reals: rational intervals that refuse to guess.

A ValidatedReal is a rational interval [lo, hi] guaranteed to contain its
target value.  Exact values (a Fraction or a QuadExt) and fixed intervals
are leaves; every other arithmetic result is a node of an expression DAG
over its operands.  Every inequality the library decides between real
numbers goes through this type: a comparison either certifies an answer or
raises PrecisionError.  It never rounds.

Each value holds one enclosure, which only ever tightens; `lo`, `hi`,
`width()` and `float()` read it.  Precision follows Ziv's strategy (ACM
TOMS 17(3), 1991): irrational QuadExt leaves, the only refinable ones, are
enclosed to absolute width 2^-bits, and an undecided question doubles the
bits, from 64 up to 1024.  A request for a width starts at the first rung
that can meet it; one below 2^-1024 may climb to 1024 bits below the
size of the value, so a tiny value keeps its digits.  A chain of k nodes
costs O(k) evaluations per doubling.  An exact leaf is enclosed only when
an endpoint is read or an interval operand needs it, first to width 2^-64
relative to its size; arithmetic between exact values stays in closed
form and never builds an interval unless the values lie in two fields.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import DomainError, PrecisionError
from .quadratic import QuadExt

Exact = Union[Fraction, QuadExt]
Enclosure = Tuple[Fraction, Fraction]

_START_BITS = 64
_MAX_BITS = 1024
_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv}


def _exact_sign(value: Exact) -> int:
    if isinstance(value, QuadExt):
        return value.sign()
    return (value > 0) - (value < 0)


def _apply(op: str, x: Enclosure, y: Optional[Enclosure] = None) -> Enclosure:
    """Interval image of the operand enclosures under op."""
    xl, xh = x
    if op == "neg":
        return -xh, -xl
    if op == "abs":
        if xl >= 0:
            return xl, xh
        if xh <= 0:
            return -xh, -xl
        return Fraction(0), max(-xl, xh)
    yl, yh = y
    if op == "add":
        return xl + yl, xh + yh
    if op == "sub":
        return xl - yh, xh - yl
    f = _OPS[op]
    ends = (f(xl, yl), f(xl, yh), f(xh, yl), f(xh, yh))
    return min(ends), max(ends)


def _decide(values, test, what: str, width: Optional[Fraction] = None):
    """Ziv's loop: `test` on the enclosures of `values` at rising precision.

    `test` returns the answer, or None while the enclosures leave it open;
    PrecisionError at the cap, or at once when no leaf can refine.  With a
    `width`, the loop starts at the first rung with 2^-bits <= width; for
    a width below 2^-_MAX_BITS the cap is _MAX_BITS bits below the size
    of the value instead, so a tiny value is refined relative to itself.
    """
    bits, top = _START_BITS, _MAX_BITS
    if width is not None:
        num, den = width.numerator, width.denominator
        need = den.bit_length() - num.bit_length()
        if need >= 0 and den > num << need:
            need += 1
        if need > _MAX_BITS:
            size = max(map(abs, values[0]._start()))
            top += max(0, size.denominator.bit_length()
                       - size.numerator.bit_length())
        while bits < need and bits < top:
            bits *= 2
        bits = min(bits, top)
    while True:
        answer = test(*[v._enclose(bits) for v in values])
        if answer is not None:
            return answer
        if bits >= top or not any(v._refinable for v in values):
            raise PrecisionError(
                f"{what} undecidable at available precision (2^-{bits})")
        bits = min(2 * bits, top)


def _lt(a: Enclosure, b: Enclosure) -> Optional[bool]:
    if a[1] < b[0]:
        return True
    if a[0] >= b[1]:
        return False
    return None


def _le(a: Enclosure, b: Enclosure) -> Optional[bool]:
    if a[1] <= b[0]:
        return True
    if a[0] > b[1]:
        return False
    return None


def _sign(e: Enclosure) -> Optional[int]:
    lo, hi = e
    if lo > 0 or hi < 0 or lo == hi == 0:
        return (lo > 0) - (hi < 0)
    return None


def _floor(e: Enclosure) -> Optional[int]:
    lo, hi = e
    flo = lo.numerator // lo.denominator
    return flo if flo == hi.numerator // hi.denominator else None


def _nonzero(e: Enclosure) -> Optional[Enclosure]:
    if e[0] == e[1] == 0:
        raise DomainError("division by an exact zero")
    return e if e[0] > 0 or e[1] < 0 else None


class ValidatedReal:
    """Interval enclosure of a real number with certified queries."""

    __slots__ = ("_exact", "_op", "_args", "_cache", "_refinable")

    def __init__(self, lo, hi):
        """The fixed interval [lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise DomainError("interval endpoints out of order")
        self._exact, self._op, self._args = None, None, ()
        self._cache = (_START_BITS, lo, hi)
        self._refinable = False

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact_rational(cls, value) -> "ValidatedReal":
        return cls.wrap(Fraction(value))

    @classmethod
    def from_quadratic(cls, value: QuadExt) -> "ValidatedReal":
        return cls.wrap(value)

    @classmethod
    def wrap(cls, value) -> "ValidatedReal":
        """value as a validated real, the one way to build an exact leaf.

        A ValidatedReal is returned as it is.  An int, or a QuadExt with
        no sqrt(d) part, becomes an exact Fraction leaf; an irrational
        QuadExt stays one and is enclosed on first read, by _start.
        Anything else raises TypeError.
        """
        if isinstance(value, ValidatedReal):
            return value
        if isinstance(value, QuadExt):
            if value.b == 0:
                value = Fraction(value.a, value.c)
        elif isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, Fraction):
            raise TypeError(f"cannot interpret {value!r} as a validated real")
        leaf = cls.__new__(cls)
        leaf._exact, leaf._op, leaf._args = value, None, ()
        leaf._refinable = isinstance(value, QuadExt)
        leaf._cache = None if leaf._refinable else (_START_BITS, value, value)
        return leaf

    @classmethod
    def _node(cls, op: str, args: tuple, lo: Fraction,
              hi: Fraction) -> "ValidatedReal":
        node = cls.__new__(cls)
        node._exact, node._op, node._args = None, op, args
        node._cache = (_START_BITS, lo, hi)
        node._refinable = any(a._refinable for a in args)
        return node

    # -- basic accessors -----------------------------------------------------

    def _start(self) -> Enclosure:
        """(lo, hi), the enclosure held now.  An irrational leaf computes
        its first one here, to width 2^-64 relative to its size."""
        if self._cache is None:
            ex = self._exact
            bits = _START_BITS + max(0, -ex.exponent_bound())
            self._cache = (bits, *ex.enclosure(Fraction(1, 1 << bits)))
        return self._cache[1:]

    @property
    def lo(self) -> Fraction:
        return self._start()[0]

    @property
    def hi(self) -> Fraction:
        return self._start()[1]

    @property
    def exact(self) -> Optional[Exact]:
        """Closed-form backing value, when one is known."""
        return self._exact

    def width(self) -> Fraction:
        lo, hi = self._start()
        return hi - lo

    def __repr__(self):
        tag = " exact" if self._exact is not None else ""
        return f"ValidatedReal[{self.lo}, {self.hi}]{tag}"

    def __float__(self):
        lo, hi = self._start()
        return float((lo + hi) / 2)

    # -- precision -------------------------------------------------------------

    def _enclose(self, bits: int) -> Enclosure:
        """Enclosure with refinable leaves at width 2^-bits (or tighter,
        from the cache).  An explicit stack keeps long chains off the
        recursion limit."""
        self._start()  # a node's operands were read when it was built
        stack = [self]
        while stack:
            node = stack[-1]
            if node._cache[0] >= bits or not node._refinable:
                stack.pop()
                continue
            if node._op is None:
                lo, hi = node._exact.enclosure(Fraction(1, 1 << bits))
                # Intersect, so that leaf enclosures only ever shrink.
                lo, hi = max(lo, node._cache[1]), min(hi, node._cache[2])
                if lo > hi:
                    raise DomainError("leaf enclosure left the enclosure it refines")
                node._cache = (bits, lo, hi)
            else:
                stale = [a for a in node._args
                         if a._cache[0] < bits and a._refinable]
                if stale:
                    stack.extend(stale)
                    continue
                node._cache = (bits, *_apply(
                    node._op, *[a._cache[1:] for a in node._args]))
            stack.pop()
        return self._cache[1:]

    def refined(self, width) -> "ValidatedReal":
        """Tighten this value's enclosure to width <= the request; self.

        Raises PrecisionError when the request cannot be met; the
        enclosure keeps whatever tightening was reached.
        """
        width = Fraction(width)
        if width <= 0:
            raise DomainError("width must be positive")
        if self.width() > width:
            _decide((self,), lambda e: e if e[1] - e[0] <= width else None,
                    "refinement", width)
        return self

    # -- certified queries -----------------------------------------------------

    def sign(self) -> int:
        """Certified sign; 0 only when the value is exactly zero."""
        if self._exact is not None:
            return _exact_sign(self._exact)
        return _decide((self,), _sign, "sign")

    def _cmp_pair(self, other: "ValidatedReal", strict: bool) -> bool:
        """Certified (self < other) when strict, else (self <= other)."""
        a, b = self._exact, other._exact
        if a is not None and b is not None:
            try:
                return a < b if strict else a <= b
            except DomainError:  # two quadratic fields: decide on intervals
                pass
        return _decide((self, other), _lt if strict else _le, "comparison")

    def __lt__(self, other):
        return self._cmp_pair(ValidatedReal.wrap(other), strict=True)

    def __le__(self, other):
        return self._cmp_pair(ValidatedReal.wrap(other), strict=False)

    def __gt__(self, other):
        return ValidatedReal.wrap(other)._cmp_pair(self, strict=True)

    def __ge__(self, other):
        return ValidatedReal.wrap(other)._cmp_pair(self, strict=False)

    def floor(self) -> int:
        if self._exact is not None:
            if isinstance(self._exact, QuadExt):
                return self._exact.floor()
            return self._exact.numerator // self._exact.denominator
        return _decide((self,), _floor, "floor")

    def ceil(self) -> int:
        return -((-self).floor())

    # -- arithmetic ------------------------------------------------------------

    def _binary(self, other: "ValidatedReal", op: str) -> "ValidatedReal":
        if self._exact is not None and other._exact is not None:
            try:
                return ValidatedReal.wrap(_OPS[op](self._exact, other._exact))
            except DomainError:  # two quadratic fields: build a node
                pass
        divisor = other._start()
        if op == "div" and divisor[0] <= 0 <= divisor[1]:
            divisor = _decide((other,), _nonzero, "divisor sign")
        return ValidatedReal._node(op, (self, other),
                                   *_apply(op, self._start(), divisor))

    def __add__(self, other):
        return self._binary(ValidatedReal.wrap(other), "add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(ValidatedReal.wrap(other), "sub")

    def __rsub__(self, other):
        return ValidatedReal.wrap(other)._binary(self, "sub")

    def __mul__(self, other):
        return self._binary(ValidatedReal.wrap(other), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ValidatedReal.wrap(other)
        if other._exact is not None and _exact_sign(other._exact) == 0:
            raise DomainError("division by an exact zero")
        return self._binary(other, "div")

    def __rtruediv__(self, other):
        return ValidatedReal.wrap(other).__truediv__(self)

    def __neg__(self):
        if self._exact is not None:
            return ValidatedReal.wrap(-self._exact)
        return ValidatedReal._node("neg", (self,), *_apply("neg", self._start()))

    def __abs__(self):
        if self._exact is not None:
            return ValidatedReal.wrap(abs(self._exact))
        return ValidatedReal._node("abs", (self,), *_apply("abs", self._start()))
