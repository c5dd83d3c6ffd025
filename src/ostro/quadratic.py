"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

Elements are stored as (a + b*sqrt(d)) / c with integers a, b, c, c > 0
and gcd(a, b, c) = 1, for a fixed nonsquare d >= 2, so equal values have
equal fields.  Signs, floors and comparisons are decided exactly with
integer arithmetic, which is what makes the continued-fraction and
Ostrowski machinery tolerance-free for quadratic irrationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import DomainError


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


_set = object.__setattr__


def _fill(value: "QuadExt", d: int, a: int, b: int, c: int) -> "QuadExt":
    """Store (a + b*sqrt(d)) / c, c != 0, in normalized form."""
    g = gcd(a, b, c)
    if c < 0:
        g = -g
    _set(value, "d", d)
    _set(value, "a", a // g)
    _set(value, "b", b // g)
    _set(value, "c", c // g)
    return value


def _new(d: int, a: int, b: int, c: int) -> "QuadExt":
    """An operation's result; d was checked when the field was entered."""
    return _fill(object.__new__(QuadExt), d, a, b, c)


class QuadExt:
    """An element (a + b*sqrt(d)) / c of Q(sqrt(d)), immutable."""

    __slots__ = ("d", "a", "b", "c")

    def __init__(self, d: int, x, y):
        """x + y*sqrt(d) for rational x, y."""
        if d < 2 or is_square(d):
            raise DomainError(f"d must be a nonsquare integer >= 2, got {d}")
        x = Fraction(x)
        y = Fraction(y)
        _fill(self, d, x.numerator * y.denominator,
              y.numerator * x.denominator, x.denominator * y.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- structure ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadExt):
            if other.d != self.d:
                return NotImplemented
            return (self.a == other.a and self.b == other.b
                    and self.c == other.c)
        if isinstance(other, (int, Fraction)):
            return (self.b == 0 and self.a == other.numerator
                    and self.c == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.d, self.a, self.b, self.c))

    def __repr__(self):
        return f"QuadExt(({self.a} + {self.b}*sqrt({self.d}))/{self.c})"

    # -- ring / field operations -------------------------------------------

    def _parts(self, other):
        """(a, b, c) of a same-field operand, or None for other types."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise DomainError("mixed quadratic fields")
            return other.a, other.b, other.c
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, c = o
        return _new(self.d, self.a * c + a * self.c, self.b * c + b * self.c,
                    self.c * c)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.d, -self.a, -self.b, self.c)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, c = o
        return _new(self.d, self.a * c - a * self.c, self.b * c - b * self.c,
                    self.c * c)

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, c = o
        return _new(self.d, a * self.c - self.a * c, b * self.c - self.b * c,
                    self.c * c)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, c = o
        return _new(self.d, self.a * a + self.b * b * self.d,
                    self.a * b + self.b * a, self.c * c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # c / (a + b*sqrt(d)) = c*(a - b*sqrt(d)) / (a^2 - b^2 d); the norm
        # is nonzero for every nonzero element because sqrt(d) is irrational.
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return _new(self.d, self.c * self.a, -self.c * self.b, norm)

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self * _new(self.d, *o).inverse()

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _new(self.d, *o) * self.inverse()

    # -- exact order structure ----------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        return _sign(self.a, self.b, self.d)

    def _cmp(self, other):
        """Sign of self - other, or NotImplemented for other types."""
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, c = o
        # Both denominators are positive, so they leave the sign alone.
        return _sign(self.a * c - a * self.c, self.b * c - b * self.c, self.d)

    def __lt__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def floor(self) -> int:
        return _floor(self.a, self.b, self.c, self.d)

    def ceil(self) -> int:
        return -((-self).floor())

    # -- approximation -------------------------------------------------------

    def enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Rational interval [lo, hi] containing the value, hi - lo <= width."""
        if width <= 0:
            raise DomainError("width must be positive")
        a, b, c = self.a, self.b, self.c
        if b == 0:
            value = Fraction(a, c)
            return value, value
        # Need sqrt(d) to width*c/|b|; the bit count is taken from the
        # reduced ratio |b|/(c*width), so that it is a function of the value.
        num, den = abs(b) * width.denominator, c * width.numerator
        g = gcd(num, den)
        bits = max(1, (num // g).bit_length() - (den // g).bit_length() + 2)
        # floor(sqrt(d) * 2^bits) / 2^bits <= sqrt(d) < (that + 1) / 2^bits.
        s = isqrt(self.d << (2 * bits))
        lo, hi = (s, s + 1) if b > 0 else (s + 1, s)
        scale = c << bits
        return (Fraction((a << bits) + b * lo, scale),
                Fraction((a << bits) + b * hi, scale))

    def exponent_bound(self) -> int:
        """An integer e with 2^e <= |value|, at most 3 below log2|value|."""
        a, b, d = abs(self.a), abs(self.b), self.d
        r = isqrt(d)
        if self.a * self.b >= 0:
            num, den = a + b * r, self.c
        else:
            # |a + b*sqrt(d)| = |a^2 - b^2 d| / (|a| + |b|*sqrt(d)).
            num, den = abs(a * a - b * b * d), (a + b * (r + 1)) * self.c
        if num == 0:
            raise DomainError("zero has no exponent bound")
        # num >= 2^(len(num) - 1) and den < 2^len(den).
        return num.bit_length() - 1 - den.bit_length()

    def __float__(self):
        if self.b == 0:
            return float(Fraction(self.a, self.c))
        bits = 80 + max(0, -self.exponent_bound())
        lo, hi = self.enclosure(Fraction(1, 1 << bits))
        return float((lo + hi) / 2)


def _sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d)."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sa == 0:
        return sb
    if sb == 0:
        return sa
    # Opposite signs: a^2 = b^2 d would make sqrt(d) rational.
    return sa if a * a > b * b * d else sb


def _floor(a: int, b: int, c: int, d: int) -> int:
    """Exact floor of (a + b*sqrt(d)) / c, for c > 0."""
    if b == 0:
        return a // c
    # b*sqrt(d) is never an integer: write it as fb + theta with
    # theta in (0, 1); theta cannot move the floor of (a + fb)/c.
    fb = isqrt(b * b * d)
    if b < 0:
        fb = -fb - 1
    return (a + fb) // c
