"""QuadExt against an independent model of Q(sqrt d).

The reference keeps a value as a pair of Fractions (x, y) meaning
x + y*sqrt(d), the textbook representation; mpmath, at a precision far
beyond the distances these inputs can produce, is the reference for
signs and floors.
"""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro.errors import DomainError
from ostro.quadratic import QuadExt

DIGITS = 300

nonsquares = st.integers(2, 60).filter(lambda d: int(d ** 0.5) ** 2 != d)
rationals = st.fractions(min_value=-1000, max_value=1000,
                         max_denominator=10**4)
pairs = st.tuples(rationals, rationals)
examples = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def ref_mul(d, p, q):
    return (p[0] * q[0] + p[1] * q[1] * d, p[0] * q[1] + p[1] * q[0])


def ref_inverse(d, p):
    norm = p[0] ** 2 - p[1] ** 2 * d
    return (p[0] / norm, -p[1] / norm)


def real(d, p):
    """x + y*sqrt(d) as an mpmath number at DIGITS digits."""
    x, y = p
    return (mpmath.mpf(x.numerator) / x.denominator
            + mpmath.mpf(y.numerator) / y.denominator * mpmath.sqrt(d))


def ref_sign(d, p):
    with mpmath.workdps(DIGITS):
        v = real(d, p)
        return (v > 0) - (v < 0)


def ref_floor(d, p):
    with mpmath.workdps(DIGITS):
        return int(mpmath.floor(real(d, p)))


def check(q, d, p):
    """q is the reference value p, in normalized integer form."""
    assert q == QuadExt(d, *p)
    assert q.c > 0 and gcd(q.a, q.b, q.c) == 1
    assert (Fraction(q.a, q.c), Fraction(q.b, q.c)) == p


@examples
@given(d=nonsquares, p=pairs, q=pairs, k=st.integers(-50, 50))
def test_ring_operations_and_inverse(d, p, q, k):
    u, v = QuadExt(d, *p), QuadExt(d, *q)
    check(u, d, p)
    check(u + v, d, (p[0] + q[0], p[1] + q[1]))
    check(u - v, d, (p[0] - q[0], p[1] - q[1]))
    check(-u, d, (-p[0], -p[1]))
    check(u * v, d, ref_mul(d, p, q))
    check(u * k, d, (p[0] * k, p[1] * k))
    check(k - u, d, (k - p[0], -p[1]))
    check(q[0] + u, d, (q[0] + p[0], p[1]))
    if p != (0, 0):
        check(u.inverse(), d, ref_inverse(d, p))
        check(v / u, d, ref_mul(d, q, ref_inverse(d, p)))
        check(k / u, d, ref_mul(d, (Fraction(k), Fraction(0)),
                                 ref_inverse(d, p)))
    else:
        with pytest.raises(ZeroDivisionError):
            u.inverse()


@examples
@given(d=nonsquares, p=pairs, q=pairs, r=rationals)
def test_sign_floor_and_comparisons(d, p, q, r):
    u, v = QuadExt(d, *p), QuadExt(d, *q)
    assert u.sign() == ref_sign(d, p)
    assert u.floor() == ref_floor(d, p)
    assert u.ceil() == -ref_floor(d, (-p[0], -p[1]))
    s = ref_sign(d, (p[0] - q[0], p[1] - q[1]))
    assert (u < v, u <= v, u > v, u >= v) == (s < 0, s <= 0, s > 0, s >= 0)
    t = ref_sign(d, (p[0] - r, p[1]))
    assert (u < r, u <= r, u > r, u >= r) == (t < 0, t <= 0, t > 0, t >= 0)
    assert abs(u) == (u if ref_sign(d, p) >= 0 else -u)


@examples
@given(d=nonsquares, p=pairs,
       width=st.one_of(st.integers(1, 400).map(lambda k: Fraction(1, 2**k)),
                       st.fractions(min_value=Fraction(1, 10**30),
                                    max_value=10, max_denominator=10**30)
                       .filter(lambda w: w > 0)))
def test_enclosure_contains_the_value_within_the_width(d, p, width):
    lo, hi = QuadExt(d, *p).enclosure(width)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert hi - lo <= width
    if p[1] == 0:
        assert lo == hi == p[0]
    else:
        assert ref_sign(d, (p[0] - lo, p[1])) == 1
        assert ref_sign(d, (p[0] - hi, p[1])) == -1


def test_enclosure_rejects_a_nonpositive_width():
    with pytest.raises(DomainError):
        QuadExt(2, 0, 1).enclosure(Fraction(0))


@examples
@given(d=nonsquares, p=pairs, q=pairs, k=st.integers(-10**6, 10**6))
def test_equal_values_hash_equal(d, p, q, k):
    u, v = QuadExt(d, *p), QuadExt(d, *q)
    w = (u + v) - v  # the same value reached through arithmetic
    assert w == u and hash(w) == hash(u)
    assert (u == v) == (p == q)
    rational = QuadExt(d, p[0], 0)
    assert rational == p[0] and hash(rational) == hash(p[0])
    assert QuadExt(d, k, 0) == k and hash(QuadExt(d, k, 0)) == hash(k)
    assert (u == p[0]) == (p[1] == 0)
    assert {rational: 1}[p[0]] == 1


def test_constructor_validates_d():
    for d in (-3, 0, 1, 4, 49):
        with pytest.raises(DomainError):
            QuadExt(d, 1, 1)
    with pytest.raises(DomainError):
        QuadExt(2, 0, 1) + QuadExt(3, 0, 1)


def _tiny_differences():
    """q*alpha - p for convergents p/q of alpha = (a + sqrt d)/c, from
    order 1 down to about 1e-60."""
    return st.builds(
        lambda d, a, c, k: _convergent_error(d, a, c, k),
        nonsquares, st.integers(-20, 20), st.integers(1, 9),
        st.integers(0, 160))


def _convergent_error(d, a, c, k):
    alpha = QuadExt(d, Fraction(a, c), Fraction(1, c))
    p_prev, q_prev, p, q = 1, 0, alpha.floor(), 1
    x = alpha - p
    for _ in range(k):
        if abs(q * alpha - p) < Fraction(1, 10**60):
            break
        x = x.inverse()
        t = x.floor()
        x = x - t
        p_prev, q_prev, p, q = p, q, t * p + p_prev, t * q + q_prev
    return q * alpha - p


@examples
@given(st.one_of(
    st.builds(lambda d, x, y: QuadExt(d, x, y), nonsquares, rationals,
              rationals.filter(lambda y: y != 0)),
    _tiny_differences()))
def test_exponent_bound_brackets_the_size(v):
    # 2^e <= |v| < 2^(e+3): a lower bound at most three bits loose.
    e = v.exponent_bound()
    with mpmath.workdps(DIGITS):
        size = abs(mpmath.mpf(v.a) + v.b * mpmath.sqrt(v.d)) / v.c
        assert mpmath.mpf(2) ** e <= size < mpmath.mpf(2) ** (e + 3)


def test_exponent_bound_refuses_zero():
    with pytest.raises(DomainError):
        QuadExt(2, 0, 0).exponent_bound()
    assert float(QuadExt(2, 0, 0)) == 0.0
    assert float(QuadExt(2, Fraction(-1, 3), 0)) == -1 / 3
