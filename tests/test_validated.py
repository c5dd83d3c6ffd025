from fractions import Fraction

import pytest

from ostro.errors import DomainError, PrecisionError
from ostro.quadratic import QuadExt
from ostro.validated import ValidatedReal


def test_exact_rational_roundtrip():
    v = ValidatedReal.exact_rational(Fraction(3, 7))
    assert v.lo == v.hi == Fraction(3, 7)
    assert v.width() == 0
    assert v.sign() == 1
    assert v.floor() == 0
    assert ValidatedReal.exact_rational(0).sign() == 0


def test_quadratic_backing_sign_and_refine():
    r2 = ValidatedReal.from_quadratic(QuadExt(2, 0, 1))
    assert r2.sign() == 1
    tight = r2.refined(Fraction(1, 10**40))
    assert tight.width() <= Fraction(1, 10**40)
    assert tight.lo ** 2 < 2 < tight.hi ** 2
    # sign decisions near zero stay exact
    tiny = r2 * 12 - 17  # 12*sqrt(2) - 17 ~ -0.03
    assert tiny.sign() == -1
    assert (r2 * r2 - 2).sign() == 0


def test_interval_comparisons_refuse_to_guess():
    v = ValidatedReal(Fraction(-1, 10), Fraction(1, 10))
    with pytest.raises(PrecisionError):
        v.sign()
    with pytest.raises(PrecisionError):
        v < 0
    # one-sided questions that the interval does decide
    assert v < Fraction(1, 2)
    assert not (v > Fraction(1, 2))


def test_interval_refiner_chain():
    r2 = QuadExt(2, 0, 1)
    v = ValidatedReal(*r2.enclosure(Fraction(1, 4)),
                      refiner=lambda w: r2.enclosure(w))
    s = v + v  # 2*sqrt(2), interval path with composed refiner
    assert s.exact is None
    refined = s.refined(Fraction(1, 10**12))
    assert refined.width() <= Fraction(1, 10**12)
    assert (s - 2).sign() == 1
    assert s < 3


def test_abs_and_floor():
    v = ValidatedReal(Fraction(-3, 2), Fraction(1, 2))
    a = abs(v)
    assert a.lo == 0 and a.hi == Fraction(3, 2)
    assert ValidatedReal.exact_rational(Fraction(-7, 2)).floor() == -4
    assert ValidatedReal.exact_rational(Fraction(-7, 2)).ceil() == -3
    r2 = ValidatedReal.from_quadratic(QuadExt(2, 0, 1))
    assert (r2 * 100).floor() == 141
    assert abs(-r2).sign() == 1


def test_division():
    r2 = ValidatedReal.from_quadratic(QuadExt(2, 0, 1))
    q = (r2 * r2) / 2
    assert q.exact == 1
    with pytest.raises(DomainError):
        r2 / ValidatedReal.exact_rational(0)
    straddle = ValidatedReal(Fraction(-1), Fraction(1))
    with pytest.raises(PrecisionError):
        r2 / straddle


def test_mixed_exact_and_interval_arithmetic():
    r2 = ValidatedReal.from_quadratic(QuadExt(2, 0, 1))
    third = ValidatedReal.exact_rational(Fraction(1, 3))
    x = r2 * 5 - 7 - third * 0  # exact all the way
    assert x.exact is not None
    assert x.sign() == 1
    # interval operand degrades gracefully but stays refinable
    iv = ValidatedReal(Fraction(1, 3) - Fraction(1, 10**6),
                       Fraction(1, 3) + Fraction(1, 10**6))
    y = r2 - iv
    assert y.exact is None
    assert y.sign() == 1
    with pytest.raises(PrecisionError):
        # 1e-6-wide input cannot answer a 1e-9 question
        (iv - Fraction(1, 3)).sign()


def test_wrap_and_comparison_operators():
    r2 = ValidatedReal.from_quadratic(QuadExt(2, 0, 1))
    assert r2 > 1
    assert r2 < Fraction(3, 2)
    assert r2 <= QuadExt(2, 0, 1)
    assert r2 >= QuadExt(2, 0, 1)
    assert not r2 < QuadExt(2, 0, 1)


def test_precision_doubles_to_the_cap_then_refuses():
    r2 = QuadExt(2, 0, 1)
    widths = []

    def refiner(w):
        widths.append(w)
        return r2.enclosure(w)

    v = ValidatedReal(*r2.enclosure(Fraction(1, 4)), refiner=refiner)
    # v - sqrt(2) is exactly zero but not known in closed form: no
    # precision decides its sign.
    with pytest.raises(PrecisionError):
        (v - r2).sign()
    assert widths == [Fraction(1, 2**bits) for bits in (128, 256, 512, 1024)]


def test_long_chain_evaluates_each_node_once_per_precision():
    r2 = QuadExt(2, 0, 1)
    calls = []

    def refiner(w):
        calls.append(w)
        return r2.enclosure(w)

    x = ValidatedReal(*r2.enclosure(Fraction(1, 4)), refiner=refiner)
    u = x
    for _ in range(3000):  # deeper than the interpreter's recursion limit
        u = x - u          # sqrt(2) again after an even number of steps
    assert u.width() > 100
    assert u < Fraction(3, 2) and u > Fraction(7, 5)
    # the shared leaf is refined once, at 2^-128, for the whole chain
    assert calls == [Fraction(1, 2**128)]


def test_refiner_that_leaves_its_enclosure_is_rejected():
    v = ValidatedReal(Fraction(1), Fraction(2),
                      refiner=lambda w: (Fraction(5), Fraction(5)))
    with pytest.raises(DomainError):
        v < Fraction(3, 2)
