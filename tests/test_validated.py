from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro.confrac import parse_alpha_spec
from ostro.construct import construct_sweep, parse_gamma_spec
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


def _record_widths(monkeypatch, result=None):
    """Log each width asked of QuadExt.enclosure from now on; with
    `result`, return that interval instead of the true enclosure."""
    widths = []
    original = QuadExt.enclosure

    def enclosure(self, width):
        widths.append(width)
        return original(self, width) if result is None else result

    monkeypatch.setattr(QuadExt, "enclosure", enclosure)
    return widths


def _inexact_sqrt2():
    """(leaf, node): sqrt(2) as an exact leaf, and as a node over it that
    is not known in closed form."""
    leaf = ValidatedReal.from_quadratic(QuadExt(2, 0, 1))
    return leaf, leaf + ValidatedReal(0, 0)


def test_interval_node_chain_refines(monkeypatch):
    _, v = _inexact_sqrt2()
    s = v + v  # 2*sqrt(2), interval path over one refinable leaf
    assert v.exact is None and s.exact is None
    widths = _record_widths(monkeypatch)
    # 1e-40 is about 2^-133: the loop starts at the first rung that can
    # meet it, and tightens s in place.
    assert s.refined(Fraction(1, 10**40)) is s
    assert s.width() <= Fraction(1, 10**40)
    assert widths == [Fraction(1, 2**256)]
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


def test_precision_doubles_to_the_cap_then_refuses(monkeypatch):
    leaf, v = _inexact_sqrt2()
    widths = _record_widths(monkeypatch)
    # v - sqrt(2) is exactly zero but not known in closed form: no
    # precision decides its sign.
    with pytest.raises(PrecisionError):
        (v - leaf).sign()
    assert widths == [Fraction(1, 2**bits) for bits in (128, 256, 512, 1024)]


def test_long_chain_evaluates_each_node_once_per_precision(monkeypatch):
    _, x = _inexact_sqrt2()
    u = x
    for _ in range(3000):  # deeper than the interpreter's recursion limit
        u = x - u          # sqrt(2) again after an even number of steps
    widths = _record_widths(monkeypatch)
    # Convergents of sqrt(2) about 7e-18 below and 1.2e-18 above it: the
    # 3001 leaf widths of 2^-64 add up to more than that.
    below = Fraction(318281039, 225058681)
    above = Fraction(768398401, 543339720)
    assert u.width() > above - below
    assert below < u < above
    # the shared leaf is refined once, at 2^-128, for the whole chain
    assert widths == [Fraction(1, 2**128)]


def test_leaf_enclosure_that_leaves_its_cache_is_rejected(monkeypatch):
    leaf, v = _inexact_sqrt2()
    _record_widths(monkeypatch, result=(Fraction(5), Fraction(5)))
    with pytest.raises(DomainError):
        (v - leaf).sign()


def test_exact_arithmetic_builds_no_enclosure(monkeypatch):
    widths = _record_widths(monkeypatch)
    v = ValidatedReal.from_quadratic(QuadExt(2, 0, 1)) * 7 - 3 - Fraction(1, 3)
    assert v.exact is not None and widths == []
    hi = v.hi  # the first endpoint read encloses the leaf, at 2^-64
    assert widths == [Fraction(1, 2**64)]
    assert v.width() == hi - v.lo  # later reads reuse it
    assert widths == [Fraction(1, 2**64)]
    assert (v.lo, hi) == v.exact.enclosure(Fraction(1, 2**64))


@pytest.mark.parametrize("width, rung", [
    (Fraction(1, 2**128), 128),      # exactly a rung
    (Fraction(1, 2**128 + 1), 256),  # just past it
    (Fraction(3, 2**130), 256),
    (Fraction(1, 10**40), 256),
    (Fraction(1, 10**200), 1024),
])
def test_exact_leaf_refines_with_one_enclosure(monkeypatch, width, rung):
    leaf = ValidatedReal.from_quadratic(QuadExt(2, 0, 1))
    widths = _record_widths(monkeypatch)
    assert leaf.refined(width) is leaf
    assert leaf.width() <= width
    # The first read encloses the leaf; the refinement costs one more.
    assert widths[1:] == [Fraction(1, 2**rung)]


def test_sweep_encloses_at_most_three_times_per_row(monkeypatch):
    alpha = parse_alpha_spec("quad:2,0,1")
    gamma = parse_gamma_spec("rat:1/3")
    widths = _record_widths(monkeypatch)
    rows = construct_sweep(alpha, gamma, range(5, 31))
    assert all(not isinstance(res, Exception) for _, res in rows)
    assert len(widths) <= 3 * len(rows)


# -- one enclosure per value -------------------------------------------------

examples = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
nonsquares = st.sampled_from([2, 3, 5, 7, 10, 13, 61])
small = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


def _value(kind, d, x, y, k):
    """(v, exact value or None): an exact leaf, a node over one, or a fixed
    interval; k scales the value down to about 10^-k."""
    scale = Fraction(1, 10**k)
    value = QuadExt(d, x, y or 1)
    if kind == "leaf":
        return ValidatedReal.from_quadratic(value * scale), value * scale
    if kind == "node":
        leaf = ValidatedReal.from_quadratic(value)
        return (leaf + ValidatedReal(0, 0)) * scale, value * scale
    return ValidatedReal(x * scale, (x + abs(y) + 1) * scale), None


values = st.builds(_value, st.sampled_from(["leaf", "node", "interval"]),
                   nonsquares, small, small, st.integers(0, 60))


@examples
@given(values, st.integers(1, 250), st.integers(1, 1000))
def test_refined_tightens_in_place(value, bits, num):
    v, _ = value
    width = Fraction(num, 1 << bits)
    try:
        assert v.refined(width) is v
    except PrecisionError:
        # Only a fixed interval cannot tighten.
        assert v.exact is None and v.width() > width
        return
    assert v.width() <= width


@examples
@given(values, st.lists(st.tuples(
    st.sampled_from(["lt", "ge", "sign", "floor", "refined"]),
    small, st.integers(1, 250)), max_size=8))
def test_enclosure_only_ever_tightens(value, steps):
    v, exact = value
    lo, hi = v.lo, v.hi
    for op, r, bits in steps:
        try:
            if op == "lt":
                v < r * Fraction(1, 10**bits)
            elif op == "ge":
                v >= r
            elif op == "sign":
                v.sign()
            elif op == "floor":
                v.floor()
            else:
                v.refined(Fraction(1, 1 << bits))
        except PrecisionError:
            pass
        assert lo <= v.lo <= v.hi <= hi
        if exact is not None:
            assert v.lo <= exact <= v.hi
        lo, hi = v.lo, v.hi


def test_first_enclosure_is_relative_to_the_value():
    # D_59 of sqrt 2 is about 1.08e-23, below 2^-64: its first enclosure,
    # and so float(), still carries about 19 correct digits.
    d59 = abs(parse_alpha_spec("quad:2,0,1").d_value(59))
    assert d59.width() <= d59.lo * Fraction(1, 2**64)
    assert abs(float(d59) / 1.0800873502109327e-23 - 1) < 1e-15


def test_interval_endpoints_out_of_order_are_refused():
    with pytest.raises(DomainError):
        ValidatedReal(2, 1)


def test_wrap_builds_exact_leaves_and_refuses_other_types():
    rational = ValidatedReal.wrap(QuadExt(2, 3, 0))
    assert type(rational.exact) is Fraction and rational.exact == Fraction(3)
    assert rational.width() == 0
    sqrt2 = QuadExt(2, 0, 1)
    assert ValidatedReal.wrap(sqrt2).exact is sqrt2
    assert ValidatedReal.wrap(7).exact == Fraction(7)
    v = ValidatedReal(0, 1)
    assert ValidatedReal.wrap(v) is v
    with pytest.raises(TypeError):
        ValidatedReal.wrap("1/3")
