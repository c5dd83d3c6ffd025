from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro.confrac import cf_from_quadratic
from ostro.errors import (DomainError, IllegalExpansionError, PrecisionError)
from ostro.ostrowski import (IntOstrowski, inhom_bound, normalize_gamma,
                             ostrowski_int, ostrowski_int_reconstruct,
                             ostrowski_real, real_partial_sum, real_residual,
                             tail_sign)
from ostro.validated import ValidatedReal

GOLDEN = cf_from_quadratic(5, 1, 2)
SQRT2 = cf_from_quadratic(2, 0, 1)
SQRT3 = cf_from_quadratic(3, 0, 1)


def legal_digit_strings(cf, length):
    """All digit vectors (c_1..c_length) satisfying the legality rules."""
    caps = [cf.partial_quotient(k + 1) for k in range(length)]
    out = []

    def rec(k, prev_nonzero, cur):
        if k == length:
            out.append(tuple(cur))
            return
        cap = caps[k] - (1 if (k == 0 or prev_nonzero) else 0)
        for digit in range(cap + 1):
            rec(k + 1, digit != 0, cur + [digit])

    rec(0, True, [])
    return out


def test_int_expansion_examples():
    e = ostrowski_int(GOLDEN, 10)  # 10 = 8 + 2 = q_5 + q_2
    assert e.coeffs == (0, 0, 1, 0, 0, 1) and e.M == 5
    e = ostrowski_int(SQRT2, 10)  # 10 = 2 * q_2
    assert e.coeffs == (0, 0, 2) and e.M == 2
    q3 = SQRT2.convergent(3).q
    assert ostrowski_int(SQRT2, q3).coeffs == (0, 0, 0, 1)
    with pytest.raises(DomainError):
        ostrowski_int(SQRT2, 0)


def test_reconstruct_roundtrip_and_examples():
    for cf in (GOLDEN, SQRT2, SQRT3):
        for n in range(1, 3000):
            assert ostrowski_int_reconstruct(ostrowski_int(cf, n), cf) == n
    e = IntOstrowski((0, 0, 1, 0, 0, 1), 5)
    assert ostrowski_int_reconstruct(e, GOLDEN) == 10


def test_reconstruct_rejects_illegal_strings():
    with pytest.raises(IllegalExpansionError):
        ostrowski_int_reconstruct(IntOstrowski((), -1), SQRT2)
    with pytest.raises(IllegalExpansionError):  # c_1 must stay below a_1
        ostrowski_int_reconstruct(IntOstrowski((2,), 0), SQRT2)
    with pytest.raises(IllegalExpansionError):  # digit above a_{k+1}
        ostrowski_int_reconstruct(IntOstrowski((0, 3), 1), SQRT2)
    with pytest.raises(IllegalExpansionError):  # adjacency violation
        ostrowski_int_reconstruct(IntOstrowski((1, 2), 1), SQRT2)
    with pytest.raises(IllegalExpansionError):  # trailing zero digit
        ostrowski_int_reconstruct(IntOstrowski((1, 0), 1), SQRT2)


@pytest.mark.parametrize("cf", [GOLDEN, SQRT2, SQRT3])
def test_uniqueness_by_enumeration(cf):
    # Every legal string of length 6 reconstructs a distinct integer and
    # together they cover [0, q_6) exactly.
    strings = legal_digit_strings(cf, 6)
    values = sorted(
        sum(c * cf.convergent(k).q for k, c in enumerate(s)) for s in strings)
    assert values == list(range(cf.convergent(6).q))


def test_normalize_gamma():
    ell, norm = normalize_gamma(SQRT2, ValidatedReal.exact_rational(Fraction(1, 3)))
    assert ell == 0 and norm.exact == Fraction(1, 3)
    ell, norm = normalize_gamma(SQRT2, ValidatedReal.exact_rational(Fraction(9, 10)))
    assert ell == 1 and norm.exact == Fraction(-1, 10)
    # boundary: gamma = 1 - {alpha} lands exactly on -{alpha} after shifting
    alpha = SQRT2.alpha()
    gamma = 1 - (alpha - 1)
    ell, norm = normalize_gamma(SQRT2, gamma)
    assert ell == 1
    frac = SQRT2.frac_alpha()
    assert (norm + frac).sign() == 0
    assert norm < 1 - frac


def test_real_expansion_digits_and_tail_bound():
    exp = ostrowski_real(SQRT2, Fraction(1, 3), 12)
    assert exp.coeffs[:9] == (1, 1, 1, 0, 2, 1, 0, 0, 1)
    assert exp.shift == 0
    for upto in range(1, 13):
        residual = abs(real_residual(SQRT2, exp, upto))
        assert residual <= SQRT2.d_abs(upto - 1)
    expg = ostrowski_real(GOLDEN, Fraction(1, 3), 12)
    assert expg.coeffs[0] == 0  # a_1 = 1 forces b_1 = 0
    assert abs(real_residual(GOLDEN, expg, 12)) <= GOLDEN.d_abs(11)


def test_real_expansion_of_zero_is_zero():
    exp = ostrowski_real(SQRT2, 0, 10)
    assert exp.coeffs == (0,) * 10 and exp.shift == 0


def test_real_expansion_digit_constraints():
    for cf in (GOLDEN, SQRT2, SQRT3):
        for gamma in (Fraction(1, 3), Fraction(1, 7),
                      Fraction(123456789, 10**9), Fraction(-2, 7)):
            exp = ostrowski_real(cf, gamma, 25)
            caps = [cf.partial_quotient(k + 1) for k in range(25)]
            assert 0 <= exp.coeffs[0] < caps[0]
            for k in range(1, 25):
                assert 0 <= exp.coeffs[k] <= caps[k]
                if exp.coeffs[k] == caps[k]:
                    assert exp.coeffs[k - 1] == 0


def test_real_expansion_prefix_is_unique():
    # Exhaustive check: among all legal strings of length 8, only the
    # computed prefix reproduces gamma to within |D_7|.
    gamma = Fraction(1, 3)
    exp = ostrowski_real(SQRT2, gamma, 8)
    cap = SQRT2.d_abs(7)
    matches = []
    for s in legal_digit_strings(SQRT2, 8):
        total = ValidatedReal.exact_rational(0)
        for k, digit in enumerate(s):
            if digit:
                total = total + SQRT2.d_value(k) * digit
        if abs(ValidatedReal.exact_rational(gamma) - total) <= cap:
            matches.append(s)
    assert matches == [exp.coeffs]


@pytest.mark.parametrize("cf", [GOLDEN, SQRT2, SQRT3])
def test_telescoping_identity(cf):
    # a_{m+2} |D_{m+1}| + a_{m+4} |D_{m+3}| + ... + |D_end| = |D_m| exactly.
    for m in range(0, 21):
        total = ValidatedReal.exact_rational(0)
        j = m + 2
        while j - 1 <= 25:
            total = total + cf.d_abs(j - 1) * cf.partial_quotient(j)
            last = j
            j += 2
        total = total + cf.d_abs(last)
        assert (total - cf.d_abs(m)).sign() == 0


def test_inhom_bound_on_constructed_disagreement():
    gamma = Fraction(1, 3)
    depth = 16
    exp = ostrowski_real(SQRT2, gamma, depth)
    # Build n whose digits copy b below m and differ at m.
    m = 6
    digits = list(exp.coeffs[:m + 1])
    cap = SQRT2.partial_quotient(m + 1)
    digits[m] += 1 if digits[m] < cap else -1
    if digits[m] == cap and digits[m - 1] != 0:
        digits[m] -= 2  # keep the string legal
    while digits and digits[-1] == 0:
        digits.pop()
    n = sum(c * SQRT2.convergent(k).q for k, c in enumerate(digits))
    int_exp = ostrowski_int(SQRT2, n)
    assert int_exp.coeffs[:m] == exp.coeffs[:m]
    assert int_exp.coeffs[m] != exp.coeffs[m]

    bound = inhom_bound(SQRT2, int_exp, exp, m)
    delta = (int_exp.coeffs[m] if m < len(int_exp.coeffs) else 0) - exp.coeffs[m]
    assert bound.exact == Fraction(3 * max(1, abs(delta)),
                                   SQRT2.convergent(m + 1).q)
    # direct evaluation stays below the certified bound
    approx = sum(c * SQRT2.convergent(k).p for k, c in enumerate(int_exp.coeffs))
    err = abs(SQRT2.alpha() * n - approx - exp.gamma_norm)
    assert err <= bound

    with pytest.raises(DomainError):
        inhom_bound(SQRT2, int_exp, exp, 3)
    with pytest.raises(DomainError):
        inhom_bound(SQRT2, int_exp, exp, m + 1)  # digits differ below


def test_inhom_bound_with_agreeing_digit():
    # delta_{m+1} = 0 is allowed: the bound degenerates to 3/q_{m+1}
    gamma = Fraction(1, 3)
    exp = ostrowski_real(SQRT2, gamma, 16)
    n = sum(c * SQRT2.convergent(k).q for k, c in enumerate(exp.coeffs[:9]))
    int_exp = ostrowski_int(SQRT2, n)
    m = next(k for k in range(4, 9) if int_exp.coeffs[:k] == exp.coeffs[:k]
             and (int_exp.coeffs + (0,) * 16)[k] == exp.coeffs[k])
    bound = inhom_bound(SQRT2, int_exp, exp, m)
    assert bound.exact == Fraction(3, SQRT2.convergent(m + 1).q)


def test_tail_sign_law():
    for cf in (SQRT2, GOLDEN):
        for gamma in (Fraction(1, 3), Fraction(1, 7)):
            exp = ostrowski_real(cf, gamma, 30)
            seen = 0
            for m in range(4, 26):
                if exp.coeffs[m] != 0:
                    assert tail_sign(cf, exp, m) == (-1) ** m
                    seen += 1
            assert seen > 0
    exp = ostrowski_real(SQRT2, Fraction(1, 3), 30)
    with pytest.raises(DomainError):
        tail_sign(SQRT2, exp, 3)
    zero_at = next(m for m in range(4, 30) if exp.coeffs[m] == 0)
    with pytest.raises(DomainError):
        tail_sign(SQRT2, exp, zero_at)


def test_decimal_gamma_runs_out_of_precision():
    wide = ValidatedReal(Fraction(1, 3) - Fraction(1, 100),
                         Fraction(1, 3) + Fraction(1, 100))
    with pytest.raises(PrecisionError):
        ostrowski_real(SQRT2, wide, 12)


def test_normalize_gamma_undecidable_boundary():
    # an interval straddling 1 - {alpha} cannot certify its shift
    center = Fraction(58578643762690495, 10**17)  # ~ 1 - {sqrt(2)}
    straddle = ValidatedReal(center - Fraction(1, 100),
                             center + Fraction(1, 100))
    with pytest.raises(PrecisionError):
        normalize_gamma(SQRT2, straddle)


def test_partial_sum_converges_to_gamma():
    gamma = Fraction(123456789, 10**9)
    exp = ostrowski_real(SQRT2, gamma, 20)
    partial = real_partial_sum(SQRT2, exp, 20)
    err = abs(ValidatedReal.exact_rational(gamma) - exp.shift - partial)
    assert err <= SQRT2.d_abs(19)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 30).filter(lambda d: int(d ** 0.5) ** 2 != d),
       p=st.integers(-20, 20), q=st.integers(1, 12),
       num=st.integers(-10**15, 10**15), den=st.integers(1, 10**12),
       e=st.integers(20, 60), depth=st.integers(1, 60))
def test_interval_gamma_digits_match_exact_endpoints(d, p, q, num, den, e,
                                                     depth):
    # Endpoint expansions take the exact path, an independent reference for
    # the interval path: the digits of [lo, hi] are certified exactly when
    # both endpoints share them, and refused when they do not.
    cf = cf_from_quadratic(d, p, q)
    center, eps = Fraction(num, den), Fraction(1, 10**e)
    ends = [ostrowski_real(cf, center + s * eps, depth) for s in (-1, 1)]
    interval = ValidatedReal(center - eps, center + eps)
    if (ends[0].shift, ends[0].coeffs) == (ends[1].shift, ends[1].coeffs):
        exp = ostrowski_real(cf, interval, depth)
        assert (exp.shift, exp.coeffs) == (ends[0].shift, ends[0].coeffs)
    else:
        with pytest.raises(PrecisionError):
            ostrowski_real(cf, interval, depth)
