import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostro import oracle
from ostro.confrac import cf_from_quadratic
from ostro.construct import construct_sweep, parse_gamma_spec, ApproxPair
from ostro.errors import SearchCapError
from ostro.oracle import (approx_error, best_coprime_approx, best_coprime_at)
from ostro.quadratic import QuadExt
from ostro.validated import ValidatedReal

import fixtures

GOLDEN = cf_from_quadratic(5, 1, 2)
SQRT2 = cf_from_quadratic(2, 0, 1)


def test_homogeneous_records_sit_at_convergent_denominators():
    recs = best_coprime_approx(SQRT2, 0, 12)
    assert [r.n for r in recs] == [1, 2, 5, 12]
    assert [r.m for r in recs] == [1, 3, 7, 17]
    assert (recs[0].err - (SQRT2.alpha() - 1)).sign() == 0


def test_record_errors_match_d_values():
    recs = best_coprime_approx(SQRT2, 0, 1000)
    qs = {c.q: c for c in SQRT2.convergents(12) if c.q <= 1000}
    assert [r.n for r in recs] == sorted(qs)
    for rec in recs:
        conv = qs[rec.n]
        assert (rec.err - abs(conv.D)).sign() == 0


def test_frozen_record_table():
    recs = best_coprime_approx(SQRT2, Fraction(1, 3), 500)
    assert [(r.n, r.m) for r in recs] == fixtures.RECORDS_SQRT2_THIRD_500
    errs = [float(r.err) for r in recs]
    assert all(errs[j] > errs[j + 1] for j in range(len(errs) - 1))
    assert all(math.gcd(r.m, r.n) == 1 for r in recs)


def test_approx_error():
    for i in (3, 6, 9):
        conv = SQRT2.convergent(i)
        err = approx_error(SQRT2, 0, conv.p, conv.q)
        assert (err - abs(conv.D)).sign() == 0
    # n = 0 degenerates to |m + gamma|; allowed here
    assert approx_error(SQRT2, Fraction(1, 3), 2, 0).exact == Fraction(7, 3)


def test_best_at_is_truly_minimal():
    for n in (6, 30, 210, 97):
        for gamma in (Fraction(1, 3), Fraction(2, 7)):
            m, err = best_coprime_at(SQRT2, gamma, n)
            assert math.gcd(m, n) == 1
            center = SQRT2.alpha() * n - gamma
            wide = [mm for mm in range(center.floor() - 8, center.floor() + 9)
                    if math.gcd(mm, n) == 1]
            best = min(wide, key=lambda mm: abs(float(center) - mm))
            assert abs(float(center) - m) == pytest.approx(
                abs(float(center) - best))


def test_gamma_equal_alpha_gives_exact_hit():
    recs = best_coprime_approx(SQRT2, SQRT2.alpha(), 50)
    assert len(recs) == 1
    assert (recs[0].n, recs[0].m) == (1, 0)
    assert recs[0].err.exact == 0


def test_gamma_from_another_field_scans_on_intervals():
    # sqrt(3) is exact but not in Q(sqrt 2): t = n*sqrt(2) - sqrt(3) falls
    # back to validated-real arithmetic.
    sqrt3 = QuadExt(3, 0, 1)
    recs = best_coprime_approx(SQRT2, ValidatedReal.from_quadratic(sqrt3), 300)
    assert [(r.n, r.m) for r in recs] == [(1, 0), (2, 1), (9, 11), (108, 151)]
    assert recs[0].err.exact is None
    m, err = best_coprime_at(SQRT2, sqrt3, 17)
    assert m == 22
    assert float(err) == pytest.approx(abs(17 * math.sqrt(2) - 22
                                           - math.sqrt(3)))


def test_sandwich_against_construction():
    for cf in (SQRT2, GOLDEN):
        for gname in ("rat:1/3", "lat:1,0"):
            gamma = parse_gamma_spec(gname)
            from ostro.construct import gamma_value
            gvr = gamma_value(cf, gamma)
            for i, pair in construct_sweep(cf, gamma, range(5, 12)):
                assert isinstance(pair, ApproxPair)
                if abs(pair.n) > 3000:
                    continue
                _, best = best_coprime_at(cf, gvr, pair.n)
                assert best <= pair.err


def test_error_agrees_with_construction():
    # the oracle's independent error evaluation must overlap the
    # construction's own certificate on the very same pair
    gamma = parse_gamma_spec("rat:1/3")
    from ostro.construct import construct_coprime_approx, gamma_value
    gvr = gamma_value(SQRT2, gamma)
    for i in (5, 8, 10):
        pair = construct_coprime_approx(SQRT2, gamma, i)
        err = approx_error(SQRT2, gvr, pair.m, pair.n)
        assert (err - pair.err).sign() == 0


def test_determinism_under_refinement():
    # same printed gamma at two precisions: identical record sets where
    # the scan stays decidable
    g10 = ValidatedReal(Fraction(1, 3) - Fraction(1, 10**10),
                        Fraction(1, 3) + Fraction(1, 10**10))
    g14 = ValidatedReal(Fraction(1, 3) - Fraction(1, 10**14),
                        Fraction(1, 3) + Fraction(1, 10**14))
    recs10 = best_coprime_approx(SQRT2, g10, 120)
    recs14 = best_coprime_approx(SQRT2, g14, 120)
    assert [(r.n, r.m) for r in recs10] == [(r.n, r.m) for r in recs14]
    exact = best_coprime_approx(SQRT2, Fraction(1, 3), 120)
    assert [(r.n, r.m) for r in recs10] == [(r.n, r.m) for r in exact]


def _best_reference(t, n):
    """The coprime m nearest to the QuadExt t and its error, as the
    oracle first computed them: abs(t - m) on each side."""
    left = t.floor()
    right = left + 1
    while math.gcd(left, n) != 1:
        left -= 1
    while math.gcd(right, n) != 1:
        right += 1
    e_left, e_right = abs(t - left), abs(t - right)
    if e_right < e_left:
        return right, e_right
    return left, e_left


def _records_reference(alpha, gamma, n_max):
    """The oracle's record scan as first written, in QuadExt arithmetic:
    t = alpha*n - gamma at every n, and a record when err < best."""
    records = []
    best = None
    for n in range(1, n_max + 1):
        m, err = _best_reference(alpha * n - gamma, n)
        if best is None or err < best:
            best = err
            records.append((n, m, ValidatedReal.wrap(err).exact))
    return records


_NONSQUARES = [d for d in range(2, 201) if math.isqrt(d) ** 2 != d]


@st.composite
def _scans(draw):
    """(cf, gamma, n_max, ns): alpha = (p + sqrt d)/q, and gamma rational,
    in the field, on the lattice, or on the lattice plus 1/2 (exact ties
    at n = l)."""
    d = draw(st.sampled_from(_NONSQUARES))
    cf = cf_from_quadratic(d, draw(st.integers(-50, 50)),
                           draw(st.integers(-12, 12).filter(bool)))
    alpha = cf.alpha().exact
    frac = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    kind = draw(st.sampled_from(["rational", "field", "lattice", "tie"]))
    if kind == "rational":
        gamma = draw(frac)
    elif kind == "field":
        gamma = QuadExt(d, draw(frac), draw(frac))
    else:
        shift = draw(st.integers(-5, 5)) if kind == "lattice" else Fraction(1, 2)
        gamma = alpha * draw(st.integers(-5, 10)) + shift
    n_max = draw(st.integers(1, 300))
    ns = draw(st.lists(st.integers(1, n_max), min_size=1, max_size=4))
    return cf, gamma, n_max, ns


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scans())
@example((SQRT2, SQRT2.alpha().exact * 4 + Fraction(1, 2), 40, [4]))  # tie
def test_integer_scan_matches_the_quadext_loop(scan):
    cf, gamma, n_max, ns = scan
    alpha = cf.alpha().exact
    assert ([(r.n, r.m, r.err.exact) for r in best_coprime_approx(
        cf, gamma, n_max)] == _records_reference(alpha, gamma, n_max))
    for n in ns:
        m, err = best_coprime_at(cf, gamma, n)
        ref_m, ref_err = _best_reference(alpha * n - gamma, n)
        assert (m, err.exact) == (ref_m, ValidatedReal.wrap(ref_err).exact)


def test_exact_tie_goes_to_the_smaller_m():
    # t_1 = sqrt(2) - (1/2 + sqrt(2)) = -1/2, halfway between -1 and 0.
    m, err = best_coprime_at(SQRT2, QuadExt(2, Fraction(1, 2), 1), 1)
    assert (m, err.exact) == (-1, Fraction(1, 2))


def test_a_row_without_a_sqrt_d_part():
    # gamma = 3*sqrt(2) + 1/3, so t_3 = -1/3 is rational.
    gamma = QuadExt(2, Fraction(1, 3), 3)
    recs = best_coprime_approx(SQRT2, gamma, 10)
    assert ([(r.n, r.m, r.err.exact) for r in recs]
            == _records_reference(SQRT2.alpha().exact, gamma, 10))
    # 0 shares the factor 3 with n = 3, so -1 is the nearest coprime m.
    m, err = best_coprime_at(SQRT2, gamma, 3)
    assert (m, err.exact) == (-1, Fraction(2, 3))


def test_side_scan_cap_raises_a_typed_error(monkeypatch):
    # t_6 = 6*sqrt(2) - 1/3 has floor 8, which shares a factor with 6.
    monkeypatch.setattr(oracle, "_SIDE_SCAN_CAP", 1)
    with pytest.raises(SearchCapError):
        best_coprime_at(SQRT2, Fraction(1, 3), 6)
    with pytest.raises(SearchCapError):
        best_coprime_approx(SQRT2, Fraction(1, 3), 6)
