import math
from fractions import Fraction

import pytest

from ostro.confrac import cf_from_quadratic
from ostro.construct import construct_sweep, parse_gamma_spec, ApproxPair
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
