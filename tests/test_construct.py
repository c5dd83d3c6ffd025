import math
import signal
from fractions import Fraction

import mpmath
import pytest

from ostro import construct, numtheory
from ostro.cli import render_interval
from ostro.confrac import cf_from_quadratic, parse_alpha_spec
from ostro.coprimesearch import ProgressionQuery, growth_h
from ostro.construct import (ApproxPair, GenericGamma, LatticeGamma,
                             SearchCaps, base_pair, construct_coprime_approx,
                             construct_sweep, cross_term, gamma_value,
                             is_zero_gamma, n0_growth_check, parse_gamma_spec,
                             shifted_pair)
from ostro.errors import (CheckFailedError, DomainError, FactorBudgetError,
                          PrecisionError, SearchCapError, SpecParseError)
from ostro.numtheory import omega
from ostro.ostrowski import ostrowski_real
from ostro.validated import ValidatedReal

import fixtures

GOLDEN = cf_from_quadratic(5, 1, 2)
SQRT2 = cf_from_quadratic(2, 0, 1)
SQRT3 = cf_from_quadratic(3, 0, 1)


def test_parse_gamma_spec():
    assert parse_gamma_spec("lat:1,0") == LatticeGamma(1, 0)
    assert parse_gamma_spec("rat:0") == LatticeGamma(0, 0)
    assert parse_gamma_spec("rat:4/2") == LatticeGamma(0, 2)
    g = parse_gamma_spec("rat:1/3")
    assert isinstance(g, GenericGamma) and g.value.exact == Fraction(1, 3)
    g = parse_gamma_spec("dec:0.25@2")
    assert isinstance(g, GenericGamma)
    assert g.value.lo == Fraction(24, 100) and g.value.hi == Fraction(26, 100)
    for bad in ("", "lat:1", "rat:", "dec:0.5", "dec:0.5@0", "x:1"):
        with pytest.raises(SpecParseError):
            parse_gamma_spec(bad)


@pytest.mark.parametrize("body", ["0.5@0", "1.41@0", "0.5@-2", "0.5",
                                  "0.5@x", "x@3", "1/0@3"])
def test_dec_alpha_and_gamma_share_one_grammar(body):
    # One refusal for both: a bad `dec:` body is a parse error (exit 2),
    # never a domain error.
    with pytest.raises(SpecParseError):
        parse_gamma_spec(f"dec:{body}")
    with pytest.raises(SpecParseError):
        parse_alpha_spec(f"dec:{body}")


def test_gamma_value_and_zero_detection():
    assert is_zero_gamma(LatticeGamma(0, 0))
    assert not is_zero_gamma(LatticeGamma(1, 0))
    assert is_zero_gamma(GenericGamma(ValidatedReal.exact_rational(0)))
    v = gamma_value(SQRT2, LatticeGamma(1, 2))
    assert (v - SQRT2.alpha() - 2).sign() == 0


def test_base_pair_lattice():
    for i in (0, 3, 5, 9):
        bp = base_pair(SQRT2, LatticeGamma(0, 0), i)
        conv = SQRT2.convergent(i)
        assert (bp.m, bp.n) == (conv.p, conv.q)
    bp = base_pair(SQRT2, LatticeGamma(1, 2), 5)
    conv = SQRT2.convergent(5)
    assert (bp.m, bp.n) == (conv.p - 2, conv.q + 1)


def test_base_pair_generic():
    gamma = parse_gamma_spec("rat:1/3")
    bp = base_pair(SQRT2, gamma, 5)
    assert (bp.m, bp.n) == (93, 66)
    for i in range(4, 16):
        bp = base_pair(SQRT2, gamma, i)
        assert 0 <= bp.n < SQRT2.convergent(i).q
    with pytest.raises(DomainError):
        base_pair(SQRT2, gamma, 3)
    exp = ostrowski_real(SQRT2, gamma.value, 8)
    with pytest.raises(DomainError):
        base_pair(SQRT2, gamma, 12, expansion=exp)  # too shallow


def test_shifted_pair():
    bp = base_pair(SQRT2, LatticeGamma(0, 0), 5)
    assert shifted_pair(bp, SQRT2, 0, 0) == (bp.m, bp.n)
    p4, q4 = SQRT2.convergent(4).p, SQRT2.convergent(4).q
    assert shifted_pair(bp, SQRT2, 1, 0) == (bp.m + p4, bp.n + q4)
    ns = [shifted_pair(bp, SQRT2, 0, b)[1] for b in range(5)]
    assert all(ns[j] < ns[j + 1] for j in range(4))
    with pytest.raises(DomainError):
        shifted_pair(bp, SQRT2, -1, 0)


def test_cross_term_identity():
    # (-1)**(i+1) a form agrees with the determinant-style definition
    gamma = parse_gamma_spec("rat:1/3")
    for cf in (SQRT2, GOLDEN, SQRT3):
        for i in (4, 5, 8, 11):
            bp = base_pair(cf, gamma, i)
            conv = cf.convergent(i)
            for a in range(0, 101, 7):
                ma, na = shifted_pair(bp, cf, a, 0)
                assert cross_term(bp, cf, a) == na * conv.p - ma * conv.q
    # gamma = 0 collapses to the pure shift term
    for i in (4, 5, 6):
        bp = base_pair(SQRT2, LatticeGamma(0, 0), i)
        for a in (0, 1, 5):
            assert cross_term(bp, SQRT2, a) == (-1) ** (i + 1) * a


def test_zero_gamma_short_circuit():
    for i in (0, 4, 7):
        pair = construct_coprime_approx(SQRT2, LatticeGamma(0, 0), i)
        conv = SQRT2.convergent(i)
        assert (pair.m, pair.n, pair.a, pair.b) == (conv.p, conv.q, 0, 0)
        assert pair.err <= Fraction(1, SQRT2.convergent(i + 1).q)


def test_construct_regression_sqrt2_third_i10():
    pair = construct_coprime_approx(SQRT2, parse_gamma_spec("rat:1/3"), 10, 2.0)
    frozen = fixtures.REGRESSION_SQRT2_THIRD_I10
    assert (pair.a, pair.b, pair.m, pair.n) == \
        (frozen["a"], frozen["b"], frozen["m"], frozen["n"])
    assert pair.omega_cross == frozen["omega_cross"]
    assert pair.cap_used == frozen["cap_used"]
    assert math.gcd(pair.m, pair.n) == 1
    q10 = SQRT2.convergent(10).q
    assert pair.err <= Fraction(1 + pair.a + pair.b, q10)


def test_construct_picks_the_first_least_omega_shift():
    # Small cross terms put N_i(0) inside the window, so N_i(a) changes
    # sign and |N_i(a)| repeats; large ones keep one sign.
    for spec, i in (("lat:5,-7", 4), ("lat:12,-17", 6), ("rat:1/1000", 8),
                    ("rat:-1/50", 5), ("lat:-5,7", 5), ("rat:1/3", 12),
                    ("rat:2/7", 20)):
        gamma = parse_gamma_spec(spec)
        base = base_pair(SQRT2, gamma, i)
        n0 = cross_term(base, SQRT2, 0)
        width = max(1, math.ceil(growth_h(max(2, abs(n0)), 2.0)))
        best = min((omega(abs(cross_term(base, SQRT2, a))), a)
                   for a in range(1, width + 1)
                   if cross_term(base, SQRT2, a) != 0)
        pair = construct_coprime_approx(SQRT2, gamma, i)
        assert (pair.omega_cross, pair.a) == best


def test_construct_settles_few_window_entries(monkeypatch):
    primality_tests = []
    is_prime = numtheory.is_prime

    def counted(n):
        primality_tests.append(n)
        return is_prime(n)

    widths = []
    omega_window = construct.omega_window

    def recorded(lo, hi):
        widths.append(hi - lo + 1)
        return omega_window(lo, hi)

    monkeypatch.setattr(numtheory, "is_prime", counted)
    monkeypatch.setattr(construct, "omega_window", recorded)
    construct_coprime_approx(SQRT2, parse_gamma_spec("rat:1/3"), 40)
    assert len(widths) == 1
    assert 10 * len(primality_tests) <= widths[0]


def test_construct_golden_lattice_i8():
    pair = construct_coprime_approx(GOLDEN, LatticeGamma(1, 0), 8, 2.0)
    assert math.gcd(pair.m, pair.n) == 1
    assert pair.err <= Fraction(1 + pair.a + pair.b, GOLDEN.convergent(8).q)


def test_lattice_error_identity():
    # |n(a,b)*alpha - m(a,b) - gamma| = |(1+b) D_i + a D_{i-1}| exactly
    gamma = LatticeGamma(1, 2)
    gvr = gamma_value(SQRT2, gamma)
    alpha = SQRT2.alpha()
    for i in (2, 5, 8):
        bp = base_pair(SQRT2, gamma, i)
        for a in (0, 1, 3):
            for b in (0, 1, 4):
                m, n = shifted_pair(bp, SQRT2, a, b)
                lhs = abs(alpha * n - m - gvr)
                rhs = abs(SQRT2.d_value(i) * (1 + b)
                          + SQRT2.d_value(i - 1) * a)
                assert (lhs - rhs).sign() == 0


def test_construct_requires_index_at_least_4():
    with pytest.raises(DomainError):
        construct_coprime_approx(SQRT2, parse_gamma_spec("rat:1/3"), 3)


def test_window_crossing_zero_skips_the_vanishing_cross_term():
    # golden, gamma = alpha - 2: the cross term at i = 5 is -3 and the
    # scan window spans zero, which the a-scan must step over
    gamma = LatticeGamma(1, -2)
    bp = base_pair(GOLDEN, gamma, 5)
    assert cross_term(bp, GOLDEN, 0) == -3
    pair = construct_coprime_approx(GOLDEN, gamma, 5, 2.0)
    assert cross_term(bp, GOLDEN, pair.a) != 0
    assert math.gcd(pair.m, pair.n) == 1
    assert pair.err <= Fraction(1 + pair.a + pair.b, GOLDEN.convergent(5).q)


def test_sweep_records_failures_without_aborting():
    res = construct_sweep(SQRT2, parse_gamma_spec("rat:1/3"), range(3, 7))
    by_i = dict(res)
    assert isinstance(by_i[3], DomainError)
    assert isinstance(by_i[4], ApproxPair)
    assert isinstance(by_i[6], ApproxPair)
    [(_, res)] = construct_sweep(SQRT2, parse_gamma_spec("rat:1/3"), [0])
    assert isinstance(res, DomainError)


def test_quality_values():
    pair = construct_coprime_approx(SQRT2, LatticeGamma(0, 0), 6)
    expected = float(pair.err.hi) * pair.n / math.exp(
        2.0 * math.sqrt(math.log(pair.n)))
    assert pair.quality == pytest.approx(expected, rel=1e-12)
    # n = 1 edge: the scale factor collapses to 1
    unit = construct_coprime_approx(SQRT2, LatticeGamma(0, 0), 0)
    assert unit.n == 1
    assert unit.quality == float(unit.err.hi)


def test_quality_past_the_float_range_of_n():
    # |n| passes 1.8e308 from i = 806 on, while err*|n| stays about 0.4.
    rows = construct_sweep(SQRT2, parse_gamma_spec("rat:0"), range(806, 811))
    assert [i for i, _ in rows] == list(range(806, 811))
    for _, res in rows:
        assert isinstance(res, ApproxPair)
        n = abs(res.n)
        assert n > 2**1024
        with mpmath.workdps(50):
            ref = (mpmath.mpf(res.err.hi.numerator) / res.err.hi.denominator
                   * n / mpmath.exp(2 * mpmath.sqrt(mpmath.log(n))))
            assert abs(res.quality / ref - 1) <= 1e-12


def test_n0_growth_check():
    rows = n0_growth_check(SQRT2, parse_gamma_spec("rat:1/3"), range(6, 31))
    assert [r[0] for r in rows] == list(range(6, 31))
    assert rows[-1][2] == pytest.approx(1.0, abs=1e-6)
    rows = n0_growth_check(SQRT2, LatticeGamma(1, 0), range(6, 31))
    assert rows[-1][2] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DomainError):
        n0_growth_check(SQRT2, LatticeGamma(0, 0), range(6, 10))


# sqrt(2) to 50 decimals: its quotients are certified up to a_64.
SQRT2_DEC50 = parse_alpha_spec(
    "dec:1.41421356237309504880168872420969807856967187537694@50")


def test_n0_growth_check_near_the_decimal_horizon():
    rows = n0_growth_check(SQRT2_DEC50, parse_gamma_spec("rat:1/3"),
                           range(6, 58))
    assert [r[0] for r in rows] == list(range(6, 58))


def _row_key(res):
    if isinstance(res, ApproxPair):
        return (res.i, res.a, res.b, res.m, res.n, render_interval(res.err),
                res.quality, res.omega_cross, res.cap_used)
    return type(res), str(res)


@pytest.mark.parametrize("top", [57, 69])
def test_sweep_expands_gamma_once(monkeypatch, top):
    gamma = parse_gamma_spec("rat:1/3")
    calls = []

    def counting_ostrowski_real(cf, value, depth):
        calls.append(depth)
        return ostrowski_real(cf, value, depth)

    monkeypatch.setattr(construct, "ostrowski_real", counting_ostrowski_real)
    rows = construct_sweep(SQRT2_DEC50, gamma, range(5, top + 1))
    if top <= 64:
        assert calls == [top]
    else:
        # past the certified digits each row expands to its own index once
        assert calls == [top] + list(range(5, top + 1))
    monkeypatch.undo()
    for i, res in rows:
        if i > 64:
            assert isinstance(res, PrecisionError), (i, res)
        elif i in (57, 62, 64):
            # first_least must read a composite cofactor above budget**3
            assert isinstance(res, FactorBudgetError), (i, res)
        else:
            assert isinstance(res, ApproxPair), (i, res)
        try:
            alone = construct_coprime_approx(SQRT2_DEC50, gamma, i)
        except Exception as exc:
            alone = exc
        assert _row_key(res) == _row_key(alone), i


def test_rows_past_the_int64_range_are_pairs():
    # For sqrt 2 with gamma = 1/3, |N_i(a)| passes 2^62 at i = 51.
    gamma = parse_gamma_spec("rat:1/3")
    assert abs(cross_term(base_pair(SQRT2, gamma, 51), SQRT2, 0)) > 2**62
    for i, res in construct_sweep(SQRT2, gamma, range(51, 57)):
        assert isinstance(res, ApproxPair), (i, res)
        cross = cross_term(base_pair(SQRT2, gamma, i), SQRT2, res.a)
        assert res.omega_cross == omega(abs(cross)), i


def test_a_window_past_the_cap_is_refused_before_allocation():
    # At c = 20, h_c(|N_5(0)|) asks for about 1.4e9 shifts.
    gamma = parse_gamma_spec("rat:1/3")
    n0 = cross_term(base_pair(SQRT2, gamma, 5), SQRT2, 0)
    assert growth_h(abs(n0), 20.0) > construct.MAX_A_WINDOW
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(SearchCapError, match="a-window"):
            construct_coprime_approx(SQRT2, gamma, 5, c=20.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_search_caps_exhaustion_reports():
    # golden, gamma = 1/3, i = 5 needs b = 2; capping the search at b <= 1
    # must fail loudly with diagnostics, and the sweep must record it
    gamma = parse_gamma_spec("rat:1/3")
    pair = construct_coprime_approx(GOLDEN, gamma, 5)
    assert pair.b == 2
    with pytest.raises(SearchCapError):
        construct_coprime_approx(GOLDEN, gamma, 5, caps=SearchCaps(max_b=1))
    res = construct_sweep(GOLDEN, gamma, [5], caps=SearchCaps(max_b=1))
    assert isinstance(res[0][1], SearchCapError)


def _planted_fault(query):
    raise ZeroDivisionError("planted fault")


def test_sweep_lets_a_fault_propagate(monkeypatch):
    # Only typed errors become rows; anything else is a program fault.
    monkeypatch.setattr(construct, "find_coprime_shift", _planted_fault)
    with pytest.raises(ZeroDivisionError, match="planted fault"):
        construct_sweep(SQRT2, parse_gamma_spec("rat:1/3"), range(5, 7))


def test_cross_term_check_is_a_typed_error(monkeypatch):
    # N_i(a) must equal n_a p_i - m_a q_i; the check survives python -O.
    real = construct.cross_term
    monkeypatch.setattr(construct, "cross_term",
                        lambda base, cf, a: real(base, cf, a) + 1)
    gamma = parse_gamma_spec("rat:1/3")
    with pytest.raises(CheckFailedError, match="cross term"):
        construct_coprime_approx(SQRT2, gamma, 5)
    [(_, res)] = construct_sweep(SQRT2, gamma, [5])
    assert isinstance(res, CheckFailedError)


def test_cap_used_is_the_first_schedule_cap_clipped_to_max_b():
    # golden, gamma = 1/3, i = 5 needs b = 2: one scan finds it, and
    # A_used reports the schedule's first cap (16 or more) clipped to 2.
    gamma = parse_gamma_spec("rat:1/3")
    assert construct_coprime_approx(GOLDEN, gamma, 5).cap_used >= 16
    pair = construct_coprime_approx(GOLDEN, gamma, 5, caps=SearchCaps(max_b=2))
    assert (pair.b, pair.cap_used) == (2, 2)
    with pytest.raises(SearchCapError, match="no coprime shift up to 1 "):
        construct_coprime_approx(GOLDEN, gamma, 5, caps=SearchCaps(max_b=1))


def test_cap_used_doubles_until_it_reaches_b(monkeypatch):
    # Real sweeps need b <= 2; a search that skips b <= 32 exercises the
    # doubling: golden, gamma = 1/3, i = 5 starts its schedule at 16.
    gamma = parse_gamma_spec("rat:1/3")
    assert construct_coprime_approx(GOLDEN, gamma, 5).cap_used == 16
    scan = construct.find_coprime_shift

    def skip_32(q):
        b = scan(ProgressionQuery(q.m + 32 * q.r, q.n + 32 * q.s, q.r, q.s,
                                  q.a_max - 32))
        return None if b is None else b + 32

    monkeypatch.setattr(construct, "find_coprime_shift", skip_32)
    pair = construct_coprime_approx(GOLDEN, gamma, 5)
    assert 32 < pair.b <= 64 and pair.cap_used == 64
    pair = construct_coprime_approx(GOLDEN, gamma, 5, caps=SearchCaps(max_b=40))
    assert pair.cap_used == 40


PI_FRAC_50 = "0.14159265358979323846264338327950288419716939937510"


def _raise_timeout(signum, frame):
    raise TimeoutError("interval-gamma sweep ran past its guard")


def test_interval_gamma_sweep_matches_its_exact_center():
    # A gamma known to 50 digits decides every digit the construction needs
    # up to i = 50 (depth 74); it once hung from i = 25 on.
    center = Fraction(PI_FRAC_50)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        rows = construct_sweep(SQRT2, parse_gamma_spec(f"dec:{PI_FRAC_50}@50"),
                               range(5, 51))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    exact = construct_sweep(SQRT2, parse_gamma_spec(f"rat:{center}"),
                            range(5, 51))
    for (i, got), (_, want) in zip(rows, exact):
        assert isinstance(got, ApproxPair), (i, got)
        assert ((got.i, got.a, got.b, got.m, got.n, got.omega_cross,
                 got.cap_used) == (want.i, want.a, want.b, want.m, want.n,
                                   want.omega_cross, want.cap_used))
        got_hi = Fraction(render_interval(got.err)[1])
        assert got_hi >= Fraction(render_interval(want.err)[1])
        # |n*alpha - m - gamma| is convex in gamma: the endpoints of the
        # gamma interval bound it over the whole interval
        for end in (center - Fraction(1, 10**50), center + Fraction(1, 10**50)):
            assert abs(SQRT2.alpha() * got.n - got.m - end) <= got_hi
