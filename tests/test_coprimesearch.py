import math
import signal
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro.coprimesearch import (ProgressionQuery, count_coprime_bruteforce,
                                 count_coprime_mobius, find_coprime_shift,
                                 find_low_omega, growth_g, growth_h,
                                 low_omega_interval)
from ostro.errors import DomainError, SearchCapError
from ostro.numtheory import euler_phi, factorize, omega, squarefree_divisors

import fixtures


def test_query_invariants():
    with pytest.raises(DomainError):
        ProgressionQuery(1, 1, 2, 4, 5)  # (r, s) != 1
    with pytest.raises(DomainError):
        ProgressionQuery(2, 1, 2, 1, 5)  # nr = ms
    with pytest.raises(DomainError):
        ProgressionQuery(1, 2, 2, 1, 0)  # empty range
    with pytest.raises(DomainError):
        ProgressionQuery(1, 2, 0, 1, 3)


def test_bruteforce_examples():
    assert count_coprime_bruteforce(ProgressionQuery(1, 1, 2, 3, 10)) == 10
    assert count_coprime_bruteforce(ProgressionQuery(2, 3, 3, 5, 1)) == 1
    q = ProgressionQuery(1, 2, 2, 1, 5)
    direct = sum(1 for b in range(1, 6) if math.gcd(1 + 2 * b, 2 + b) == 1)
    assert count_coprime_bruteforce(q) == direct


def test_mobius_count_examples():
    assert count_coprime_mobius(ProgressionQuery(1, 1, 2, 3, 10)) == 10
    assert count_coprime_mobius(ProgressionQuery(2, 1, 3, 2, 7)) == 7
    # shared factors between (m, r) make the naive reduction lossy; the
    # exact count still matches the scan
    q = ProgressionQuery(2, 1, 4, 1, 1)
    assert count_coprime_bruteforce(q) == count_coprime_mobius(q) == 0


def test_oracle_equivalence_small_grid():
    for m in range(1, 9):
        for n in range(1, 9):
            for r in range(1, 7):
                for s in range(1, 7):
                    if math.gcd(r, s) != 1 or n * r == m * s:
                        continue
                    for a_max in (1, 2, 5, 17):
                        q = ProgressionQuery(m, n, r, s, a_max)
                        assert count_coprime_mobius(q) == \
                            count_coprime_bruteforce(q)


def test_lower_bound_form():
    # count >= A*phi(|nr-ms|)/|nr-ms| - 2**omega(nr-ms)
    for m in range(1, 9):
        for n in range(1, 9):
            for r in range(1, 6):
                for s in range(1, 6):
                    if math.gcd(r, s) != 1 or n * r == m * s:
                        continue
                    q = ProgressionQuery(m, n, r, s, 30)
                    cross = abs(q.cross)
                    low = 30 * euler_phi(cross) / cross - 2 ** omega(cross)
                    assert count_coprime_bruteforce(q) >= low


def test_ef_bijection_enumeration():
    # In the coprime case, every admissible e pairs with exactly one f.
    queries = [(1, 2, 2, 1, 8), (3, 5, 4, 3, 10), (2, 7, 5, 2, 12),
               (5, 3, 2, 5, 9), (1, 11, 3, 1, 7)]
    for m, n, r, s, a_max in queries:
        if n * r - m * s < 0:
            m, n, r, s = n, m, s, r  # orient the cross term positive
        assert math.gcd(m, r) == 1 and math.gcd(n, s) == 1
        cross = n * r - m * s
        for d in squarefree_divisors(cross):
            if math.gcd(d, r) != 1:
                continue
            e_hi = (m + a_max * r) // d
            for e in range(1, e_hi + 1):
                if (e * d) % r != m % r:
                    continue
                b_num = e * d - m
                assert b_num % r == 0
                b = b_num // r
                f_candidates = [
                    f for f in range(1, (n + a_max * s) // d + 1)
                    if (f * d) % s == n % s and f * d - n == b * s]
                assert len(f_candidates) == 1, (m, n, r, s, d, e)


def test_mobius_count_with_nonpositive_starts():
    # lattice shifts can push m or n negative; the count stays exact
    for m, n, r, s, a_max in ((-3, 5, 4, 3, 20), (7, -2, 5, 9, 30),
                              (-4, -9, 2, 7, 25), (0, 5, 3, 2, 15)):
        q = ProgressionQuery(m, n, r, s, a_max)
        assert count_coprime_mobius(q) == count_coprime_bruteforce(q)


SMALL_PRIMES = [p for p in range(2, 10**4)
                if all(p % q for q in range(2, math.isqrt(p) + 1))]


def next_prime_below_1e8(n: int) -> int:
    while any(n % p == 0 for p in SMALL_PRIMES if p * p <= n):
        n += 1
    return n


def planted_query(primes, sign, r, s, t, a_max) -> ProgressionQuery:
    """A query whose cross term nr - ms is sign * prod(primes)."""
    while math.gcd(r, s) > 1:
        s //= math.gcd(r, s)
    cross = sign * math.prod(primes)
    # n*r - m*s = cross: n = cross * r^-1 (mod s), shifted by t*s.
    n = (cross * pow(r, -1, s)) % s + t * s
    m = (n * r - cross) // s
    q = ProgressionQuery(m, n, r, s, a_max)
    assert q.cross == cross
    return q


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mobius_walk_matches_scan_on_planted_cross_terms(data):
    primes = data.draw(st.lists(st.sampled_from(SMALL_PRIMES[:25])
                                | st.sampled_from(SMALL_PRIMES),
                                min_size=1, max_size=9, unique=True))
    if data.draw(st.booleans()):
        big = data.draw(st.integers(10**6 + 1, 10**7 - 10**3))
        primes.append(next_prime_below_1e8(big))
    # Primes of the cross term that divide r also divide m; those of
    # r_free divide r but, as a rule, not m.
    shared = data.draw(st.lists(st.sampled_from(primes), max_size=3,
                                unique=True))
    r_free = data.draw(st.integers(1, 10**3))
    q = planted_query(primes, data.draw(st.sampled_from((1, -1))),
                      math.prod(shared) * r_free,
                      data.draw(st.integers(1, 10**6)),
                      data.draw(st.integers(-10**4, 10**4)),
                      data.draw(st.integers(1, 2000)))
    assert all(q.m % p == 0 for p in shared)
    assert count_coprime_mobius(q) == count_coprime_bruteforce(q)


def test_mobius_walk_over_512_subsets():
    # Nine primes give 2**9 classes; with A = 1 nearly every subtree is
    # dropped at its root, and the cross term (~1.3e27) lies past psi_13.
    primes = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051)
    for r, s, t in ((1, 1, 0), (1009 * 7, 10**6 + 1, -3), (11, 1013, 5)):
        for a_max in (1, 2, 40):
            q = planted_query(primes, -1, r, s, t, a_max)
            assert count_coprime_mobius(q) == count_coprime_bruteforce(q)


def test_find_coprime_shift():
    assert find_coprime_shift(ProgressionQuery(1, 2, 2, 1, 2)) == 2
    assert find_coprime_shift(ProgressionQuery(2, 3, 3, 5, 5)) == 1
    # exhaustive search for an instance where every b <= a_max fails
    witness = None
    for m in range(1, 7):
        for n in range(1, 7):
            for r in range(1, 5):
                for s in range(1, 5):
                    if math.gcd(r, s) != 1 or n * r == m * s:
                        continue
                    q = ProgressionQuery(m, n, r, s, 1)
                    if find_coprime_shift(q) is None:
                        witness = q
    assert witness is not None
    assert count_coprime_bruteforce(witness) == 0


def test_growth_functions_against_decimal_oracle():
    getcontext().prec = 50
    ln2 = Decimal(2).ln()

    def g_ref(x, c):
        return (Decimal(c) * Decimal(x).ln().sqrt() * ln2).exp()

    def h_ref(x, c):
        g = g_ref(x, c)
        return g / (g.ln() * g.ln().ln())

    for x, c in ((10**4, 2.0), (10**6, 2.0), (10**8, 2.0), (1000, 1.5),
                 (50, 3.0)):
        assert growth_g(x, c) == pytest.approx(float(g_ref(x, c)), rel=1e-12)
        assert growth_h(x, c) == pytest.approx(float(h_ref(x, c)), rel=1e-12)
    assert growth_g(10**6, 2.0) == pytest.approx(fixtures.GROWTH_G_1E6_C2,
                                                 rel=1e-12)
    assert growth_h(10**6, 2.0) == pytest.approx(fixtures.GROWTH_H_1E6_C2,
                                                 rel=1e-12)


def test_growth_special_points_and_domain():
    assert growth_g(math.exp(4), 2.0) == pytest.approx(16.0, rel=1e-12)
    assert growth_g(math.e, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert growth_h(math.exp(4), 2.0) == pytest.approx(
        fixtures.GROWTH_H_E4_C2, rel=1e-12)
    assert growth_h(10**8, 2.0) > growth_h(10**6, 2.0)
    with pytest.raises(DomainError):
        growth_g(1, 2.0)
    with pytest.raises(DomainError):
        growth_g(0.5, 2.0)
    # just above x = 1 the inner log is positive but g <= e
    with pytest.raises(DomainError):
        growth_h(1.0001, 0.1)
    with pytest.raises(DomainError):
        growth_g(10**6, 0.0)
    # 1000 is finite, but 2**(c*sqrt(log x)) overflows a float.
    for c in (math.nan, math.inf, -math.inf, 1000.0):
        with pytest.raises(DomainError):
            growth_g(10**6, c)


def test_find_low_omega_examples():
    n, w = find_low_omega(16, 2.0)
    assert (n, w) == (16, 1)  # 16 = 2**4 heads its interval
    n, w = find_low_omega(10**6, 2.0)
    assert w == 1  # 1000003 is prime and inside the window
    with pytest.raises(DomainError):
        find_low_omega(2, 2.0)


def _raise_timeout(signum, frame):
    raise TimeoutError("find_low_omega ran past its guard")


def test_find_low_omega_refuses_a_window_past_the_cap():
    # h_20(29) is about 1.36e9 integers; the refusal must come before
    # the window is built.
    assert low_omega_interval(10**18, 3.0) == (10**18, 10**18 + 18763)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        with pytest.raises(SearchCapError, match="exceeds 1048576"):
            find_low_omega(29, 20.0)
        n, w = find_low_omega(10**18, 3.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (n, w) == (10**18 + 3, 1)


def test_find_low_omega_matches_second_scan():
    for x in (10**3, 4567, 10**5 + 1, 999983):
        lo, hi = low_omega_interval(x, 2.0)
        best = min(
            ((len(factorize(v).factors), v) for v in range(lo, hi + 1)))
        n, w = find_low_omega(x, 2.0)
        assert (w, n) == best
