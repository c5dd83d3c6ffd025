import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro import numtheory
from ostro.errors import DomainError, FactorBudgetError
from ostro.numtheory import (euler_phi, factor_budget, factorize, gcd,
                             is_prime, mobius, omega, omega_window,
                             prime_count, primes_up_to, squarefree_divisors)

import fixtures


def test_gcd_basics():
    assert gcd(12, 18) == 6
    assert gcd(7, 1) == 1
    assert gcd(-4, 6) == 2
    with pytest.raises(DomainError):
        gcd(0, 0)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(9991).factors == ((97, 1), (103, 1))
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_budget_and_prime_square_cofactor():
    p, q = 10000019, 10000079
    with pytest.raises(FactorBudgetError):
        factorize(p * q, budget=10**6)
    # a prime-square cofactor is still factorable
    assert factorize(p * p, budget=10**6).factors == ((p, 2),)
    # p is the least prime above the default budget; p**4 > psi_13 is
    # settled by two square roots
    assert factorize(p**4).factors == ((p, 4),)
    assert omega(p**4) == 1
    # both factors under the default trial bound
    assert factorize(1000003 * 1000033).factors == \
        ((1000003, 1), (1000033, 1))


def test_factorization_primes_are_prime():
    for n in (2, 12, 360, 9991, 2**20 - 1, 10**9 + 7, 30030 * 9991):
        for p, e in factorize(n).factors:
            assert e >= 1 and is_prime(p)


def test_omega_mobius_phi_examples():
    assert omega(1) == 0
    assert omega(12) == 2
    assert omega(30030) == 6
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(9991) == 9792
    with pytest.raises(DomainError):
        omega(0)


def test_omega_succeeds_past_the_factor_budget():
    # composite cofactor of two distinct primes: omega is still decidable
    assert omega(10000019 * 10000079, budget=10**6) == 2
    assert omega(4 * 10000019 * 10000079, budget=10**6) == 3


def test_products_past_psi_13_are_settled_by_trial_division():
    # 1009 * ... * 1051 ~ 1.3e27 exceeds psi_13, where is_prime refuses,
    # yet trial division alone factors it completely.
    primes = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051)
    n = math.prod(primes)
    assert n > PSI[-1]
    assert factorize(n).primes == primes
    assert omega(n) == 9
    assert mobius(n) == -1


SMALL_PRIMES = [p for p in range(2, 10**4)
                if all(p % q for q in range(2, math.isqrt(p) + 1))]
# Primes between 10^4 and psi_13; primality of each was checked with an
# independent BPSW test.
LARGE_PRIMES = (10007, 1000003, 10**9 + 7, 2**31 - 1, 10**12 + 39,
                10**15 + 37, 2**61 - 1, 10**18 + 3, 10**20 + 39,
                604462909807314587353111, 10**24 + 7)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(picks=st.lists(st.sampled_from(SMALL_PRIMES[:30])
                      | st.sampled_from(SMALL_PRIMES), max_size=40),
       extra=st.none() | st.sampled_from(LARGE_PRIMES))
def test_factorize_recovers_planted_factors(picks, extra):
    planted: dict[int, int] = {}
    n = 1
    for p in picks:
        if n * p > 2**128:
            break
        n *= p
        planted[p] = planted.get(p, 0) + 1
    if extra is not None:
        n *= extra
        planted[extra] = 1
    assert factorize(n).factors == tuple(sorted(planted.items()))


def _prev_prime_by_trial_division(n: int) -> int:
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(x=st.integers(2**16 + 1, 10**7),
       picks=st.lists(st.sampled_from(SMALL_PRIMES[:30]), max_size=30),
       extra=st.none() | st.sampled_from(LARGE_PRIMES))
def test_factorize_finds_a_planted_prime_past_the_cached_list(x, picks, extra):
    # p lies in (2^16, 10^7], where trial division tests a whole checkpoint
    # stage of the numpy table at once.
    p = _prev_prime_by_trial_division(x)
    planted = {p: 1}
    n = p
    if extra is not None:
        n *= extra
        planted[extra] = planted.get(extra, 0) + 1
    for q in picks:
        if n * q > 2**128:
            break
        n *= q
        planted[q] = planted.get(q, 0) + 1
    assert factorize(n).factors == tuple(sorted(planted.items()))


def test_neg_mod_matches_python():
    rng = random.Random(20250)
    values = [1, 2**62 - 1, 2**62, 2**62 + 1, 2**63, 2**64 + 7]
    values += [rng.getrandbits(rng.randint(1, 400)) for _ in range(8)]
    for top in (2, 65537, 10**6, 10**7):
        ps = primes_up_to(top)
        plain = ps.tolist()
        for lo in values:
            assert numtheory._neg_mod(lo, ps).tolist() == \
                [(-lo) % p for p in plain], (top, lo)


def test_prime_count():
    assert prime_count(1) == 0
    assert prime_count(10) == 4
    assert prime_count(10**6) == 78498
    with pytest.raises(DomainError):
        prime_count(10, sieve_budget=5)


def test_squarefree_divisors():
    assert squarefree_divisors(1) == [1]
    assert squarefree_divisors(12) == [1, 2, 3, 6]
    assert squarefree_divisors(30) == [1, 2, 3, 5, 6, 10, 15, 30]
    for n in (2, 9, 30, 360, 9991, 30030):
        assert len(squarefree_divisors(n)) == 2 ** omega(n)


def test_mobius_fundamental_identity_and_phi_inversion():
    limit = 10**4
    mu = [0] * (limit + 1)
    for d in range(1, limit + 1):
        mu[d] = mobius(d)
    mu_sum = [0] * (limit + 1)
    phi_sum = [0] * (limit + 1)
    for d in range(1, limit + 1):
        if mu[d] == 0:
            continue
        for n in range(d, limit + 1, d):
            mu_sum[n] += mu[d]
            phi_sum[n] += mu[d] * (n // d)
    for n in range(1, limit + 1):
        assert mu_sum[n] == (1 if n == 1 else 0)
    for n in range(1, limit + 1):
        assert phi_sum[n] == euler_phi(n)


def test_phi_ratio_fixture():
    sample = list(range(3, 10**6, fixtures.KAPPA0_SAMPLE_STEP))
    sample += list(fixtures.KAPPA0_EXTRA)
    worst = min(
        (euler_phi(n) / n) * math.log(math.log(n)) for n in sample)
    assert worst == pytest.approx(fixtures.KAPPA0, rel=1e-12)
    for n in sample:
        assert euler_phi(n) / n >= fixtures.KAPPA0 / math.log(math.log(n)) * (1 - 1e-12)


# Deterministic prime sums for the Mertens spot checks.

_FIXED_BITS = 96


def sum_recip_primes(x: int, exact_limit: int = 10**5) -> Fraction:
    """Sum of 1/p over primes p <= x.

    Exact rationals up to exact_limit, then 96-bit fixed point: the result
    is identical on every platform.
    """
    ps = primes_up_to(x)
    small = [int(p) for p in ps if p <= exact_limit]
    big = [int(p) for p in ps if p > exact_limit]

    def tree(terms: list[int]) -> tuple[int, int]:
        if not terms:
            return 0, 1
        if len(terms) == 1:
            return 1, terms[0]
        mid = len(terms) // 2
        n1, d1 = tree(terms[:mid])
        n2, d2 = tree(terms[mid:])
        return n1 * d2 + n2 * d1, d1 * d2

    num, den = tree(small)
    total = Fraction(num, den)
    scale = 1 << _FIXED_BITS
    fixed = sum(scale // p for p in big)
    return total + Fraction(fixed, scale)


def prod_one_minus_recip_primes(x: int, exact_limit: int = 10**5) -> Fraction:
    """Product of (1 - 1/p) over primes p <= x, same hybrid scheme."""
    ps = primes_up_to(x)
    num = 1
    den = 1
    for p in (int(q) for q in ps if q <= exact_limit):
        num *= p - 1
        den *= p
    total = Fraction(num, den)
    scale = 1 << _FIXED_BITS
    acc = scale
    for p in (int(q) for q in ps if q > exact_limit):
        acc = acc * (p - 1) // p
    return total * Fraction(acc, scale)


def test_mertens_spot_checks():
    getcontext().prec = 40
    x = 10**6
    lnx = Decimal(x).ln()
    s = sum_recip_primes(x)
    ratio_sum = float(Decimal(s.numerator) / Decimal(s.denominator) / lnx.ln())
    assert ratio_sum == pytest.approx(fixtures.MERTENS_SUM_RATIO, rel=1e-6)
    p = prod_one_minus_recip_primes(x)
    ratio_prod = float(Decimal(p.numerator) / Decimal(p.denominator) * lnx)
    assert ratio_prod == pytest.approx(fixtures.MERTENS_PROD_RATIO, rel=1e-6)


def test_omega_window_matches_pointwise_omega():
    lo, hi = 1, 400
    assert list(omega_window(lo, hi)) == [omega(n) for n in range(lo, hi + 1)]
    base = 10**12 + 39
    assert list(omega_window(base, base + 50)) == \
        [omega(n) for n in range(base, base + 51)]
    with pytest.raises(DomainError):
        omega_window(0, 5)


def _omega_or_refusal(read):
    try:
        return read()
    except FactorBudgetError:
        return "refused"


@pytest.mark.parametrize("lo, hi", [(2**62 - 20, 2**62 + 20),
                                    (10**30 - 30, 10**30 + 30)])
def test_omega_window_past_the_int64_range(lo, hi):
    # Near 10^30 some cofactors are past budget**3: the window refuses
    # exactly the entries that pointwise omega refuses.
    window = omega_window(lo, hi)
    got = [_omega_or_refusal(lambda k=k: window[k]) for k in range(len(window))]
    assert got == [_omega_or_refusal(lambda n=n: omega(n))
                   for n in range(lo, hi + 1)]


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(561) and not is_prime(10**12)
    # strong pseudoprime to several bases, caught by the witness set
    assert not is_prime(3215031751)


# psi_k: the least strong pseudoprime to each of the first k prime bases
# (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2017).
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
       3474749660383, 341550071728321, 341550071728321,
       3825123056546413051, 3825123056546413051, 3825123056546413051,
       318665857834031151167461, 3317044064679887385961981)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_rejects_every_psi_k():
    assert numtheory._MR_PSI == PSI
    for k, psi in enumerate(PSI, 1):
        # psi_k fools the first k bases, so is_prime must test more.
        assert all(strong_probable_prime(psi, a) for a in PRIME_BASES[:k])
        if k < len(PSI):
            assert not is_prime(psi)
    assert PSI[11] % 399165290221 == 0
    with pytest.raises(DomainError):
        is_prime(PSI[-1])


def test_is_prime_in_every_base_range():
    # Primality of these was checked with an independent BPSW test.
    for p in (2**31 - 1, 10**12 + 39, 2**61 - 1, 10**20 + 39,
              604462909807314587353111, 10**24 + 7):
        assert is_prime(p)
    for n in ((10**9 + 7) * (10**12 + 39), (2**31 - 1) * (10**15 + 37)):
        assert not is_prime(n)


def test_omega_settles_the_root_of_a_square_cofactor():
    n = (101 * 103) ** 2
    assert omega(n, budget=100) == 2
    assert omega_window(n, n, budget=100)[0] == 2
    with pytest.raises(FactorBudgetError):
        factorize(n, budget=100)
    # A composite root beyond budget**3 cannot be settled: refuse.
    n = (11 * 13 * 17) ** 2
    with pytest.raises(FactorBudgetError):
        omega(n, budget=10)
    with pytest.raises(FactorBudgetError):
        omega_window(n, n, budget=10)[0]


def test_omega_of_a_prime_square_past_psi_13():
    # p*p ~ 4e24 is past psi_13, where is_prime refuses, but its root is
    # not: the square test must come first, as it does in factorize.
    p = 2 * 10**12 + 3
    assert p * p > PSI[-1]
    assert omega(p * p) == 1 == len(factorize(p * p).factors)


def test_icbrt_ceil():
    for n in list(range(200)) + [2**61, 2**62 - 1, 10**18, 10**18 + 1]:
        r = numtheory._icbrt_ceil(n)
        assert r**3 >= n and (r == 0 or (r - 1) ** 3 < n)


def test_icbrt_ceil_past_float_range():
    # n ** (1/3) overflows above ~1.8e308 and is off by far more than 1
    # from ~1e65 up; the integer root must not depend on it.
    for n in (10**65, 10**80, 10**80 + 1, 2**1100, 3**999, 3**999 - 1,
              (10**40 + 7) ** 3, (10**40 + 7) ** 3 + 1):
        r = numtheory._icbrt_ceil(n)
        assert r**3 >= n and (r - 1) ** 3 < n


def test_omega_of_huge_smooth_numbers():
    assert omega(10**80) == 2
    assert omega(2**1100) == 1
    assert omega(3**500 * 7**300) == 2


def test_factorize_prime_square_cofactor_past_psi_13():
    p = 2 * 10**12 + 3  # prime, and p**2 ~ 4e24 exceeds psi_13
    assert is_prime(p) and p * p > PSI[-1]
    assert factorize(p * p, budget=10**6).factors == ((p, 2),)
    assert factorize(6 * p * p, budget=10**6).factors == \
        ((2, 1), (3, 1), (p, 2))
    # A cofactor past psi_13 that is not a prime square stays undecided.
    with pytest.raises(DomainError):
        factorize(p * (10**15 + 37), budget=10**6)


def brute_first_least(values, order) -> int:
    ranked = list(dict.fromkeys(order))
    return min(ranked, key=lambda k: (values[k], ranked.index(k)))


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


windows = settings(max_examples=30, deadline=None, derandomize=True,
                   database=None)


@settings(windows, max_examples=15)
@given(hi=st.integers(2**40, 2**61), width=st.integers(1, 30),
       data=st.data())
def test_large_window_matches_pointwise_omega(hi, width, data):
    lo = hi - width + 1
    window = omega_window(lo, hi)
    expected = [omega(n) for n in range(lo, hi + 1)]
    order = data.draw(st.lists(st.integers(0, width - 1), min_size=1))
    k = window.first_least(order)
    assert k == brute_first_least(expected, order)
    assert window[k] == expected[k]
    assert len(window) == width
    assert list(window) == expected
    assert window.first_least(range(width)) == \
        brute_first_least(expected, range(width))


@windows
@given(hi=st.integers(2**40, 2**61), width=st.integers(1, 40),
       square=st.booleans(), data=st.data())
def test_planted_two_prime_cofactors(hi, width, square, data):
    # p, q > ceil(cbrt(hi)) + 1 >= the sieve bound, and m < cbrt(hi) is
    # sieved away, so the cofactor of n is exactly p*q (or p*p).
    p = next_prime(numtheory._icbrt_ceil(hi) + 2)
    q = p if square else next_prime(p + 1)
    m = max(1, hi // (p * q))
    n = m * p * q
    lo = max(1, n - data.draw(st.integers(0, width - 1)))
    seen = []
    settle = numtheory._cofactor

    def spy(rem, bound):
        seen.append((rem, settle(rem, bound)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtheory, "_cofactor", spy)
        window = omega_window(lo, lo + width - 1)
        values = list(window)
    # None: two distinct primes above the sieve bound, counted unfound.
    assert (p * q, [(p, 2)] if square else None) in seen
    expected = [omega(v) for v in range(lo, lo + width)]
    assert values == expected
    assert values[n - lo] == omega(m) + (1 if square else 2)
    assert window.first_least(range(width)) == \
        brute_first_least(expected, range(width))


@windows
@given(kind=st.sampled_from(("p*q", "p**2", "p*q*r")), x=st.integers(2, 2**20))
def test_pointwise_omega_matches_the_window_on_planted_values(kind, x):
    if kind == "p*q*r":
        p = next_prime(x)
        q = next_prime(p + 1)
        n, expected = p * q * next_prime(q + 1), 3
    else:
        p = next_prime(x * 2**10)
        q = p if kind == "p**2" else next_prime(p + 1)
        n, expected = p * q, 1 if p == q else 2
    assert omega(n) == omega_window(n, n)[0] == expected


def test_unread_entry_beyond_the_budget_does_not_raise():
    # 2006 = 2*17*59 heads the window, and with budget 10 its cofactor
    # 1003 > 10**3 cannot be settled; the prime 2011 has the lower floor,
    # so 2006 is never read.
    lo, hi = 2006, 2011
    assert omega(2006) == 3 and is_prime(2011)
    window = omega_window(lo, hi, budget=10)
    k = window.first_least(range(len(window)))
    assert lo + k == 2011 and window[k] == 1
    expected = [omega(n) for n in range(lo, hi + 1)]
    assert k == brute_first_least(expected, range(len(expected)))
    with pytest.raises(FactorBudgetError):
        window[0]


@windows
@given(lo=st.integers(2**20, 2**34), width=st.integers(1, 60),
       budget=st.integers(2, 1000))
def test_small_budget_minimum_is_certified_or_refused(lo, width, budget):
    hi = lo + width - 1
    window = omega_window(lo, hi, budget=budget)
    expected = [omega(n) for n in range(lo, hi + 1)]
    try:
        k = window.first_least(range(width))
    except FactorBudgetError:
        k = None
    if k is not None:
        assert k == brute_first_least(expected, range(width))
        assert window[k] == expected[k]
    for j in range(width):
        try:
            value = window[j]
        except FactorBudgetError:
            continue
        assert value == expected[j]


def test_factor_budget_env(monkeypatch):
    # The bound is fixed; the environment no longer overrides it.
    monkeypatch.setenv("OSTRO_FACTOR_BUDGET", "12345")
    assert factor_budget() == 10**7
