import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

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
    assert omega_window(lo, hi) == [omega(n) for n in range(lo, hi + 1)]
    base = 10**12 + 39
    assert omega_window(base, base + 50) == \
        [omega(n) for n in range(base, base + 51)]
    with pytest.raises(DomainError):
        omega_window(0, 5)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(561) and not is_prime(10**12)
    # strong pseudoprime to several bases, caught by the witness set
    assert not is_prime(3215031751)


def test_factor_budget_env(monkeypatch):
    monkeypatch.delenv("OSTRO_FACTOR_BUDGET", raising=False)
    assert factor_budget() == 10**7
    monkeypatch.setenv("OSTRO_FACTOR_BUDGET", "12345")
    assert factor_budget() == 12345
    monkeypatch.setenv("OSTRO_FACTOR_BUDGET", "zzz")
    with pytest.raises(DomainError):
        factor_budget()
