"""Seeded inputs for the four benchmark workloads.

Every workload is an endless, deterministic stream of operations drawn
from `random.Random` keyed by the workload name and the seed; the same
seed gives the same operations in the same order.  Operation k draws
from a stratum fixed by k, so every run walks the same mix of input
classes and runs of different seeds stay comparable.

Two regions where the program is known not to finish are kept out, each
by a rule on the benchmark's own convergents (see NOTES.md):

* the int64 window of `omega_window`: a sweep stops before q_{i+1}
  reaches 2^56, so every cross term |N_i(a)| ~ q_i*|gamma| stays far
  below the 2^62 limit;
* the interval-refinement hang: an interval gamma on an exact alpha keeps
  q_{i_max+25} < 2^48 (the expansion runs 24 digits past i_max), and a
  decimal alpha keeps i_max <= horizon - 6.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from arith import (convergents, decimal_quotients, denominators_below,
                   is_square, surd_quotients)

I_START = 5
EXPANSION_MARGIN = 24      # construct expands gamma to depth i_max + 24
ROW_Q_LIMIT = 1 << 56
INTERVAL_Q_LIMIT = 1 << 48
INTERVAL_DIGIT_LOOKAHEAD = EXPANSION_MARGIN + 1
DECIMAL_HORIZON_MARGIN = 6
# factorize's early primality test refuses cofactors >= 3.3e24.
CROSS_LIMIT = 1 << 81


@dataclass(frozen=True)
class Alpha:
    """`quad:d,p,q` = (p + sqrt d)/q, or `dec:<digits>@<prec>`.

    A decimal alpha is the box [num/den - 10^-prec, num/den + 10^-prec].
    """

    spec: str
    d: int = 0
    p: int = 0
    q: int = 1
    num: int = 0
    den: int = 1
    prec: int = 0

    @property
    def exact(self) -> bool:
        return self.d != 0


@dataclass(frozen=True)
class Gamma:
    """`rat:a/b`, `lat:l,l'` (= alpha*l + l') or `dec:<digits>@<prec>`."""

    spec: str
    kind: str
    num: int = 0
    den: int = 1
    ell: int = 0
    ell_prime: int = 0


@dataclass(frozen=True)
class SweepOp:
    """`ostro construct` over i = I_START..i_max."""

    alpha: Alpha
    gamma: Gamma
    i_max: int
    c: float = 2.0


@dataclass(frozen=True)
class OracleOp:
    """`ostro oracle` for n = 1..n_max."""

    alpha: Alpha
    gamma: Gamma
    n_max: int


@dataclass(frozen=True)
class CountOp:
    """For each A in `a_maxes` (ascending), count b in [1, A] with
    gcd(m + b*r, n + b*s) = 1: one Moebius query per A."""

    m: int
    n: int
    r: int
    s: int
    a_maxes: tuple[int, ...]


Op = Union[SweepOp, OracleOp, CountOp]


# -- alphas and gammas ---------------------------------------------------------


def quad_alpha(rng: random.Random, d_range: tuple[int, int]) -> Alpha:
    while True:
        d = rng.randint(*d_range)
        if not is_square(d):
            break
    p = rng.randint(-math.isqrt(d), 6)
    q = rng.randint(1, 4)
    return Alpha(f"quad:{d},{p},{q}", d=d, p=p, q=q)


def random_digits(rng: random.Random, count: int) -> str:
    return "".join(rng.choice("0123456789") for _ in range(count))


def dec_alpha(rng: random.Random, prec: int) -> tuple[Alpha, list[int]]:
    """A decimal alpha with `prec` trusted digits and its certified quotients."""
    while True:
        text = f"{rng.randint(0, 3)}.{random_digits(rng, prec)}"
        num, den = int(text.replace(".", "")), 10**prec
        try:
            quots = decimal_quotients(num, den, 10**prec)
        except ValueError:
            continue
        return Alpha(f"dec:{text}@{prec}", num=num, den=den, prec=prec), quots


def rat_gamma(rng: random.Random) -> Gamma:
    b = rng.randint(2, 24)
    a = rng.randint(1, 3 * b)
    while math.gcd(a, b) != 1:
        a = rng.randint(1, 3 * b)
    if rng.random() < 0.3:
        a = -a
    return Gamma(f"rat:{a}/{b}", "rat", num=a, den=b)


def lat_gamma(rng: random.Random) -> Gamma:
    ell, ell_prime = 0, 0
    while ell == 0 and ell_prime == 0:
        ell, ell_prime = rng.randint(-3, 3), rng.randint(-3, 3)
    return Gamma(f"lat:{ell},{ell_prime}", "lat", ell=ell, ell_prime=ell_prime)


def dec_gamma(rng: random.Random) -> Gamma:
    prec = rng.randint(30, 50)
    text = f"0.{random_digits(rng, prec)}"
    return Gamma(f"dec:{text}@{prec}", "dec", num=int(text.replace(".", "")),
                 den=10**prec)


def row_limit(qs: list[int], limit: int, lookahead: int) -> int:
    """Largest i with q_{i+lookahead} < limit, from convergent denominators."""
    i = -1
    while i + 1 + lookahead < len(qs) and qs[i + 1 + lookahead] < limit:
        i += 1
    return i


# -- workloads -------------------------------------------------------------------


def sweep_exact(rng: random.Random, k: int, u: float) -> SweepOp:
    d_range = ((2, 30), (31, 99), (100, 199))[k % 3]
    gamma_of = (rat_gamma, lat_gamma)[(k // 3) % 2]
    while True:
        alpha = quad_alpha(rng, d_range)
        qs = denominators_below(
            surd_quotients(alpha.d, alpha.p, alpha.q), ROW_Q_LIMIT)
        i_max = row_limit(qs, ROW_Q_LIMIT, 1)
        if i_max >= I_START + 3:
            return SweepOp(alpha, gamma_of(rng), i_max)


def sweep_interval(rng: random.Random, k: int, u: float) -> SweepOp:
    """Six strata: an exact alpha with a decimal gamma, and decimal alphas
    with rat or dec gammas whose expansion either fits under the horizon
    (one expansion per sweep) or does not (construct re-expands per row).
    """
    kind = k % 6
    if kind in (2, 5):
        # Exact alpha, interval gamma: keep the whole expansion shallow.
        while True:
            alpha = quad_alpha(rng, (2, 30))
            qs = denominators_below(
                surd_quotients(alpha.d, alpha.p, alpha.q), INTERVAL_Q_LIMIT)
            i_max = row_limit(qs, INTERVAL_Q_LIMIT, INTERVAL_DIGIT_LOOKAHEAD)
            if i_max >= I_START + 3:
                return SweepOp(alpha, dec_gamma(rng), i_max)
    per_row = kind < 2
    prec = round(40 + 19 * u) if per_row else round(60 + 30 * u)
    while True:
        alpha, quots = dec_alpha(rng, prec)
        horizon = len(quots) - 1
        qs = [q for _, q in convergents(quots)]
        i_max = min(horizon - DECIMAL_HORIZON_MARGIN,
                    row_limit(qs, ROW_Q_LIMIT, 1))
        fits = horizon >= i_max + EXPANSION_MARGIN
        if i_max >= I_START + 3 and fits != per_row:
            gamma = rat_gamma(rng) if kind % 3 == 0 else dec_gamma(rng)
            return SweepOp(alpha, gamma, i_max)


def oracle_records(rng: random.Random, k: int, u: float) -> OracleOp:
    alpha = quad_alpha(rng, (2, 199))
    gamma_kind = k % 3
    if gamma_kind == 0:
        gamma = Gamma("rat:0", "rat", num=0, den=1)
    elif gamma_kind == 1:
        gamma = rat_gamma(rng)
    else:
        gamma = lat_gamma(rng)
    n_max = round(10 ** (2.0 + 1.7 * u))
    return OracleOp(alpha, gamma, n_max)


@functools.cache
def small_primes() -> list[int]:
    """The primes <= 10^4 (a sieve of the benchmark's own)."""
    flags = bytearray([1]) * 10001
    flags[0] = flags[1] = 0
    for p in range(2, 101):
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
    return [p for p in range(10001) if flags[p]]


def is_prime_below_1e8(n: int) -> bool:
    return n > 1 and all(n % p for p in small_primes() if p * p <= n)


@functools.cache
def reciprocal_weights() -> list[float]:
    """Running sums of 1/p over `small_primes()`."""
    return list(itertools.accumulate(1 / p for p in small_primes()))


def typical_primes(rng: random.Random, count: int) -> set[int]:
    """`count` distinct primes <= 10^4, each drawn with weight 1/p, the
    chance that p divides a random integer."""
    primes, weights = small_primes(), reciprocal_weights()
    picks: set[int] = set()
    while len(picks) < count:
        x = rng.random() * weights[-1]
        picks.add(primes[bisect.bisect_left(weights, x)])
    return picks


def grid_queries(rng: random.Random) -> CountOp:
    """One point of criterion 1's grid, m, n, r, s <= 12, queried for
    every A = 1..50 as criterion 1 does."""
    while True:
        m, n, r, s = (rng.randint(1, 12) for _ in range(4))
        if math.gcd(r, s) == 1 and n * r != m * s:
            return CountOp(m, n, r, s, tuple(range(1, 51)))


def wide_query(rng: random.Random, j: int, u: float) -> CountOp:
    """The j-th wide query: 1..8 typical primes, and on every other cycle
    of eight one prime in (10^6, 10^7] besides."""
    while True:
        primes = typical_primes(rng, 1 + j % 8)
        if j % 16 >= 8:
            while True:
                big = rng.randint(10**6 + 1, 10**7)
                if is_prime_below_1e8(big):
                    break
            primes.add(big)
        if math.prod(primes) < CROSS_LIMIT:
            break
    cross = math.prod(primes) * rng.choice((1, -1))
    while True:
        r, s = rng.randint(1, 10**6), rng.randint(1, 10**6)
        if math.gcd(r, s) == 1:
            break
    # n*r - m*s = cross: n = cross * r^-1 (mod s), shifted by a random t*s.
    n = (cross * pow(r, -1, s)) % s + rng.randint(0, 10**4) * s
    m = (n * r - cross) // s
    return CountOp(m, n, r, s, (round(10 ** (2.0 + 2.0 * u)),))


def coprime_count(rng: random.Random, k: int, u: float) -> CountOp:
    """Fifteen operations in sixteen come from criterion 1's grid, the
    only real caller's regime; every sixteenth is one wide query."""
    if k % 16 != 15:
        return grid_queries(rng)
    return wide_query(rng, k // 16, u)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random, int, float], Op]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep-exact",
            "the paper's main use: construct over exact quadratic alphas "
            "with rat/lat gammas; loads ostrowski_real, omega_window and "
            "QuadExt.enclosure",
            sweep_exact),
        Workload(
            "sweep-interval",
            "construct with decimal alphas and/or decimal gammas; the only "
            "path through ValidatedReal interval refinement and the decimal "
            "quotient certifier",
            sweep_interval),
        Workload(
            "oracle-records",
            "brute-force record scan on exact alphas; exact QuadExt "
            "arithmetic only, no sieve, omega_window or refinement",
            oracle_records),
        Workload(
            "coprime-count",
            "Moebius coprime counts on criterion 1's grid plus wide cross "
            "terms; the only path through factorize and squarefree_divisors",
            coprime_count),
    )
}


GOLDEN = (math.sqrt(5) - 1) / 2


def ops(name: str, seed: int) -> Iterator[Op]:
    """The endless operation stream of workload `name` for `seed`.

    Operation k gets, besides the shared generator, u_k = frac(u_0 + k*g)
    for the golden ratio g: an evenly spread sequence in [0, 1) that sets
    the parameter driving an operation's cost, so every run of a few
    hundred operations sees nearly the same spread of costs.
    """
    make = WORKLOADS[name].make
    rng = random.Random(f"{name}:{seed}")
    u0 = rng.random()
    k = 0
    while True:
        yield make(rng, k, (u0 + k * GOLDEN) % 1.0)
        k += 1
