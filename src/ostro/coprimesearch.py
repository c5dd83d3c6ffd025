"""Coprime pairs in simultaneous arithmetic progressions, and low-omega
integers in short intervals.

count_coprime_mobius counts b in [1, A] with gcd(m+br, n+bs) = 1 by
inclusion-exclusion over the squarefree divisors d of |nr - ms|: for each
d the admissible b form a single residue class mod d (or none), which is
counted exactly.  A direct scan provides the independent oracle.

The growth functions g_c(x) = 2**(c*sqrt(log x)) and
h_c(x) = g_c(x)/(log g_c(x) * log log g_c(x)) size the search window in
which some integer has few distinct prime factors; find_low_omega locates
the exact minimum, settling only the entries of the omega window that can
decide it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .numtheory import factor_budget, gcd, omega_window, squarefree_divisors


@dataclass(frozen=True)
class ProgressionQuery:
    """Progressions m+br and n+bs for b in [1, a_max]."""

    m: int
    n: int
    r: int
    s: int
    a_max: int

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise DomainError("r and s must be positive")
        if math.gcd(self.r, self.s) != 1:
            raise DomainError("r and s must be coprime")
        if self.n * self.r - self.m * self.s == 0:
            raise DomainError("degenerate query: nr - ms = 0")
        if self.a_max < 1:
            raise DomainError("a_max must be >= 1")

    @property
    def cross(self) -> int:
        return self.n * self.r - self.m * self.s


def count_coprime_bruteforce(query: ProgressionQuery) -> int:
    """Direct scan; the ground truth for count_coprime_mobius."""
    m, n, r, s = query.m, query.n, query.r, query.s
    return sum(
        1 for b in range(1, query.a_max + 1)
        if math.gcd(m + b * r, n + b * s) == 1)


def _residue_class(query: ProgressionQuery, d: int) -> int | None:
    """The b (mod d) with d | m+br and d | n+bs, or None when unsolvable.

    d is squarefree and divides nr - ms, so the two congruences are
    compatible prime by prime and CRT glues them into one class.
    """
    m, n, r, s = query.m, query.n, query.r, query.s
    res, mod = 0, 1
    for p in _prime_parts(d):
        if r % p == 0:
            if m % p != 0:
                return None
            # First congruence holds for every b; s is invertible mod p
            # because gcd(r, s) = 1.
            bp = (-n * pow(s, -1, p)) % p
        else:
            bp = (-m * pow(r, -1, p)) % p
        # CRT merge (mod and p are coprime: d squarefree).
        inv = pow(mod, -1, p)
        res = res + mod * ((bp - res) * inv % p)
        mod *= p
    return res % mod


def _prime_parts(d: int) -> list[int]:
    out = []
    rem = d
    f = 2
    while f * f <= rem:
        if rem % f == 0:
            out.append(f)
            while rem % f == 0:
                rem //= f
        f += 1
    if rem > 1:
        out.append(rem)
    return out


def count_coprime_mobius(query: ProgressionQuery,
                         budget: int | None = None) -> int:
    """Inclusion-exclusion count, exactly equal to the brute-force scan."""
    b = budget if budget is not None else factor_budget()
    total = 0
    for d in squarefree_divisors(abs(query.cross), budget=b):
        cls = _residue_class(query, d)
        if cls is None:
            continue
        first = cls if cls >= 1 else d
        hits = 0 if first > query.a_max else (query.a_max - first) // d + 1
        mu = -1 if len(_prime_parts(d)) % 2 else 1
        total += mu * hits
    return total


def find_coprime_shift(query: ProgressionQuery) -> int | None:
    """Smallest b in [1, a_max] with gcd(m+br, n+bs) = 1, or None."""
    m, n, r, s = query.m, query.n, query.r, query.s
    for b in range(1, query.a_max + 1):
        if math.gcd(m + b * r, n + b * s) == 1:
            return b
    return None


# -- growth functions --------------------------------------------------------


def growth_g(x, c: float) -> float:
    """g_c(x) = 2**(c*sqrt(log x)), natural log."""
    if x <= 1:
        raise DomainError("growth_g requires x > 1")
    if c <= 0:
        raise DomainError("growth_g requires c > 0")
    return 2.0 ** (c * math.sqrt(math.log(x)))


def growth_h(x, c: float) -> float:
    """h_c(x) = g_c(x) / (log g_c(x) * log log g_c(x))."""
    g = growth_g(x, c)
    lg = math.log(g)
    if lg <= 1.0:
        raise DomainError("growth_h undefined: g_c(x) <= e")
    return g / (lg * math.log(lg))


def low_omega_interval(x: int, c: float) -> tuple[int, int]:
    """The scanned interval [x, x + max(1, ceil(h_c(x)))]."""
    if x < 3:
        raise DomainError("find_low_omega requires x >= 3")
    return x, x + max(1, math.ceil(growth_h(x, c)))


def find_low_omega(x: int, c: float,
                   budget: int | None = None) -> tuple[int, int]:
    """(N, omega(N)) minimizing omega over [x, x + ceil(h_c(x))].

    Exact; ties resolve to the smallest N.  A cofactor the budget cannot
    settle raises FactorBudgetError only if its entry must be read.
    """
    lo, hi = low_omega_interval(x, c)
    window = omega_window(lo, hi, budget=budget)
    best = window.first_least(range(len(window)))
    return lo + best, window[best]
