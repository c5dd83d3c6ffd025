"""Coprime pairs in simultaneous arithmetic progressions, and low-omega
integers in short intervals.

count_coprime_mobius counts b in [1, A] with gcd(m+br, n+bs) = 1 by
inclusion-exclusion over the primes of |nr - ms|, factored once.  Each
prime p admits one class of bad b mod p, so a set of primes admits one
class mod their product, glued by CRT.  A depth-first walk over the
subsets carries (mu, modulus, residue) and drops a subtree as soon as
its class has no member in [1, A], since every extension's class lies
inside it.  A direct scan provides the independent oracle.

The growth functions g_c(x) = 2**(c*sqrt(log x)) and
h_c(x) = g_c(x)/(log g_c(x) * log log g_c(x)) size the search window in
which some integer has few distinct prime factors; find_low_omega locates
the exact minimum, settling only the entries of the omega window that can
decide it.  A window wider than MAX_A_WINDOW is refused, in construct too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SearchCapError
from .numtheory import factorize, omega_window
# Not called here; perfbench/tracing.py hooks this name in this module.
from .numtheory import squarefree_divisors  # noqa: F401


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


def count_coprime_mobius(query: ProgressionQuery,
                         budget: int | None = None) -> int:
    """Inclusion-exclusion count, exactly equal to the brute-force scan."""
    m, n, r, s, a_max = query.m, query.n, query.r, query.s, query.a_max
    classes = []  # (p, least b >= 1 with p | m+br and p | n+bs)
    for p, _ in factorize(abs(query.cross), budget).factors:
        if r % p:
            classes.append((p, -m * pow(r, -1, p) % p or p))
        else:
            # p | r and p | nr - ms force p | m (p cannot divide s as
            # well), so p | m+br for every b; s is invertible mod p.
            classes.append((p, -n * pow(s, -1, p) % p or p))
    total = a_max  # the empty set of primes admits every b
    # Depth first over the other subsets of the primes: (next prime index,
    # mu, modulus d, least b >= 1 in the class of bad b mod d).
    stack = [(j + 1, -1, p, first) for j, (p, first) in enumerate(classes)
             if first <= a_max]
    while stack:
        i, mu, d, first = stack.pop()
        total += mu * ((a_max - first) // d + 1)
        for j in range(i, len(classes)):
            p, bp = classes[j]
            # CRT: the least b >= first with b = first (mod d), bp (mod p).
            child = first + d * ((bp - first) * pow(d, -1, p) % p)
            # Every extension's class lies inside the child's, so once the
            # child has no member in [1, A] the whole subtree counts 0.
            if child <= a_max:
                stack.append((j + 1, -mu, d * p, child))
    return total


def find_coprime_shift(query: ProgressionQuery) -> int | None:
    """Smallest b in [1, a_max] with gcd(m+br, n+bs) = 1, or None."""
    m, n, r, s = query.m, query.n, query.r, query.s
    for b in range(1, query.a_max + 1):
        if math.gcd(m + b * r, n + b * s) == 1:
            return b
    return None


# -- growth functions --------------------------------------------------------

# The widest window, of ceil(h_c(x)) shifts or integers, that one search may
# scan; a wider one is refused before anything is allocated for it.
MAX_A_WINDOW = 1 << 20


def growth_g(x, c: float) -> float:
    """g_c(x) = 2**(c*sqrt(log x)), natural log."""
    if x <= 1:
        raise DomainError("growth_g requires x > 1")
    if not (math.isfinite(c) and c > 0):
        raise DomainError("growth_g requires a finite c > 0")
    try:
        return 2.0 ** (c * math.sqrt(math.log(x)))
    except OverflowError:
        raise DomainError(f"growth_g overflows a float at c = {c}") from None


def growth_h(x, c: float) -> float:
    """h_c(x) = g_c(x) / (log g_c(x) * log log g_c(x))."""
    g = growth_g(x, c)
    lg = math.log(g)
    if lg <= 1.0:
        raise DomainError("growth_h undefined: g_c(x) <= e")
    return g / (lg * math.log(lg))


def low_omega_interval(x: int, c: float) -> tuple[int, int]:
    """The scanned interval [x, x + max(1, ceil(h_c(x)))]; SearchCapError
    when it is wider than MAX_A_WINDOW."""
    if x < 3:
        raise DomainError("find_low_omega requires x >= 3")
    width = max(1, math.ceil(growth_h(x, c)))
    if width > MAX_A_WINDOW:
        raise SearchCapError(
            f"omega window of {width} integers exceeds {MAX_A_WINDOW}")
    return x, x + width


def find_low_omega(x: int, c: float,
                   budget: int | None = None) -> tuple[int, int]:
    """(N, omega(N)) minimizing omega over [x, x + ceil(h_c(x))].

    Exact; ties resolve to the smallest N.  A cofactor the budget cannot
    settle raises FactorBudgetError only if its entry must be read, and a
    window wider than MAX_A_WINDOW raises SearchCapError.
    """
    lo, hi = low_omega_interval(x, c)
    window = omega_window(lo, hi, budget=budget)
    best = window.first_least(range(len(window)))
    return lo + best, window[best]
