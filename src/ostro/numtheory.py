"""Exact arithmetic functions over arbitrary-precision integers.

gcd, factorization by trial division with a sieved prime table, the
multiplicative statistics built on it (omega, mu, phi, squarefree
divisors), exact prime counting, and a windowed omega scan for short
intervals of large integers.  factorize, omega and omega_window share
one residue pass over a prime array (_neg_mod, for integers of any size)
and one rule for the cofactor that trial division leaves (_cofactor).
The window sieves only to min(budget, ceil(cbrt(hi))) and settles a
cofactor when its entry is read.  Nothing here returns a probabilistic
answer: Miller-Rabin uses the first k prime bases only for n below
psi_k, the least strong pseudoprime to all of them, which makes it
deterministic for every integer below 3.3e24.
"""

from __future__ import annotations

import functools
import math
import threading
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DomainError, FactorBudgetError

DEFAULT_FACTOR_BUDGET = 10**7
DEFAULT_SIEVE_BUDGET = 10**8

# psi_k is the least strong pseudoprime to each of the first k prime
# bases (Jaeschke 1993; Sorenson and Webster, Math. Comp. 2017), so those
# k bases decide primality for every n < psi_k.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)


def factor_budget() -> int:
    """The default trial-division bound."""
    return DEFAULT_FACTOR_BUDGET


class _PrimeTable:
    """Monotonically grown sieve; built single-threaded, then read-only."""

    def __init__(self):
        self._lock = threading.Lock()
        self._limit = 0
        self.primes = np.empty(0, dtype=np.int64)

    def ensure(self, limit: int) -> None:
        if limit <= self._limit:
            return
        with self._lock:
            if limit <= self._limit:
                return
            limit = max(limit, 1 << 10, self._limit * 2)
            flags = np.ones(limit + 1, dtype=bool)
            flags[:2] = False
            for p in range(2, isqrt(limit) + 1):
                if flags[p]:
                    flags[p * p:: p] = False
            self.primes = np.flatnonzero(flags).astype(np.int64)
            self._limit = limit


_TABLE = _PrimeTable()

# Trial division below this bound walks a plain list of Python ints.
_SMALL_PRIME_LIMIT = 1 << 16
_CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)


@functools.cache
def _small_primes() -> list[int]:
    return primes_up_to(_SMALL_PRIME_LIMIT).tolist()


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending (shared read-only array)."""
    _TABLE.ensure(n)
    primes = _TABLE.primes
    return primes[:np.searchsorted(primes, n, side="right")]


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    k = bisect_right(_MR_PSI, n) + 1  # least k with n < psi_k
    if k > len(_MR_PSI):
        raise DomainError("primality test limit exceeded")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gcd(a: int, b: int) -> int:
    """gcd(|a|, |b|); the all-zero input has no greatest common divisor."""
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


@dataclass(frozen=True)
class Factorization:
    """n as a product of prime powers, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1 or p <= prev:
                raise DomainError("malformed factorization")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise DomainError("factorization does not reproduce n")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _neg_mod(n: int, ps: np.ndarray) -> np.ndarray:
    """(-n) % p for each prime p < 2**31 in ps and any n >= 0, by Horner's
    rule over 31-bit limbs below a head of at most 62 bits, so every int64
    step stays below 2**62 in absolute value."""
    shift = max(0, n.bit_length() - 32) // 31 * 31
    r = -(n >> shift) % ps
    while shift:
        shift -= 31
        r = ((r << 31) - ((n >> shift) & 0x7FFFFFFF)) % ps
    return r


def _trial_division(n: int, budget: int) -> tuple[list[tuple[int, int]], int]:
    """Divide out all primes <= budget; the cofactor left is 1, composite
    or >= psi_13.  Checkpoint primality tests keep a huge prime cofactor
    from being trial-divided by every prime in the table."""
    factors: list[tuple[int, int]] = []
    rem = n
    lo = 2  # every prime below lo has been divided out
    for cp in (*_CHECKPOINTS, budget):
        hi = min(cp, budget, isqrt(rem))
        if hi >= lo:
            if hi <= _SMALL_PRIME_LIMIT:
                small = _small_primes()
                ps = small[bisect_left(small, lo):bisect_right(small, hi)]
            else:
                arr = primes_up_to(hi)
                arr = arr[np.searchsorted(arr, lo):]
                ps = arr[_neg_mod(rem, arr) == 0].tolist()
            for p in ps:
                if p * p > rem:
                    break
                if rem % p == 0:
                    e = 0
                    while rem % p == 0:
                        rem //= p
                        e += 1
                    factors.append((p, e))
            lo = hi + 1
        if rem < lo * lo or (rem < _MR_PSI[-1] and is_prime(rem)):
            if rem > 1:
                factors.append((rem, 1))
                rem = 1
            break
        if lo > budget:
            break
    return factors, rem


def _cofactor(rem: int, bound: int) -> list[tuple[int, int]] | None:
    """The prime powers of rem >= 1, which has no prime factor <= bound.

    None means two distinct primes above bound that were not found: omega
    counts 2, factorize refuses.  Any other rem that is not settled raises
    FactorBudgetError."""
    if rem == 1:
        return []
    if rem < (bound + 1) ** 2:
        return [(rem, 1)]
    # The square test comes first: a prime square can pass psi_13 while
    # its root is still in is_prime's range.
    s = isqrt(rem)
    if s * s == rem:
        root = _cofactor(s, bound)
        return None if root is None else [(p, 2 * e) for p, e in root]
    if rem < _MR_PSI[-1]:
        if is_prime(rem):
            return [(rem, 1)]
        if rem <= bound**3:
            return None
    raise FactorBudgetError(
        f"factor budget exceeded: cofactor {rem} is undecided")


def _cofactor_omega(rem: int, bound: int) -> int:
    """omega(rem) for rem >= 1 with no prime factor <= bound."""
    tail = _cofactor(rem, bound)
    return 2 if tail is None else len(tail)


def factorize(n: int, budget: int | None = None) -> Factorization:
    """Full factorization within the trial budget.

    Raises FactorBudgetError when the cofactor left after trial division
    is not 1, a prime, or a prime power found by square roots.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    b = budget if budget is not None else DEFAULT_FACTOR_BUDGET
    factors, rem = _trial_division(n, b)
    tail = _cofactor(rem, b)
    if tail is None:
        raise FactorBudgetError(
            f"factor budget exceeded: composite cofactor {rem}")
    return Factorization(n, tuple(factors + tail))


def omega(n: int, budget: int | None = None) -> int:
    """Number of distinct prime factors; omega(1) = 0.  Like omega_window,
    trial-divides only to min(budget, ceil(cbrt(n)))."""
    if n < 1:
        raise DomainError("omega requires n >= 1")
    b = budget if budget is not None else DEFAULT_FACTOR_BUDGET
    bound = min(b, _icbrt_ceil(n))
    factors, rem = _trial_division(n, bound)
    return len(factors) + _cofactor_omega(rem, bound)


def mobius(n: int, budget: int | None = None) -> int:
    """0 on non-squarefree n, else (-1)**omega(n)."""
    fac = factorize(n, budget)
    if any(e >= 2 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def euler_phi(n: int, budget: int | None = None) -> int:
    """Euler totient, computed exactly from the factorization."""
    fac = factorize(n, budget)
    out = n
    for p, _ in fac.factors:
        out = out // p * (p - 1)
    return out


def prime_count(x: int, sieve_budget: int = DEFAULT_SIEVE_BUDGET) -> int:
    """Exact count of primes <= x by sieve."""
    if x < 1:
        raise DomainError("prime_count requires x >= 1")
    if x > sieve_budget:
        raise DomainError(f"sieve budget exceeded: {x} > {sieve_budget}")
    return primes_up_to(x).size


def squarefree_divisors(n: int, budget: int | None = None) -> list[int]:
    """All divisors d | n with mu(d) != 0, ascending; 2**omega(n) of them."""
    fac = factorize(n, budget)
    divs = [1]
    for p in fac.primes:
        divs += [d * p for d in divs]
    return sorted(divs)


def _icbrt_ceil(n: int) -> int:
    """Least r >= 0 with r**3 >= n, for n >= 0 of any size."""
    if n < 2:
        return n
    # Integer Newton from 2**ceil(bits/3) >= cbrt(n) descends to floor(cbrt(n)).
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            break
        r = s
    return r if r**3 == n else r + 1


class OmegaWindow(Sequence[int]):
    """Read-only omega(n) for n in [lo, hi]; see omega_window.

    Entry k is small[k] + omega(rem[k]), where small[k] counts the sieved
    primes dividing lo + k and rem[k] is what they leave.  An entry is
    settled (and cached) on first read, so the FactorBudgetError of a
    cofactor, if any, is raised only then.
    """

    def __init__(self, small: list[int], rem: list[int], bound: int):
        self._small = small
        self._rem = rem
        self._bound = bound
        self._settled: list[int | None] = [None] * len(rem)

    def __len__(self) -> int:
        return len(self._rem)

    def __getitem__(self, key: int) -> int:
        k = range(len(self))[key]  # normalizes and bounds-checks key
        value = self._settled[k]
        if value is None:
            value = self._small[k] + _cofactor_omega(self._rem[k], self._bound)
            self._settled[k] = value
        return value

    def first_least(self, order: Iterable[int]) -> int:
        """The first position in `order` whose omega is least.

        Every entry is at least its floor, small[k] + (rem[k] > 1).
        Positions are read in increasing (floor, rank in order), and the
        scan stops at the first whose floor and rank cannot beat the best
        exact (omega, rank) so far, so only entries that can decide the
        answer are settled.
        """
        ranked = list(dict.fromkeys(order))
        if not ranked:
            raise DomainError("first_least needs a nonempty order")
        floors = [self._small[k] + (self._rem[k] > 1) for k in ranked]
        best_key = best_k = None
        # A stable sort keeps equal floors in rank order.
        for r in sorted(range(len(ranked)), key=floors.__getitem__):
            if best_key is not None and (floors[r], r) > best_key:
                break
            key = (self[ranked[r]], r)
            if best_key is None or key < best_key:
                best_key, best_k = key, ranked[r]
        return best_k


def omega_window(lo: int, hi: int, budget: int | None = None) -> OmegaWindow:
    """Exact omega(n) for every n in [lo, hi], as a lazy read-only sequence.

    One sieve pass divides out every prime <= bound = min(budget,
    ceil(cbrt(hi))) that has a multiple in the window.  When bound**3 >=
    hi, each cofactor left is 1, a prime, a prime square or a product of
    two primes above bound; a cofactor below (bound + 1)**2 is 1 or prime,
    and a larger one is settled only when its entry is read.
    """
    if lo < 1 or hi < lo:
        raise DomainError("need 1 <= lo <= hi")
    b = budget if budget is not None else DEFAULT_FACTOR_BUDGET
    bound = min(b, _icbrt_ceil(hi))
    width = hi - lo + 1
    small = [0] * width
    rem = list(range(lo, hi + 1))
    ps = primes_up_to(bound)
    offset = _neg_mod(lo, ps)  # distance from lo to p's first multiple
    hits = offset < width
    for p, start in zip(ps[hits].tolist(), offset[hits].tolist()):
        for idx in range(start, width, p):
            small[idx] += 1
            v = rem[idx] // p
            while v % p == 0:
                v //= p
            rem[idx] = v
    return OmegaWindow(small, rem, bound)

