"""Brute-force ground truth for best coprime inhomogeneous approximation.

For each n the best coprime numerator is found by walking outward from
floor(n*alpha - gamma) to the nearest coprime integer on each side, which
is exhaustive: any farther candidate has a strictly larger error.  The
record sequence keeps the n at which the best achievable error strictly
decreases.  Deliberately naive; used to calibrate and cross-check the
constructive pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .confrac import ContinuedFraction
from .errors import SearchCapError
from .validated import ValidatedReal

_SIDE_SCAN_CAP = 10**4


@dataclass(frozen=True)
class RecordEntry:
    """A strict improvement in the best coprime error, reached at n."""

    n: int
    m: int
    err: ValidatedReal


def approx_error(cf: ContinuedFraction, gamma, m: int, n: int) -> ValidatedReal:
    """Certified |n*alpha - m - gamma|; n = 0 is allowed here (the value
    degenerates to |m + gamma|, outside the approximation setting)."""
    gamma = ValidatedReal.wrap(gamma)
    return abs(cf.alpha() * n - m - gamma)


def _target(cf: ContinuedFraction, gamma: ValidatedReal):
    """(alpha, gamma) as exact values when alpha - gamma is exact (one
    field), so that t = alpha*n - gamma is a QuadExt; (cf.alpha(), gamma)
    otherwise."""
    alpha = cf.alpha()
    if (alpha - gamma).exact is not None:
        return alpha.exact, gamma.exact
    return alpha, gamma


def _nearest_coprime(start: int, step: int, n: int) -> int:
    m = start
    for _ in range(_SIDE_SCAN_CAP):
        if math.gcd(m, n) == 1:
            return m
        m += step
    raise SearchCapError(f"no coprime numerator near {start} for n={n}")


def _best_at(t, n: int):
    """The coprime m nearest to t (a QuadExt or a ValidatedReal), with
    its error |t - m|."""
    f = t.floor()
    left = _nearest_coprime(f, -1, n)
    right = _nearest_coprime(f + 1, +1, n)
    e_left = abs(t - left)
    e_right = abs(t - right)
    if e_right < e_left:
        return right, e_right
    # Exact ties (possible only for rational t) resolve to the smaller m.
    return left, e_left


def best_coprime_at(cf: ContinuedFraction, gamma, n: int
                    ) -> tuple[int, ValidatedReal]:
    """The minimizing coprime m for |n*alpha - m - gamma| at a fixed n."""
    alpha, gamma = _target(cf, ValidatedReal.wrap(gamma))
    m, err = _best_at(alpha * n - gamma, n)
    return m, ValidatedReal.wrap(err)


def best_coprime_approx(cf: ContinuedFraction, gamma,
                        n_max: int) -> list[RecordEntry]:
    """Record sequence of strictly improving best coprime errors, n <= n_max."""
    alpha, gamma = _target(cf, ValidatedReal.wrap(gamma))
    records: list[RecordEntry] = []
    best = None
    for n in range(1, n_max + 1):
        m, err = _best_at(alpha * n - gamma, n)
        if best is None or err < best:
            best = err
            records.append(RecordEntry(n, m, ValidatedReal.wrap(err)))
    return records
