"""Brute-force ground truth for best coprime inhomogeneous approximation.

For each n the best coprime numerator is found by walking outward from
floor(t_n), t_n = n*alpha - gamma, to the nearest coprime integer on each
side, which is exhaustive: any farther candidate has a strictly larger
error.  The record sequence keeps the n at which the best achievable
error strictly decreases.  Deliberately naive; used to calibrate and
cross-check the constructive pipeline.

When alpha and gamma are exact in one field Q(sqrt(d)), the scan runs on
integers: t_n = (x_n + y_n*sqrt(d))/c with c fixed, and x_n, y_n move by
a constant step per n.  The floor, the nearer side and the record test
are exact integer signs, and only a record builds a value.  Otherwise (a
`dec:` input, or two fields) t_n is a ValidatedReal and every decision
is certified on intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .confrac import ContinuedFraction
from .errors import DomainError, SearchCapError
from .quadratic import _floor, _new, _sign
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
    """t_n = n*alpha - gamma as integers (d, x, y, dx, dy, c), where
    t_n = (x + n*dx + (y + n*dy)*sqrt(d))/c and c > 0, when alpha and
    gamma are exact in one field Q(sqrt(d)).  None when either one is an
    interval (a `dec:` input) or they lie in two fields: t_n is then
    scanned as a ValidatedReal, through _best_at."""
    alpha = cf.alpha().exact
    if alpha is None or gamma.exact is None:
        return None
    try:
        a, b, c = alpha._parts(gamma.exact)
    except DomainError:  # two quadratic fields
        return None
    return (alpha.d, -a * alpha.c, -b * alpha.c, alpha.a * c, alpha.b * c,
            alpha.c * c)


def _nearest_coprime(start: int, step: int, n: int) -> int:
    m = start
    for _ in range(_SIDE_SCAN_CAP):
        if math.gcd(m, n) == 1:
            return m
        m += step
    raise SearchCapError(f"no coprime numerator near {start} for n={n}")


def _exact_records(target, first: int, last: int) -> list[RecordEntry]:
    """Records of the best coprime error over first <= n <= last, for an
    exact target from _target."""
    d, x, y, dx, dy, c = target
    x += first * dx
    y += first * dy
    records: list[RecordEntry] = []
    best = None
    for n in range(first, last + 1):
        f = _floor(x, y, c, d)
        left = _nearest_coprime(f, -1, n)
        right = _nearest_coprime(f + 1, +1, n)
        # t - left and right - t are both >= 0; right wins only when it is
        # strictly nearer, so an exact tie keeps the smaller m.
        if _sign(2 * x - (left + right) * c, 2 * y, d) > 0:
            m, u, v = right, right * c - x, -y
        else:
            m, u, v = left, x - left * c, y
        # The error is (u + v*sqrt(d))/c, with the same c for every n.
        if best is None or _sign(u - best[0], v - best[1], d) < 0:
            best = u, v
            records.append(
                RecordEntry(n, m, ValidatedReal.wrap(_new(d, u, v, c))))
        x += dx
        y += dy
    return records


def _best_at(t: ValidatedReal, n: int) -> tuple[int, ValidatedReal]:
    """The coprime m nearest to the ValidatedReal t, with its error
    |t - m|; the floor and the nearer side are certified on intervals.
    Only targets that _target cannot write on integers come here."""
    f = t.floor()
    left = _nearest_coprime(f, -1, n)
    right = _nearest_coprime(f + 1, +1, n)
    e_left = abs(t - left)
    e_right = abs(t - right)
    if e_right < e_left:
        return right, e_right
    return left, e_left


def best_coprime_at(cf: ContinuedFraction, gamma, n: int
                    ) -> tuple[int, ValidatedReal]:
    """The minimizing coprime m for |n*alpha - m - gamma| at a fixed n."""
    gamma = ValidatedReal.wrap(gamma)
    target = _target(cf, gamma)
    if target is None:
        return _best_at(cf.alpha() * n - gamma, n)
    (rec,) = _exact_records(target, n, n)
    return rec.m, rec.err


def best_coprime_approx(cf: ContinuedFraction, gamma,
                        n_max: int) -> list[RecordEntry]:
    """Record sequence of strictly improving best coprime errors, n <= n_max."""
    gamma = ValidatedReal.wrap(gamma)
    target = _target(cf, gamma)
    if target is not None:
        return _exact_records(target, 1, n_max)
    alpha = cf.alpha()
    records: list[RecordEntry] = []
    best = None
    for n in range(1, n_max + 1):
        m, err = _best_at(alpha * n - gamma, n)
        if best is None or err < best:
            best = err
            records.append(RecordEntry(n, m, err))
    return records
