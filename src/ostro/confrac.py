"""Continued fractions of irrational numbers with certified quotients.

Two sources are supported:

* exact quadratic irrationals, expanded by iterating the Gauss map in
  Q(sqrt(d)) with period detection.  `quad:` inputs are one; a quotient
  list with a repeating period is solved to its exact value first;
* certified prefixes: a finite list of quotients with a rational bracket
  of alpha.  A quotient list without a period is bracketed by its last
  two convergents; a decimal string with a stated number of trusted
  digits yields the quotients certified over its whole uncertainty
  interval.  Quotients past the prefix raise PrecisionError.

Convergents carry the signed errors D_k = q_k*alpha - p_k as validated
reals, exact whenever the source is exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (DomainError, PrecisionError, RationalInputError,
                     SpecParseError)
from .quadratic import QuadExt, is_square
from .validated import ValidatedReal


@dataclass(frozen=True)
class Convergent:
    """Index k with p_k/q_k in lowest terms and D_k = q_k*alpha - p_k."""

    k: int
    p: int
    q: int
    D: ValidatedReal


class _QuadraticSource:
    """Quotients of an exact quadratic irrational via the Gauss map."""

    horizon = None

    def __init__(self, value: QuadExt):
        self.exact = value
        self.alpha = ValidatedReal.from_quadratic(value)
        self._prefix, self._period = self._expand(value)

    @staticmethod
    def _expand(state: QuadExt) -> tuple[list[int], list[int]]:
        """(prefix, period) of the quotients along the Gauss-map orbit."""
        seen: dict[QuadExt, int] = {}
        quots: list[int] = []
        while state not in seen:
            seen[state] = len(quots)
            a = state.floor()
            quots.append(a)
            state = (state - a).inverse()
        start = seen[state]
        return quots[:start], quots[start:]

    def quotient(self, k: int) -> int:
        if k < len(self._prefix):
            return self._prefix[k]
        return self._period[(k - len(self._prefix)) % len(self._period)]


class _PrefixSource:
    """Finitely many certified quotients of an alpha in [lo, hi]."""

    exact = None

    def __init__(self, quots: list[int], lo: Fraction, hi: Fraction):
        self._quots = quots
        self.horizon = len(quots) - 1
        self.alpha = ValidatedReal(lo, hi)

    def quotient(self, k: int) -> int:
        if k <= self.horizon:
            return self._quots[k]
        raise PrecisionError(
            f"precision exhausted: quotient a_{k} beyond horizon "
            f"{self.horizon}")


def _last_convergents(quots: list[int]) -> tuple[int, int, int, int]:
    """(p_prev, q_prev, p, q) of the last two convergents of `quots`,
    seeded with p_-1/q_-1 = 1/0 and p_-2/q_-2 = 0/1."""
    p_prev, q_prev, p, q = 0, 1, 1, 0
    for a in quots:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
    return p_prev, q_prev, p, q


def _certify(center: Fraction, lo: Fraction, hi: Fraction) -> list[int]:
    """Quotients shared by every real in [lo, hi] around `center`."""
    quots: list[int] = []
    while True:
        if center.denominator == 1:
            # The literal itself terminates here: indistinguishable
            # from a rational at the stated precision.
            raise RationalInputError("rational input")
        a = center.numerator // center.denominator
        if not (a <= lo and hi < a + 1):
            break
        quots.append(a)
        if lo == a:
            break
        center = 1 / (center - a)
        lo, hi = 1 / (hi - a), 1 / (lo - a)
    if not quots:
        raise PrecisionError(
            "precision exhausted: not even a_0 is certified")
    return quots


class ContinuedFraction:
    """An irrational alpha presented through its partial quotients.

    The quotient cache is append-only and extension is serialized, so
    concurrent readers are safe.
    """

    def __init__(self, source):
        self._source = source
        self._lock = threading.Lock()
        self._quots: list[int] = []
        self._convs: list[Convergent] = []

    # -- quotients -----------------------------------------------------------

    def partial_quotient(self, k: int) -> int:
        if k < 0:
            raise DomainError("quotient index must be >= 0")
        self._ensure_quotients(k)
        return self._quots[k]

    def partial_quotients(self, count: int) -> list[int]:
        if count < 1:
            raise DomainError("count must be >= 1")
        self._ensure_quotients(count - 1)
        return self._quots[:count]

    def _ensure_quotients(self, k: int) -> None:
        if k < len(self._quots):
            return
        with self._lock:
            while len(self._quots) <= k:
                self._quots.append(self._source.quotient(len(self._quots)))

    @property
    def horizon(self) -> Optional[int]:
        """Largest certifiable quotient index, or None when unbounded."""
        return self._source.horizon

    def alpha_exact(self) -> Optional[QuadExt]:
        return self._source.exact

    # -- alpha as a validated real --------------------------------------------

    def alpha(self) -> ValidatedReal:
        return self._source.alpha

    def alpha_value(self, width) -> ValidatedReal:
        """Enclosure of alpha with width at most the request."""
        return self.alpha().refined(width)

    def frac_alpha(self) -> ValidatedReal:
        """{alpha} = alpha - a_0, which equals D_0."""
        return self.alpha() - self.partial_quotient(0)

    # -- convergents -----------------------------------------------------------

    def convergent(self, k: int) -> Convergent:
        if k < 0:
            raise DomainError("convergent index must be >= 0")
        self._ensure_quotients(k)
        with self._lock:
            while len(self._convs) <= k:
                self._convs.append(self._next_convergent(len(self._convs)))
        return self._convs[k]

    def _next_convergent(self, k: int) -> Convergent:
        a = self._quots[k]
        if k == 0:
            p, q = a, 1
        elif k == 1:
            p_prev = self._convs[0].p
            p, q = a * p_prev + 1, a
        else:
            p = a * self._convs[k - 1].p + self._convs[k - 2].p
            q = a * self._convs[k - 1].q + self._convs[k - 2].q
        if math.gcd(p, q) != 1:
            raise DomainError("convergent recurrence lost coprimality")
        d_val = self.alpha() * q - p
        return Convergent(k, p, q, d_val)

    def convergents(self, K: int) -> list[Convergent]:
        """Convergents for k = 0..K inclusive."""
        self.convergent(K)
        return self._convs[: K + 1]

    def d_value(self, k: int) -> ValidatedReal:
        """D_k = q_k*alpha - p_k, with D_{-1} = -1 for the recurrences."""
        if k == -1:
            return ValidatedReal.exact_rational(-1)
        return self.convergent(k).D

    def d_abs(self, k: int) -> ValidatedReal:
        return abs(self.d_value(k))


# -- factories ----------------------------------------------------------------


def cf_from_quadratic(d: int, p: int, q: int) -> ContinuedFraction:
    """alpha = (p + sqrt(d)) / q for a nonsquare d >= 2 and q != 0."""
    if q == 0:
        raise DomainError("q must be nonzero")
    if d < 2:
        raise DomainError("d must be >= 2")
    if is_square(d):
        raise RationalInputError("rational input")
    value = QuadExt(d, Fraction(p, q), Fraction(1, q))
    return ContinuedFraction(_QuadraticSource(value))


def cf_from_terms(prefix, period=None) -> ContinuedFraction:
    """alpha from explicit partial quotients, optionally periodic.

    A periodic list is solved to its exact quadratic value; a list
    without a period certifies only its own quotients.
    """
    prefix = list(prefix)
    if period is not None:
        period = list(period)
        if not period:
            raise DomainError("period must be nonempty when given")
    if not prefix and not period:
        raise DomainError("need at least one partial quotient")
    if any(a < 1 for a in prefix[1:]):
        raise DomainError("partial quotients a_k must be >= 1 for k >= 1")
    if period is None:
        # alpha lies strictly between the last two convergents, or in
        # (a0, a0 + 1) when a0 is the only quotient.
        p_prev, q_prev, p, q = _last_convergents(prefix)
        lo, hi = sorted((Fraction(p, q), Fraction(p_prev, q_prev))
                        if q_prev else (Fraction(p), Fraction(p + 1)))
        return ContinuedFraction(_PrefixSource(prefix, lo, hi))
    if any(a < 1 for a in period):
        raise DomainError("period entries must be positive")
    # The purely periodic tail y = [b0; b1, ...] solves
    # y = (p*y + p_prev) / (q*y + q_prev); take the root > 1.
    p_prev, q_prev, p, q = _last_convergents(period)
    disc = (q_prev - p) ** 2 + 4 * q * p_prev
    tail = QuadExt(disc, Fraction(p - q_prev, 2 * q), Fraction(1, 2 * q))
    # Fold the prefix over the tail.
    p_prev, q_prev, p, q = _last_convergents(prefix)
    value = (tail * p + p_prev) / (tail * q + q_prev)
    return ContinuedFraction(_QuadraticSource(value))


def cf_from_decimal(digits: str, precision: int) -> ContinuedFraction:
    """alpha from a decimal literal with `precision` trusted digits."""
    if precision < 1:
        raise DomainError("precision must be a positive digit count")
    try:
        center = Fraction(digits)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad decimal literal {digits!r}") from exc
    eps = Fraction(1, 10**precision)
    lo, hi = center - eps, center + eps
    return ContinuedFraction(_PrefixSource(_certify(center, lo, hi), lo, hi))


def parse_alpha_spec(text: str) -> ContinuedFraction:
    """Parse `quad:d,p,q` | `cf:a0,a1,...[;period]` | `dec:<digits>@<prec>`."""
    try:
        kind, _, body = text.partition(":")
        if not body:
            raise ValueError("missing body")
        if kind == "quad":
            d, p, q = (int(part) for part in body.split(","))
            return cf_from_quadratic(d, p, q)
        if kind == "cf":
            head, semi, per = body.partition(";")
            # Only the head may be empty (`cf:;1`); int("") refuses any
            # other empty entry.
            prefix = [int(part) for part in head.split(",")] if head else []
            period = [int(part) for part in per.split(",")] if semi else None
            return cf_from_terms(prefix, period)
        if kind == "dec":
            digits, _, prec = body.partition("@")
            if not prec:
                raise ValueError("missing precision")
            return cf_from_decimal(digits, int(prec))
        raise ValueError(f"unknown alpha kind {kind!r}")
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad alpha spec {text!r}: {exc}") from exc
