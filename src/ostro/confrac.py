"""Continued fractions of irrational numbers with certified quotients.

Three sources are supported:

* exact quadratic irrationals (p + sqrt(d)) / q, expanded by iterating the
  Gauss map in Q(sqrt(d)) with period detection;
* explicit partial-quotient lists, optionally with a repeating period (a
  periodic list is resolved back to an exact quadratic irrational);
* decimal strings with a stated number of trusted digits, whose quotients
  are certified over the whole uncertainty interval and refuse to extend
  past the horizon where certification fails.

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

    def __init__(self, value: QuadExt):
        self.exact = value
        self._prefix: list[int] = []
        self._period: list[int] = []
        self._expand()

    def _expand(self):
        seen: dict[QuadExt, int] = {}
        quots: list[int] = []
        state = self.exact
        while True:
            if state in seen:
                start = seen[state]
                self._prefix = quots[:start]
                self._period = quots[start:]
                return
            seen[state] = len(quots)
            a = state.floor()
            quots.append(a)
            state = (state - a).inverse()

    def quotient(self, k: int) -> int:
        if k < len(self._prefix):
            return self._prefix[k]
        return self._period[(k - len(self._prefix)) % len(self._period)]

    @property
    def horizon(self) -> Optional[int]:
        return None


def _periodic_tail_value(period: list[int]) -> QuadExt:
    """Exact value of the purely periodic continued fraction [b0; b1, ...]."""
    p_prev, p_cur = 1, period[0]
    q_prev, q_cur = 0, 1
    for a in period[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    # y = (p_cur*y + p_prev) / (q_cur*y + q_prev), take the root > 1.
    disc = (q_prev - p_cur) ** 2 + 4 * q_cur * p_prev
    if is_square(disc):
        raise DomainError("periodic quotient list solved to a rational value")
    half = Fraction(p_cur - q_prev, 2 * q_cur)
    root = QuadExt(disc, half, Fraction(1, 2 * q_cur))
    return root


class _TermsSource:
    """Explicit quotient list, periodic or horizon-limited."""

    def __init__(self, prefix: list[int], period: Optional[list[int]]):
        if period is not None and not period:
            raise DomainError("period must be nonempty when given")
        if not prefix and not period:
            raise DomainError("need at least one partial quotient")
        for k, a in enumerate(prefix):
            if k >= 1 and a < 1:
                raise DomainError("partial quotients a_k must be >= 1 for k >= 1")
        if period is not None and any(a < 1 for a in period):
            raise DomainError("period entries must be positive")
        self._prefix = list(prefix)
        self._period = list(period) if period else None
        self.exact: Optional[QuadExt] = None
        if self._period is not None:
            tail = _periodic_tail_value(self._period)
            # Fold the prefix over the exact periodic tail.
            p_prev, q_prev = 1, 0
            p_cur, q_cur = None, None
            value = tail
            if self._prefix:
                p_cur, q_cur = self._prefix[0], 1
                for a in self._prefix[1:]:
                    p_prev, p_cur = p_cur, a * p_cur + p_prev
                    q_prev, q_cur = q_cur, a * q_cur + q_prev
                value = (tail * p_cur + p_prev) / (tail * q_cur + q_prev)
            self.exact = value

    def quotient(self, k: int) -> int:
        if k < len(self._prefix):
            return self._prefix[k]
        if self._period is not None:
            return self._period[(k - len(self._prefix)) % len(self._period)]
        raise PrecisionError(
            f"precision exhausted: quotient a_{k} beyond horizon")

    @property
    def horizon(self) -> Optional[int]:
        if self._period is not None:
            return None
        return len(self._prefix) - 1

    def alpha_interval(self) -> tuple[Fraction, Fraction]:
        """Bracket of a horizon-limited list (periodic lists are exact)."""
        # Open bracket between the last two convergents of the prefix.
        p_prev, q_prev = 1, 0
        p_cur, q_cur = self._prefix[0], 1
        for a in self._prefix[1:]:
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_prev == 0:
            return Fraction(p_cur), Fraction(p_cur + 1)
        ends = sorted([Fraction(p_cur, q_cur), Fraction(p_prev, q_prev)])
        return ends[0], ends[1]


class _DecimalSource:
    """Decimal digits with a certified-quotient horizon."""

    def __init__(self, digits: str, precision: int):
        if precision < 1:
            raise DomainError("precision must be a positive digit count")
        try:
            center = Fraction(digits)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecParseError(f"bad decimal literal {digits!r}") from exc
        eps = Fraction(1, 10**precision)
        self.lo = center - eps
        self.hi = center + eps
        self.exact = None
        self._quots = self._certify(center, self.lo, self.hi)

    @staticmethod
    def _certify(center: Fraction, lo: Fraction, hi: Fraction) -> list[int]:
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

    def quotient(self, k: int) -> int:
        if k < len(self._quots):
            return self._quots[k]
        raise PrecisionError(
            f"precision exhausted: quotient a_{k} beyond horizon "
            f"{len(self._quots) - 1}")

    @property
    def horizon(self) -> Optional[int]:
        return len(self._quots) - 1

    def alpha_interval(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi


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
        self._alpha_vr: Optional[ValidatedReal] = None

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
        if self._alpha_vr is None:
            exact = self.alpha_exact()
            if exact is not None:
                self._alpha_vr = ValidatedReal.from_quadratic(exact)
            else:
                lo, hi = self._source.alpha_interval()
                self._alpha_vr = ValidatedReal(lo, hi)
        return self._alpha_vr

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
    """alpha from explicit partial quotients, optionally periodic."""
    return ContinuedFraction(_TermsSource(
        list(prefix), list(period) if period is not None else None))


def cf_from_decimal(digits: str, precision: int) -> ContinuedFraction:
    """alpha from a decimal literal with `precision` trusted digits."""
    return ContinuedFraction(_DecimalSource(digits, precision))


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
            head, _, per = body.partition(";")
            prefix = [int(part) for part in head.split(",") if part != ""]
            period = [int(part) for part in per.split(",")] if per else None
            return cf_from_terms(prefix, period)
        if kind == "dec":
            digits, _, prec = body.partition("@")
            if not prec:
                raise ValueError("missing precision")
            return cf_from_decimal(digits, int(prec))
        raise ValueError(f"unknown alpha kind {kind!r}")
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad alpha spec {text!r}: {exc}") from exc
