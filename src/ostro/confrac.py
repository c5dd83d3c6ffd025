"""Continued fractions of irrational numbers with certified quotients.

Every continued fraction is one data shape: a list of quotients, an
optional period repeated after it, and alpha as a validated real.

* A `quad:` value, or a quotient list with a period (solved to its exact
  value first), is expanded by iterating the Gauss map in Q(sqrt(d))
  with period detection; its quotients never run out.
* A quotient list without a period is bracketed by its last two
  convergents; a decimal string with a stated number of trusted digits
  yields the quotients certified over its whole uncertainty interval.
  Only these quotients are certified: a later one raises PrecisionError.

Convergents carry the signed errors D_k = q_k*alpha - p_k as validated
reals, exact whenever alpha is.
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

# The largest `dec:` precision or literal exponent.  The work grows with
# the number given, not with its length; Linux caps one command-line
# argument at 2^17 bytes (MAX_ARG_STRLEN), so no argument can spell out
# more digits than this.
DEC_DIGIT_LIMIT = 1 << 17


@dataclass(frozen=True)
class Convergent:
    """Index k with p_k/q_k in lowest terms and D_k = q_k*alpha - p_k."""

    k: int
    p: int
    q: int
    D: ValidatedReal


# (p_-2, q_-2) = (0, 1) and (p_-1, q_-1) = (1, 0) start every recurrence.
_SEEDS = [(0, 1), (1, 0)]


def _last_convergents(quots: list[int]) -> tuple[int, int, int, int]:
    """(p_prev, q_prev, p, q) of the last two convergents of `quots`."""
    (p_prev, q_prev), (p, q) = _SEEDS
    for a in quots:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
    return p_prev, q_prev, p, q


def _certify(center: Fraction, lo: Fraction, hi: Fraction) -> list[int]:
    """Quotients shared by every real in [lo, hi] around `center`.

    The loop runs on (numerator, denominator) pairs: a Euclid step keeps
    each pair in lowest terms, so no gcd is taken."""
    cn, cd = center.numerator, center.denominator
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    quots: list[int] = []
    while True:
        if cd == 1:
            # The literal itself terminates here: indistinguishable
            # from a rational at the stated precision.
            raise RationalInputError("rational input")
        a = cn // cd
        if not (a * ld <= ln and hn < (a + 1) * hd):
            break
        quots.append(a)
        if ln == a * ld:
            break
        # center, lo, hi <- 1/(center - a), 1/(hi - a), 1/(lo - a).
        cn, cd = cd, cn - a * cd
        ln, ld, hn, hd = hd, hn - a * hd, ld, ln - a * ld
    if not quots:
        raise PrecisionError(
            "precision exhausted: not even a_0 is certified")
    return quots


class ContinuedFraction:
    """An irrational alpha presented through its partial quotients.

    Quotient k is prefix[k], then period[(k - len(prefix)) % len(period)].
    With no period only the prefix is certified.  `exact` is alpha as a
    QuadExt when it is known exactly.  The convergent cache is
    append-only and grown under a lock, so concurrent readers are safe.
    """

    def __init__(self, prefix: list[int], period: Optional[list[int]],
                 alpha: ValidatedReal, exact: Optional[QuadExt] = None):
        self._prefix = prefix
        self._period = period
        self._alpha = alpha
        self._exact = exact
        self._lock = threading.Lock()
        self._convs: list[Convergent] = []

    # -- quotients -----------------------------------------------------------

    def partial_quotient(self, k: int) -> int:
        if k < 0:
            raise DomainError("quotient index must be >= 0")
        if k < len(self._prefix):
            return self._prefix[k]
        if self._period is None:
            raise PrecisionError(
                f"precision exhausted: quotient a_{k} beyond horizon "
                f"{self.horizon}")
        return self._period[(k - len(self._prefix)) % len(self._period)]

    def partial_quotients(self, count: int) -> list[int]:
        if count < 1:
            raise DomainError("count must be >= 1")
        return [self.partial_quotient(k) for k in range(count)]

    @property
    def horizon(self) -> Optional[int]:
        """Largest certifiable quotient index, or None when unbounded."""
        return None if self._period is not None else len(self._prefix) - 1

    def alpha_exact(self) -> Optional[QuadExt]:
        return self._exact

    # -- alpha as a validated real --------------------------------------------

    def alpha(self) -> ValidatedReal:
        return self._alpha

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
        if k >= len(self._convs):
            with self._lock:
                while len(self._convs) <= k:
                    self._convs.append(self._next_convergent(len(self._convs)))
        return self._convs[k]

    def _next_convergent(self, k: int) -> Convergent:
        """Convergent k from a_k and the last two cached (k == len(_convs))."""
        a = self.partial_quotient(k)
        (p_prev, q_prev), (p, q) = (
            _SEEDS + [(c.p, c.q) for c in self._convs[-2:]])[-2:]
        p, q = a * p + p_prev, a * q + q_prev
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


def _from_exact(value: QuadExt) -> ContinuedFraction:
    """Expand an exact quadratic irrational along its Gauss-map orbit,
    stopping at the first repeated state: the period starts there."""
    seen: dict[QuadExt, int] = {}
    quots: list[int] = []
    state = value
    while state not in seen:
        seen[state] = len(quots)
        a = state.floor()
        quots.append(a)
        state = (state - a).inverse()
    start = seen[state]
    return ContinuedFraction(quots[:start], quots[start:],
                             ValidatedReal.from_quadratic(value), value)


def cf_from_quadratic(d: int, p: int, q: int) -> ContinuedFraction:
    """alpha = (p + sqrt(d)) / q for a nonsquare d >= 2 and q != 0."""
    if q == 0:
        raise DomainError("q must be nonzero")
    if d < 2:
        raise DomainError("d must be >= 2")
    if is_square(d):
        raise RationalInputError("rational input")
    return _from_exact(QuadExt(d, Fraction(p, q), Fraction(1, q)))


def cf_from_terms(prefix, period=None) -> ContinuedFraction:
    """alpha from explicit partial quotients, optionally periodic.

    A periodic list is solved to its exact quadratic value, whose own
    expansion supplies the quotients; a list without a period certifies
    only its own quotients.
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
        return ContinuedFraction(prefix, None, ValidatedReal(lo, hi))
    if any(a < 1 for a in period):
        raise DomainError("period entries must be positive")
    # The purely periodic tail y = [b0; b1, ...] solves
    # y = (p*y + p_prev) / (q*y + q_prev); take the root > 1.
    p_prev, q_prev, p, q = _last_convergents(period)
    disc = (q_prev - p) ** 2 + 4 * q * p_prev
    tail = QuadExt(disc, Fraction(p - q_prev, 2 * q), Fraction(1, 2 * q))
    # Fold the prefix over the tail.
    p_prev, q_prev, p, q = _last_convergents(prefix)
    return _from_exact((tail * p + p_prev) / (tail * q + q_prev))


def decimal_bracket(body: str) -> tuple[Fraction, Fraction, Fraction]:
    """(center, lo, hi) of a `dec:` body `<digits>@<prec>`, where lo and hi
    are center -/+ 10^-prec; the alpha and gamma grammars share it.

    ValueError for a missing or nonpositive precision, a bad literal, or
    a precision or literal exponent above DEC_DIGIT_LIMIT.
    """
    digits, _, prec = body.partition("@")
    if not prec:
        raise ValueError("missing precision")
    precision = int(prec)
    if precision < 1:
        raise ValueError("precision must be positive")
    try:
        exponent = int(digits.lower().partition("e")[2] or 0)
    except ValueError:
        exponent = 0  # Fraction refuses the literal below
    if max(precision, abs(exponent)) > DEC_DIGIT_LIMIT:
        raise ValueError(f"a precision or exponent above {DEC_DIGIT_LIMIT}")
    try:
        center = Fraction(digits)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad decimal literal {digits!r}") from None
    eps = Fraction(1, 10**precision)
    return center, center - eps, center + eps


def cf_from_decimal(digits: str, precision: int) -> ContinuedFraction:
    """alpha from a decimal literal with `precision` trusted digits."""
    if precision < 1:
        raise DomainError("precision must be a positive digit count")
    return parse_alpha_spec(f"dec:{digits}@{precision}")


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
            # Only the quotients shared by the whole bracket are certified.
            center, lo, hi = decimal_bracket(body)
            return ContinuedFraction(_certify(center, lo, hi), None,
                                     ValidatedReal(lo, hi))
        raise ValueError(f"unknown alpha kind {kind!r}")
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad alpha spec {text!r}: {exc}") from exc
