"""End-to-end construction of coprime approximation pairs.

For an irrational alpha, a real shift gamma, an index i and an exponent c
the pipeline builds the base pair (m_i, n_i), shifts it by a in the
direction of the previous convergent so the cross term
N_i(a) = n_i(a,0) p_i - m_i(a,0) q_i has few distinct prime factors, then
shifts by the smallest b that makes the pair coprime.  The emitted pair
carries a certified error interval for |n*alpha - m - gamma| together
with the quality ratio err * |n| / exp(c*sqrt(log |n|)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .confrac import ContinuedFraction, decimal_bracket
from .coprimesearch import (MAX_A_WINDOW, ProgressionQuery,
                            find_coprime_shift, growth_h)
from .errors import (CheckFailedError, DomainError, OstroError,
                     PrecisionError, SearchCapError, SpecParseError)
from .numtheory import omega_window
from .ostrowski import RealOstrowski, ostrowski_real
from .validated import ValidatedReal


@dataclass(frozen=True)
class LatticeGamma:
    """gamma = alpha*ell + ell_prime."""

    ell: int
    ell_prime: int


@dataclass(frozen=True)
class GenericGamma:
    """gamma declared (by the caller) to lie outside alpha*Z + Z."""

    value: ValidatedReal


GammaSpec = Union[LatticeGamma, GenericGamma]


def parse_gamma_spec(text: str) -> GammaSpec:
    """Parse `lat:l,l'` | `rat:p[/q]` | `dec:<digits>@<prec>`.

    Integer-valued rationals are lattice shifts (ell = 0); every other
    rational is genuinely generic for an irrational alpha.
    """
    try:
        kind, _, body = text.partition(":")
        if not body:
            raise ValueError("missing body")
        if kind == "lat":
            ell, ell_prime = (int(part) for part in body.split(","))
            return LatticeGamma(ell, ell_prime)
        if kind == "rat":
            value = Fraction(body)
            if value.denominator == 1:
                return LatticeGamma(0, int(value))
            return GenericGamma(ValidatedReal.exact_rational(value))
        if kind == "dec":
            _, lo, hi = decimal_bracket(body)
            return GenericGamma(ValidatedReal(lo, hi))
        raise ValueError(f"unknown gamma kind {kind!r}")
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad gamma spec {text!r}: {exc}") from exc


def gamma_value(cf: ContinuedFraction, gamma: GammaSpec) -> ValidatedReal:
    if isinstance(gamma, LatticeGamma):
        return cf.alpha() * gamma.ell + gamma.ell_prime
    return gamma.value


def is_zero_gamma(gamma: GammaSpec) -> bool:
    if isinstance(gamma, LatticeGamma):
        return gamma.ell == 0 and gamma.ell_prime == 0
    ex = gamma.value.exact
    return ex is not None and ex == 0


@dataclass(frozen=True)
class BasePair:
    i: int
    m: int
    n: int


@dataclass(frozen=True)
class SearchCaps:
    """Hard limits for the adaptive coprime-shift search."""

    max_b: int = 1 << 20


@dataclass(frozen=True)
class ApproxPair:
    """One emitted coprime approximation with its certificates."""

    i: int
    a: int
    b: int
    m: int
    n: int
    err: ValidatedReal
    quality: float
    omega_cross: int
    cap_used: int


def base_pair(cf: ContinuedFraction, gamma: GammaSpec, i: int,
              expansion: Optional[RealOstrowski] = None) -> BasePair:
    """(m_i, n_i): the index-i starting pair for the construction."""
    if isinstance(gamma, LatticeGamma):
        if i < 0:
            raise DomainError("index must be >= 0")
        conv = cf.convergent(i)
        return BasePair(i, conv.p - gamma.ell_prime, conv.q + gamma.ell)
    if i < 4:
        raise DomainError("generic base pairs need index i >= 4")
    if expansion is None:
        expansion = ostrowski_real(cf, gamma.value, i)
    if expansion.depth < i:
        raise DomainError("expansion too shallow for index i")
    m = -expansion.shift
    n = 0
    for k in range(i):
        b = expansion.coeffs[k]
        if b:
            conv = cf.convergent(k)
            m += b * conv.p
            n += b * conv.q
    if not 0 <= n < cf.convergent(i).q:
        raise CheckFailedError("base n escaped [0, q_i)")
    return BasePair(i, m, n)


def shifted_pair(base: BasePair, cf: ContinuedFraction, a: int,
                 b: int) -> tuple[int, int]:
    """m_i + a p_{i-1} + b p_i and n_i + a q_{i-1} + b q_i."""
    if a < 0 or b < 0:
        raise DomainError("shifts must be nonnegative")
    i = base.i
    p_prev, q_prev = ((1, 0) if i == 0
                      else (cf.convergent(i - 1).p, cf.convergent(i - 1).q))
    cur = cf.convergent(i)
    return base.m + a * p_prev + b * cur.p, base.n + a * q_prev + b * cur.q


def cross_term(base: BasePair, cf: ContinuedFraction, a: int) -> int:
    """N_i(a) = n_i p_i - m_i q_i + (-1)**(i+1) a."""
    if a < 0:
        raise DomainError("a must be nonnegative")
    conv = cf.convergent(base.i)
    sign = 1 if base.i % 2 else -1
    return base.n * conv.p - base.m * conv.q + sign * a


def construct_coprime_approx(cf: ContinuedFraction, gamma: GammaSpec, i: int,
                             c: float = 2.0,
                             caps: SearchCaps = SearchCaps(),
                             expansion: Optional[RealOstrowski] = None
                             ) -> ApproxPair:
    """Emit a certified coprime pair (m, n) at construction index i."""
    if is_zero_gamma(gamma):
        # With no shift the convergents themselves are coprime and optimal.
        conv = cf.convergent(i)
        err = abs(cf.d_value(i))
        return ApproxPair(i, 0, 0, conv.p, conv.q, err,
                          _quality(err, conv.q, c), 0, 0)
    if i < 4:
        raise DomainError("construction requires index i >= 4")
    alpha = cf.alpha()
    gvr = gamma_value(cf, gamma)
    base = base_pair(cf, gamma, i, expansion=expansion)
    conv = cf.convergent(i)
    n0 = cross_term(base, cf, 0)
    sign = 1 if i % 2 else -1

    width = max(1, math.ceil(growth_h(max(2, abs(n0)), c)))
    if width > MAX_A_WINDOW:
        raise SearchCapError(
            f"a-window of {width} shifts exceeds {MAX_A_WINDOW} at i={i}")
    # a -> |N_i(a)| for a = 1..width, skipping a zero cross term.
    sizes = {a: abs(n0 + sign * a) for a in range(1, width + 1)
             if n0 + sign * a}
    if not sizes:
        raise DomainError(
            f"index {i} unusable: every cross term in the window vanishes")
    lo = min(sizes.values())
    window = omega_window(lo, max(sizes.values()))
    # Window position -> the least a that reaches it, in increasing a.
    a_at: dict[int, int] = {}
    for a, v in sizes.items():
        a_at.setdefault(v - lo, a)
    pos = window.first_least(a_at)
    a_pick, omega_cross = a_at[pos], window[pos]

    m_a, n_a = shifted_pair(base, cf, a_pick, 0)
    n_cross = cross_term(base, cf, a_pick)
    if n_cross != n_a * conv.p - m_a * conv.q:
        raise CheckFailedError(f"cross term disagrees with the pair at i={i}")

    b_pick = find_coprime_shift(
        ProgressionQuery(m_a, n_a, conv.p, conv.q, caps.max_b))
    if b_pick is None:
        raise SearchCapError(
            f"no coprime shift up to {caps.max_b} for i={i}, a={a_pick}, "
            f"cross={n_cross}, base=({base.m},{base.n})")
    # A_used: the first cap of the doubling schedule that reaches b.
    cap = max(16, math.ceil(
        8 * math.log(math.log(max(3, abs(n_cross)))) * 2**omega_cross))
    while cap < b_pick:
        cap *= 2
    cap = min(cap, caps.max_b)

    m, n = shifted_pair(base, cf, a_pick, b_pick)
    if n == 0:
        raise DomainError(f"index {i} unusable: emitted n = 0")
    if math.gcd(m, n) != 1:
        raise CheckFailedError("emitted pair is not coprime")
    err = abs(alpha * n - m - gvr)
    bound = Fraction(1 + a_pick + b_pick, conv.q)
    if not err <= bound:
        raise CheckFailedError(
            f"error exceeded the structural bound (1+a+b)/q_i at i={i}")
    return ApproxPair(i, a_pick, b_pick, m, n, err,
                      _quality(err, n, c), omega_cross, cap)


def _quality(err: ValidatedReal, n: int, c: float) -> float:
    """err.hi * |n| / exp(c*sqrt(log |n|)), read from err's enclosure.

    An exact err is enclosed to width 2^-64 relative to its size, so the
    ratio is right to its printed 12 digits at any depth; an err over a
    fixed interval reads the tightest enclosure its checks reached.
    """
    n_abs = abs(n)
    if n_abs == 0:
        raise DomainError("quality undefined for n = 0")
    scale = math.exp(c * math.sqrt(math.log(n_abs))) if n_abs > 1 else 1.0
    return float(err.hi * n_abs) / scale


def construct_sweep(cf: ContinuedFraction, gamma: GammaSpec, i_range,
                    c: float = 2.0, caps: SearchCaps = SearchCaps()
                    ) -> list[tuple[int, Union[ApproxPair, OstroError]]]:
    """Run the construction across indices, never aborting on a typed error.

    Each index's OstroError is returned in place of its pair; any other
    exception is a fault and propagates.  A generic gamma is expanded
    once, to the deepest index; if that depth cannot be certified, each
    row expands to its own index instead.
    """
    indices = list(i_range)
    depth = max(indices)
    expansion = None
    # Rows below index 4 fail before they read a digit.
    if (isinstance(gamma, GenericGamma) and not is_zero_gamma(gamma)
            and depth >= 4):
        try:
            expansion = ostrowski_real(cf, gamma.value, depth)
        except PrecisionError:
            pass  # each row expands to its own index
    out: list[tuple[int, Union[ApproxPair, OstroError]]] = []
    for i in indices:
        try:
            out.append((i, construct_coprime_approx(
                cf, gamma, i, c, caps, expansion=expansion)))
        except OstroError as exc:
            out.append((i, exc))
    return out


def n0_growth_check(cf: ContinuedFraction, gamma: GammaSpec, i_range,
                    ) -> list[tuple[int, int, float]]:
    """Rows (i, N_i(0), |N_i(0)|/(q_i |gamma|)) with certified residuals.

    Checks |N_i(0) - q_i*gamma| <= 4 for generic gamma and
    <= |ell|/q_{i+1} for lattice gamma; violations raise CheckFailedError.
    """
    gvr = gamma_value(cf, gamma)
    if is_zero_gamma(gamma):
        raise DomainError("growth ratio undefined for gamma = 0")
    indices = list(i_range)
    expansion = None
    if isinstance(gamma, GenericGamma):
        expansion = ostrowski_real(cf, gamma.value, max(indices))
    rows = []
    gamma_abs = abs(float(gvr))
    for i in indices:
        base = base_pair(cf, gamma, i, expansion=expansion)
        n0 = cross_term(base, cf, 0)
        q_i = cf.convergent(i).q
        residual = abs(ValidatedReal.exact_rational(n0) - gvr * q_i)
        if isinstance(gamma, LatticeGamma):
            bound = Fraction(abs(gamma.ell), cf.convergent(i + 1).q)
            ok = residual <= bound
        else:
            ok = residual <= 4
        if not ok:
            raise CheckFailedError(f"cross-term residual escaped at i={i}")
        rows.append((i, n0, abs(n0) / (q_i * gamma_abs)))
    return rows
