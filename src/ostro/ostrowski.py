"""Ostrowski numeration over the convergent scales of an irrational alpha.

Positive integers expand uniquely as n = sum c_{k+1} q_k and reals in
[-{alpha}, 1-{alpha}) expand as gamma = sum b_{k+1} D_k, both under the
digit constraints 0 <= c_1 < a_1, 0 <= c_{k+1} <= a_{k+1} and the
adjacency rule that a maximal digit forces its predecessor to zero.  The
real expansion here picks each digit by comparing the signed residual
against the capacity |D_{k+1}| of the remaining tail, which is the unique
choice that keeps every suffix representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .confrac import ContinuedFraction
from .errors import DomainError, IllegalExpansionError
from .validated import ValidatedReal


@dataclass(frozen=True)
class IntOstrowski:
    """Digits coeffs[k] = c_{k+1} for k = 0..M, with q_M <= n < q_{M+1}."""

    coeffs: tuple[int, ...]
    M: int


@dataclass(frozen=True)
class RealOstrowski:
    """Digits coeffs[k] = b_{k+1} for k = 0..K-1 of gamma - shift."""

    coeffs: tuple[int, ...]
    shift: int
    gamma_norm: ValidatedReal

    @property
    def depth(self) -> int:
        return len(self.coeffs)


def ostrowski_int(cf: ContinuedFraction, n: int) -> IntOstrowski:
    """Greedy expansion of n >= 1 over the convergent denominators q_k."""
    if n < 1:
        raise DomainError("ostrowski_int requires n >= 1")
    m = 0
    while cf.convergent(m + 1).q <= n:
        m += 1
    rem = n
    coeffs = [0] * (m + 1)
    for k in range(m, -1, -1):
        qk = cf.convergent(k).q
        coeffs[k], rem = divmod(rem, qk)
    exp = IntOstrowski(tuple(coeffs), m)
    validate_int_expansion(exp, cf)
    return exp


def validate_int_expansion(exp: IntOstrowski, cf: ContinuedFraction) -> None:
    """Raise IllegalExpansionError unless the digit string is legal."""
    coeffs = exp.coeffs
    if not coeffs or all(c == 0 for c in coeffs):
        raise IllegalExpansionError("illegal expansion: no nonzero digit")
    if coeffs[-1] == 0:
        raise IllegalExpansionError("illegal expansion: trailing zero digit")
    if len(coeffs) != exp.M + 1:
        raise IllegalExpansionError("illegal expansion: length disagrees with M")
    if coeffs[0] < 0 or coeffs[0] >= cf.partial_quotient(1):
        raise IllegalExpansionError("illegal expansion: c_1 out of range")
    for k in range(1, len(coeffs)):
        cap = cf.partial_quotient(k + 1)
        if coeffs[k] < 0 or coeffs[k] > cap:
            raise IllegalExpansionError(
                f"illegal expansion: digit at k={k} exceeds a_{k + 1}")
        if coeffs[k] == cap and coeffs[k - 1] != 0:
            raise IllegalExpansionError(
                f"illegal expansion: maximal digit at k={k} needs a zero before it")


def ostrowski_int_reconstruct(exp: IntOstrowski, cf: ContinuedFraction) -> int:
    """Sum c_{k+1} q_k of a legal expansion."""
    validate_int_expansion(exp, cf)
    return sum(c * cf.convergent(k).q for k, c in enumerate(exp.coeffs))


def normalize_gamma(cf: ContinuedFraction,
                    gamma: ValidatedReal) -> tuple[int, ValidatedReal]:
    """Shift ell with gamma - ell in [-{alpha}, 1-{alpha})."""
    gamma = ValidatedReal.wrap(gamma)
    shift = (gamma + cf.frac_alpha()).floor()
    return shift, gamma - shift


def ostrowski_real(cf: ContinuedFraction, gamma,
                   depth: int) -> RealOstrowski:
    """Expand gamma over the signed errors D_k, truncated at `depth`.

    The caller vouches that gamma is not of the form alpha*l + l'; for such
    lattice values the digit stream ends in the degenerate all-maximal
    pattern instead of terminating, and boundary comparisons may raise.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    gamma = ValidatedReal.wrap(gamma)
    shift, gamma_norm = normalize_gamma(cf, gamma)
    coeffs: list[int] = []
    u = gamma_norm
    prev_nonzero = True  # enforces b_1 <= a_1 - 1
    for k in range(depth):
        d_here = cf.d_abs(k)
        d_next = cf.d_abs(k + 1)
        if u <= d_next:
            b = 0
        else:
            b = ((u - d_next) / d_here).ceil()
        cap = cf.partial_quotient(k + 1) - (1 if prev_nonzero else 0)
        if b < 0 or b > cap:
            raise DomainError(
                "gamma escaped the normalized digit domain; "
                "is it really outside the alpha lattice?")
        coeffs.append(b)
        u = d_here * b - u
        prev_nonzero = b != 0
    exp = RealOstrowski(tuple(coeffs), shift, gamma_norm)
    if gamma_norm.exact is not None:
        # Free certification on the exact path: the residual never exceeds
        # the capacity of the truncated tail.
        res = abs(real_residual(cf, exp, depth))
        if not res <= cf.d_abs(depth - 1):
            raise DomainError("residual escaped the certified tail bound")
    return exp


def real_partial_sum(cf: ContinuedFraction, exp: RealOstrowski,
                     upto: int) -> ValidatedReal:
    """Sum of b_{k+1} D_k for k < upto."""
    if upto > exp.depth:
        raise DomainError("partial sum deeper than the expansion")
    total = ValidatedReal.exact_rational(0)
    for k in range(upto):
        b = exp.coeffs[k]
        if b:
            total = total + cf.d_value(k) * b
    return total


def real_residual(cf: ContinuedFraction, exp: RealOstrowski,
                  upto: int) -> ValidatedReal:
    """gamma_norm minus the partial sum, i.e. the exact tail from `upto`."""
    return exp.gamma_norm - real_partial_sum(cf, exp, upto)


def inhom_bound(cf: ContinuedFraction, int_exp: IntOstrowski,
                real_exp: RealOstrowski, m: int) -> ValidatedReal:
    """Certified bound 3*max(1, |delta_{m+1}|)/q_{m+1} at the first
    disagreement index m of the two digit strings.

    Requires m >= 4 and c_{k+1} = b_{k+1} for every k < m.
    """
    if m < 4:
        raise DomainError("first-disagreement bound requires m >= 4")
    if real_exp.depth <= m:
        raise DomainError("real expansion too shallow for index m")
    for k in range(m):
        c = int_exp.coeffs[k] if k < len(int_exp.coeffs) else 0
        if c != real_exp.coeffs[k]:
            raise DomainError(f"digit strings disagree below m at k={k}")
    c_m = int_exp.coeffs[m] if m < len(int_exp.coeffs) else 0
    delta = c_m - real_exp.coeffs[m]
    q_next = cf.convergent(m + 1).q
    return ValidatedReal.exact_rational(Fraction(3 * max(1, abs(delta)), q_next))


def tail_sign(cf: ContinuedFraction, real_exp: RealOstrowski, m: int) -> int:
    """Certified sign of the tail sum b_{m+1} D_m + b_{m+2} D_{m+1} + ...

    Defined for m >= 4 with a nonzero leading tail digit; the sign always
    equals (-1)^m for such tails.
    """
    if m < 4:
        raise DomainError("tail sign requires m >= 4")
    if real_exp.depth <= m:
        raise DomainError("real expansion too shallow for index m")
    if real_exp.coeffs[m] == 0:
        raise DomainError("tail sign requires b_{m+1} != 0")
    s = real_residual(cf, real_exp, m).sign()
    if s == 0:
        raise DomainError("tail vanished: gamma lies on the alpha lattice")
    return s
