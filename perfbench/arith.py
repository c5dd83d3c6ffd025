"""Integer arithmetic the benchmark uses on its own, without ostro.

The generator sizes its inputs with these functions and the verifier
checks ostro's outputs with them, so neither depends on the code it
measures.  Quadratic irrationals are (p + sqrt d)/q with q > 0; every
sign and floor is decided exactly on integers.
"""

from __future__ import annotations

import itertools
from math import isqrt


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def surd_quotients(d: int, p: int, q: int):
    """Partial quotients of (p + sqrt d)/q, forever (d nonsquare, q > 0).

    The classical surd recurrence on (P + sqrt D)/Q with Q | D - P^2,
    reached by scaling numerator and denominator by q.
    """
    big_d, big_p, big_q = d * q * q, p * q, q * q
    root = isqrt(big_d)
    while True:
        if big_q > 0:
            a = (big_p + root) // big_q
        else:
            a = -((big_p + root) // -big_q) - 1
        yield a
        big_p = a * big_q - big_p
        big_q = (big_d - big_p * big_p) // big_q


def convergents(quotients):
    """Yield the convergents (p_k, q_k) of a stream of partial quotients."""
    p_prev, p_cur, q_prev, q_cur = 0, 1, 1, 0
    for a in quotients:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield p_cur, q_cur


def denominators_below(quotients, limit: int) -> list[int]:
    """The convergent denominators q_k for as long as q_k < limit."""
    return [q for _, q in itertools.takewhile(lambda c: c[1] < limit,
                                              convergents(quotients))]


def decimal_quotients(num: int, den: int, eps_den: int) -> list[int]:
    """Quotients certified over [c - 1/eps_den, c + 1/eps_den], c = num/den.

    A quotient is certified when every point of the interval has the same
    floor; the list ends at the first one that is not.  Mirrors the
    contract of a `dec:<digits>@<precision>` alpha: the trusted digits
    determine exactly these quotients.  Raises ValueError when the
    literal's own expansion ends first, which ostro rejects as rational.
    """
    # Interval endpoints as integer fractions over a common denominator.
    lo_n, hi_n, cen_n = num * eps_den - den, num * eps_den + den, num * eps_den
    com = den * eps_den
    lo, hi, cen = (lo_n, com), (hi_n, com), (cen_n, com)
    quots: list[int] = []
    while True:
        if cen[0] % cen[1] == 0:
            raise ValueError("the literal is rational within its precision")
        a = cen[0] // cen[1]
        if not (a * lo[1] <= lo[0] and hi[0] < (a + 1) * hi[1]):
            return quots
        quots.append(a)
        if lo[0] == a * lo[1]:
            return quots
        # x -> 1/(x - a) reverses the order of the endpoints.
        cen = (cen[1], cen[0] - a * cen[1])
        lo, hi = (hi[1], hi[0] - a * hi[1]), (lo[1], lo[0] - a * lo[1])


def surd_sign(x: int, y: int, d: int) -> int:
    """Exact sign of x + y*sqrt(d) for integers x, y and nonsquare d."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sy == 0 or sx == sy:
        return sx if sx else sy
    if sx == 0:
        return sy
    return sx if x * x > y * y * d else sy


def parse_decimal(text: str) -> tuple[int, int]:
    """A decimal literal such as '-1.25e-3' or '0.5' as (num, den), den > 0."""
    mant, _, exp_text = text.lower().partition("e")
    exp = int(exp_text) if exp_text else 0
    neg = mant.startswith("-")
    mant = mant.lstrip("+-")
    whole, _, frac = mant.partition(".")
    num = int((whole or "0") + frac)
    exp -= len(frac)
    if neg:
        num = -num
    if exp >= 0:
        return num * 10**exp, 1
    return num, 10**-exp
