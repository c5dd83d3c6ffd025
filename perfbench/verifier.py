"""Checks ostro's outputs with integer arithmetic only, never calling ostro.

Each check returns (items, problems): the work items the output
completed and a list of reasons to reject it.  An operation whose output
has any problem counts as failed.
"""

from __future__ import annotations

import math
from math import isqrt

from arith import convergents, parse_decimal, surd_quotients, surd_sign
from workloads import I_START, Alpha, CountOp, Gamma, OracleOp, SweepOp


def _alpha_points(alpha: Alpha) -> list[tuple[int, int]]:
    """Corners (num, den) of a decimal alpha's box."""
    return [(alpha.num - 1, alpha.den), (alpha.num + 1, alpha.den)]


def _gamma_points(gamma: Gamma) -> list[tuple[int, int]]:
    """Corners (num, den) of gamma's box; lattice gammas use (0, 1)."""
    if gamma.kind == "dec":
        return [(gamma.num - 1, gamma.den), (gamma.num + 1, gamma.den)]
    if gamma.kind == "rat":
        return [(gamma.num, gamma.den)]
    return [(0, 1)]


def _lattice_shift(gamma: Gamma, m: int, n: int) -> tuple[int, int]:
    """n*alpha - m - (alpha*l + l') = (n - l)*alpha - (m + l')."""
    if gamma.kind == "lat":
        return m + gamma.ell_prime, n - gamma.ell
    return m, n


def quad_error(alpha: Alpha, m: int, n: int, g: tuple[int, int]
               ) -> tuple[int, int]:
    """(X, Y) with X + Y*sqrt(d) = (n*alpha - m - g) * q * g_den."""
    g_num, g_den = g
    return ((n * alpha.p - m * alpha.q) * g_den - g_num * alpha.q,
            n * g_den)


def error_within(alpha: Alpha, gamma: Gamma, m: int, n: int,
                 bound: tuple[int, int]) -> bool:
    """|n*alpha - m - gamma| <= e_num/e_den at every corner of the box."""
    e_num, e_den = bound
    m, n = _lattice_shift(gamma, m, n)
    for g in _gamma_points(gamma):
        if alpha.exact:
            x, y = quad_error(alpha, m, n, g)
            top = e_num * alpha.q * g[1]
            if (surd_sign(top - e_den * x, -e_den * y, alpha.d) < 0
                    or surd_sign(top + e_den * x, e_den * y, alpha.d) < 0):
                return False
            continue
        for a_num, a_den in _alpha_points(alpha):
            v = n * a_num * g[1] - m * a_den * g[1] - g[0] * a_den
            if abs(v) * e_den > e_num * a_den * g[1]:
                return False
    return True


def _csv_rows(text: str, columns: tuple[str, ...]) -> tuple[list[dict], list[str]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    missing = [c for c in columns if c not in header]
    if missing:
        return [], [f"header lacks {missing}"]
    return [dict(zip(header, line.split(","))) for line in lines[1:]], []


def check_sweep(op: SweepOp, text: str) -> tuple[int, list[str]]:
    rows, problems = _csv_rows(text, ("i", "m", "n", "err_hi"))
    if problems:
        return 0, problems
    indices = [int(row["i"]) for row in rows]
    if indices != list(range(I_START, op.i_max + 1)):
        problems.append(f"rows cover i={indices}, not {I_START}..{op.i_max}")
    items = 0
    for row in rows:
        status = [cell for cell in row.values() if cell.startswith("status:")]
        if status:
            problems.append(f"i={row['i']}: {status[0]}")
            continue
        m, n = int(row["m"]), int(row["n"])
        if n == 0:
            problems.append(f"i={row['i']}: n = 0")
        elif math.gcd(m, n) != 1:
            problems.append(f"i={row['i']}: gcd(m, n) != 1")
        elif not error_within(op.alpha, op.gamma, m, n,
                              parse_decimal(row["err_hi"])):
            problems.append(f"i={row['i']}: error exceeds err_hi")
        else:
            items += 1
    return items, problems


def _nearest_coprime(m: int, step: int, n: int) -> int:
    while math.gcd(m, n) != 1:
        m += step
    return m


def oracle_records(op: OracleOp) -> list[tuple[int, int]]:
    """(n, m) of every record for n = 1..n_max, recomputed exactly.

    For each n the best m is the nearer of the nearest coprime integers
    on either side of t = n*alpha - gamma, the smaller on a tie; a record
    is a strict improvement of the best error so far.
    """
    alpha, gamma, d = op.alpha, op.gamma, op.alpha.d
    # t = (x + y*sqrt(d))/den, advanced by (dx + dy*sqrt(d))/den per n.
    if gamma.kind == "lat":
        # t = (n - l)*alpha - l'.
        den, dy = alpha.q, 1
        x, y = -gamma.ell * alpha.p - gamma.ell_prime * alpha.q, -gamma.ell
    else:
        den, dy = alpha.q * gamma.den, gamma.den
        x, y = -gamma.num * alpha.q, 0
    dx = alpha.p * dy
    records: list[tuple[int, int]] = []
    best = None
    for n in range(1, op.n_max + 1):
        x, y = x + dx, y + dy
        root = isqrt(y * y * d)
        floor_t = (x + (root if y >= 0 else -root - 1)) // den
        left = _nearest_coprime(floor_t, -1, n)
        right = _nearest_coprime(floor_t + 1, 1, n)
        # Errors times den: t - left and right - t.
        if surd_sign(2 * x - (left + right) * den, 2 * y, d) > 0:
            m, err = right, (right * den - x, -y)
        else:
            m, err = left, (x - left * den, y)
        if best is None or surd_sign(best[0] - err[0], best[1] - err[1],
                                     d) > 0:
            best = err
            records.append((n, m))
    return records


def check_oracle(op: OracleOp, text: str) -> tuple[int, list[str]]:
    rows, problems = _csv_rows(text, ("n", "m", "err_hi"))
    if problems:
        return 0, problems
    got = [(int(row["n"]), int(row["m"])) for row in rows]
    # The recomputed records are coprime and strictly improving.
    if got != oracle_records(op):
        problems.append("records differ from the benchmark's own scan")
    for (n, m), row in zip(got, rows):
        if not error_within(op.alpha, op.gamma, m, n,
                            parse_decimal(row["err_hi"])):
            problems.append(f"n={n}: error exceeds err_hi")
    if op.gamma.spec == "rat:0":
        # Records of the homogeneous problem are the convergents.
        best: dict[int, int] = {}
        for p_k, q_k in convergents(
                surd_quotients(op.alpha.d, op.alpha.p, op.alpha.q)):
            if q_k > op.n_max:
                break
            best[q_k] = p_k
        if got != sorted(best.items()):
            problems.append("rat:0 records differ from the convergents")
    return (op.n_max if not problems else 0), problems


def counts_by_scan(op: CountOp) -> list[int]:
    """The count for each A in op.a_maxes, from one gcd scan."""
    counts, total, b = [], 0, 0
    for a_max in op.a_maxes:
        for b in range(b + 1, a_max + 1):
            total += math.gcd(op.m + b * op.r, op.n + b * op.s) == 1
        counts.append(total)
    return counts


def check_count(op: CountOp, counts) -> tuple[int, list[str]]:
    expected = counts_by_scan(op)
    if counts != expected:
        return 0, [f"counts {counts} != scanned {expected}"]
    return len(counts), []


def check(op, output) -> tuple[int, list[str]]:
    if isinstance(op, SweepOp):
        return check_sweep(op, output)
    if isinstance(op, OracleOp):
        return check_oracle(op, output)
    return check_count(op, output)
