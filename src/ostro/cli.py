"""Command-line front end.

Verbs: cf, ostrowski, construct, oracle, plot.  All outputs are
deterministic CSV (or SVG for plot): identical invocations produce
byte-identical files.  Exit codes are a stable contract, read, like the
`status:` word of a failed `construct` row, from the error type:

    0 success, 2 parse error, 3 precision exhausted, 4 domain error or
    search cap, 5 I/O error; a traceback with exit 1 is a program fault.
"""

from __future__ import annotations

import argparse
import decimal
import math
import sys
from fractions import Fraction

from .confrac import ContinuedFraction, parse_alpha_spec
from .construct import (ApproxPair, LatticeGamma, construct_sweep,
                        gamma_value, parse_gamma_spec)
from .errors import DomainError, OstroError, PrecisionError, SpecParseError
from .oracle import best_coprime_approx
from .ostrowski import ostrowski_int, ostrowski_real
from .svgplot import render_quality_plot
from .validated import ValidatedReal

C_THRESHOLD = 2.0 * math.sqrt(math.log(2.0))

CONSTRUCT_HEADER = "i,a,b,m,n,err_hi,quality,omega_Nia,A_used"


def format_sci(x: Fraction, sig: int, rounding: str) -> str:
    """Fraction as `sig` significant digits, `d.ddd...e<exp>`, rounded
    toward -inf ("floor") or +inf ("ceil"), at any size.

    s is chosen from the bit lengths so that f = floor(x * 10^s) has at
    least sig + 1 digits; with r the remainder, `decimal` rounds
    (10*f + (r != 0)) * 10^-(s+1) once.  That value and x lie in
    [f, f + 1) * 10^-s, which holds no `sig`-digit number inside it, so
    they round alike."""
    if x == 0:
        return "0"
    mode = decimal.ROUND_FLOOR if rounding == "floor" else decimal.ROUND_CEILING
    ctx = decimal.Context(prec=sig, rounding=mode, Emin=decimal.MIN_EMIN,
                          Emax=decimal.MAX_EMAX)
    n, d = x.numerator, x.denominator
    t = n.bit_length() - d.bit_length() - 1  # |x| > 2^t
    # k <= t*log10(2), from a bound on log10(2) below or above it.
    k = t * (30102999566 if t >= 0 else 30102999567) // 10**11
    s = sig - k  # so |x| * 10^s > 10^sig
    f, r = divmod(n * 10**s, d) if s >= 0 else divmod(n, d * 10**-s)
    q = decimal.Decimal(10 * f + (r != 0)).scaleb(-(s + 1), ctx)
    e = q.adjusted()
    # q has at most `sig` digits: the shift to a `sig`-digit integer is exact.
    digits = str(abs(int(q.scaleb(sig - 1 - e, ctx))))
    return f"{'-' if q.is_signed() else ''}{digits[0]}.{digits[1:]}e{e}"


def render_interval(vr: ValidatedReal, sig: int = 30) -> tuple[str, str]:
    """Outward decimal endpoints of vr, rounded to `sig` digits.

    vr is first refined to width 10^-(sig+3) relative to max(|lo|, |hi|),
    at any size; only the enclosure [0, 0] is printed as it stands.  When
    that width is out of reach (refinement raises PrecisionError: a leaf
    is a fixed decimal interval, or the 2^-1024 cap), the tightest
    enclosure reached is printed instead; it contains the value.
    """
    scale = max(abs(vr.lo), abs(vr.hi))
    if scale:
        try:
            vr.refined(scale / 10 ** (sig + 3))
        except PrecisionError:
            pass
    return (format_sci(vr.lo, sig, "floor"), format_sci(vr.hi, sig, "ceil"))


def _parse_range(text: str) -> range:
    try:
        lo, _, hi = text.partition(":")
        start, stop = int(lo), int(hi)
    except ValueError as exc:
        raise SpecParseError(f"bad index range {text!r}") from exc
    if stop < start:
        raise SpecParseError(f"empty index range {text!r}")
    return range(start, stop + 1)


# -- verbs --------------------------------------------------------------------


def run_cf(alpha: ContinuedFraction, terms: int) -> str:
    lines = ["k,a_k,p_k,q_k,D_k_lo,D_k_hi"]
    convs = alpha.convergents(terms)
    for conv in convs:
        d_lo, d_hi = render_interval(conv.D)
        lines.append(
            f"{conv.k},{alpha.partial_quotient(conv.k)},{conv.p},{conv.q},"
            f"{d_lo},{d_hi}")
    return "\n".join(lines) + "\n"


def run_ostrowski_int(alpha: ContinuedFraction, n: int) -> str:
    exp = ostrowski_int(alpha, n)
    lines = ["k,coeff"]
    lines += [f"{k},{c}" for k, c in enumerate(exp.coeffs)]
    return "\n".join(lines) + "\n"


def run_ostrowski_real(alpha: ContinuedFraction, gamma_spec, depth: int) -> str:
    if isinstance(gamma_spec, LatticeGamma):
        raise DomainError("lattice gamma has no digit expansion: "
                          "use lat: with construct")
    exp = ostrowski_real(alpha, gamma_spec.value, depth)
    tail = render_interval(alpha.d_abs(depth - 1))[1]
    lines = ["k,coeff,tail_bound"]
    lines += [f"{k},{c},{tail}" for k, c in enumerate(exp.coeffs)]
    return "\n".join(lines) + "\n"


def run_construct(alpha: ContinuedFraction, gamma_spec, i_range, c: float) -> str:
    lines = [CONSTRUCT_HEADER]
    for i, res in construct_sweep(alpha, gamma_spec, i_range, c):
        if isinstance(res, ApproxPair):
            err_hi = render_interval(res.err)[1]
            lines.append(
                f"{res.i},{res.a},{res.b},{res.m},{res.n},{err_hi},"
                f"{res.quality:.12g},{res.omega_cross},{res.cap_used}")
        else:
            lines.append(f"{i},,,,,,,,status:{res.status}")
    return "\n".join(lines) + "\n"


def run_oracle(alpha: ContinuedFraction, gamma_spec, n_max: int) -> str:
    gvr = gamma_value(alpha, gamma_spec)
    lines = ["n,m,err_hi"]
    for rec in best_coprime_approx(alpha, gvr, n_max):
        lines.append(f"{rec.n},{rec.m},{render_interval(rec.err)[1]}")
    return "\n".join(lines) + "\n"


def run_plot(csv_text: str) -> str:
    lines = [ln for ln in csv_text.split("\n") if ln.strip()]
    points: list[tuple[float, float]] = []
    if lines:
        header = lines[0].split(",")
        try:
            xi = header.index("i")
            yi = header.index("quality")
        except ValueError as exc:
            raise DomainError("CSV lacks i/quality columns") from exc
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) <= max(xi, yi) or not cells[yi]:
                continue
            try:
                points.append((float(cells[xi]), float(cells[yi])))
            except ValueError:
                continue
    return render_quality_plot(points)


# -- argument plumbing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostro",
        description="Coprime inhomogeneous Diophantine approximation toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--alpha", required=True,
                       help="quad:d,p,q | cf:a0,a1,...[;period] | dec:<digits>@<prec>")
        p.add_argument("-o", "--output", default="-",
                       help="output path, '-' for stdout")

    p_cf = sub.add_parser("cf", help="partial quotients and convergents")
    common(p_cf)
    p_cf.add_argument("-K", "--terms", type=int, required=True,
                      help="largest convergent index")

    p_ost = sub.add_parser("ostrowski", help="integer or real digit expansion")
    common(p_ost)
    p_ost.add_argument("-n", type=int, help="integer to expand")
    p_ost.add_argument("--gamma", help="lat:l,l' | rat:p/q | dec:<digits>@<prec>")
    p_ost.add_argument("-K", "--depth", type=int, default=16,
                       help="real-expansion depth")

    p_con = sub.add_parser("construct", help="coprime approximation sweep")
    common(p_con)
    p_con.add_argument("--gamma", required=True)
    p_con.add_argument("-c", type=float, default=2.0)
    p_con.add_argument("--i-range", default="5:40", help="inclusive A:B")

    p_or = sub.add_parser("oracle", help="brute-force best-approximation records")
    common(p_or)
    p_or.add_argument("--gamma", required=True)
    p_or.add_argument("--n-max", type=int, required=True)

    p_plot = sub.add_parser("plot", help="SVG of quality vs i from a construct CSV")
    p_plot.add_argument("--input", required=True, help="construct CSV path")
    p_plot.add_argument("-o", "--output", default="-")
    return parser


def _dispatch(args: argparse.Namespace) -> str:
    if args.verb == "cf":
        if args.terms < 0:
            raise SpecParseError("terms must be >= 0")
        return run_cf(parse_alpha_spec(args.alpha), args.terms)
    if args.verb == "ostrowski":
        alpha = parse_alpha_spec(args.alpha)
        if (args.n is None) == (args.gamma is None):
            raise SpecParseError("ostrowski needs exactly one of -n / --gamma")
        if args.n is not None:
            return run_ostrowski_int(alpha, args.n)
        return run_ostrowski_real(alpha, parse_gamma_spec(args.gamma),
                                  args.depth)
    if args.verb == "construct":
        if not (math.isfinite(args.c) and args.c > 0):
            raise SpecParseError("c must be positive and finite")
        if args.c <= C_THRESHOLD:
            print(f"warning: c={args.c} is at or below 2*sqrt(log 2) "
                  f"~ {C_THRESHOLD:.4f}; the bound is only claimed above it",
                  file=sys.stderr)
        return run_construct(parse_alpha_spec(args.alpha),
                             parse_gamma_spec(args.gamma),
                             _parse_range(args.i_range), args.c)
    if args.verb == "oracle":
        if args.n_max < 1:
            raise SpecParseError("n-max must be >= 1")
        return run_oracle(parse_alpha_spec(args.alpha),
                          parse_gamma_spec(args.gamma), args.n_max)
    if args.verb == "plot":
        with open(args.input, encoding="utf-8", errors="replace") as fh:
            return run_plot(fh.read())
    raise SpecParseError(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    # argv and CSV cells hold integers of any size, so Python's int<->str
    # digit limit (3.11 and late 3.10 releases) is lifted while a verb runs.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        text = _dispatch(args)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except SystemExit as exc:  # argparse: --help, or a usage error
        return int(exc.code or 0)
    except (OstroError, OSError) as exc:
        code = 5 if isinstance(exc, OSError) else exc.exit_code
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def entry() -> None:
    sys.exit(main())
