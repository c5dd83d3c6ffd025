import hashlib
import signal
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro import cli, construct
from ostro.cli import (CONSTRUCT_HEADER, format_sci, main, render_interval)
from ostro.confrac import parse_alpha_spec
from ostro.errors import CheckFailedError
from ostro.validated import ValidatedReal

import fixtures


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_sci_directed_rounding():
    third = Fraction(1, 3)
    lo = format_sci(third, 6, "floor")
    hi = format_sci(third, 6, "ceil")
    assert lo == "3.33333e-1"
    assert hi == "3.33334e-1"
    assert format_sci(-third, 6, "floor") == "-3.33334e-1"
    assert format_sci(-third, 6, "ceil") == "-3.33333e-1"
    assert format_sci(Fraction(0), 6, "floor") == "0"
    assert format_sci(Fraction(1, 4), 3, "ceil") == "2.50e-1"  # exact: no bump
    assert format_sci(Fraction(125), 2, "floor") == "1.2e2"
    assert format_sci(Fraction(999999, 1000), 3, "ceil") == "1.00e3"  # carry


def _format_sci_reference(x: Fraction, sig: int, rounding: str) -> str:
    """format_sci as it was first written: Fraction powers of ten."""
    if x == 0:
        return "0"
    neg = x < 0
    ax = -x if neg else x
    e = len(str(ax.numerator)) - len(str(ax.denominator))
    while ax < Fraction(10) ** e:
        e -= 1
    while ax >= Fraction(10) ** (e + 1):
        e += 1
    scaled = ax * Fraction(10) ** (sig - 1 - e)
    mant = scaled.numerator // scaled.denominator
    if mant != scaled:
        outward = (rounding == "ceil") != neg
        if outward:
            mant += 1
            if mant == 10**sig:
                mant //= 10
                e += 1
    digits = str(mant)
    body = digits[0] + "." + digits[1:]
    return f"{'-' if neg else ''}{body}e{e}"


_sign = st.sampled_from([1, -1])
_fractions = st.one_of(
    # numerators and denominators up to 10^80
    st.builds(Fraction, st.integers(1, 10**80), st.integers(1, 10**80)),
    # exact powers of ten
    st.builds(lambda k: Fraction(10) ** k, st.integers(-60, 60)),
    # 10^k - 1 over 10^j, whose outward bump carries into a new digit
    st.builds(lambda k, j: Fraction(10**k - 1, 10**j),
              st.integers(1, 60), st.integers(0, 60)),
    # one unit below or above a power of ten
    st.builds(lambda k, j, step: Fraction(10 ** (k + j) + step, 10**j),
              st.integers(0, 30), st.integers(1, 50), _sign),
)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(_fractions, _sign, st.integers(1, 40),
       st.sampled_from(["floor", "ceil"]))
def test_format_sci_matches_the_fraction_loop(x, sign, sig, rounding):
    x *= sign
    assert format_sci(x, sig, rounding) == _format_sci_reference(x, sig, rounding)


def test_render_interval_brackets_value():
    v = ValidatedReal.exact_rational(Fraction(1, 7))
    lo, hi = render_interval(v, sig=12)
    assert lo == "1.42857142857e-1"
    assert hi == "1.42857142858e-1"


def test_format_sci_past_the_int_str_digit_limit():
    # Numerator and denominator pass Python's 4300-digit int->str limit.
    x = Fraction(10**5000 + 7, 3 * 10**4990)
    assert format_sci(x, 30, "floor") == "3.33333333333333333333333333333e9"
    assert format_sci(x, 30, "ceil") == "3.33333333333333333333333333334e9"


def test_render_interval_of_a_value_past_the_digit_limit():
    x = Fraction(1, 3**10000)  # about 6.13e-4772
    lo, hi = render_interval(ValidatedReal.exact_rational(x))
    assert Fraction(lo) < x < Fraction(hi)
    assert Fraction(hi) - Fraction(lo) <= x * Fraction(2, 10**29)


@pytest.mark.parametrize("k", [150, 300, 700])
def test_render_interval_keeps_30_digits_below_1e_40(k):
    # D_k of sqrt 2 is about 1.6e-58 at k = 150 and 2e-268 at k = 700; each
    # printed pair brackets it to two units in the 30th digit.
    lo, hi = render_interval(parse_alpha_spec("quad:2,0,1").convergent(k).D)
    p, q = _sqrt2_convergent(k)
    with mpmath.workdps(1200):
        ref = q * mpmath.sqrt(2) - p
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        assert lo <= ref <= hi
        assert hi - lo <= abs(ref) * mpmath.mpf("2e-29")


@pytest.mark.parametrize("k", [1000, 3000])
def test_render_interval_keeps_30_digits_below_2_to_the_minus_1024(k):
    # D_1000 of sqrt 2 is about 6.9e-384 and D_3000 about 2e-1149, both
    # past the absolute 2^-1024 rung: the refinement is relative instead.
    lo, hi = render_interval(parse_alpha_spec("quad:2,0,1").convergent(k).D)
    p, q = _sqrt2_convergent(k)
    with mpmath.workdps(2 * len(str(q)) + 60):
        ref = q * mpmath.sqrt(2) - p
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        assert lo <= ref <= hi
        assert hi - lo <= abs(ref) * mpmath.mpf("2e-29")


def test_cf_verb(capsys):
    code, out, _ = run(["cf", "--alpha", "quad:5,1,2", "-K", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,a_k,p_k,q_k,D_k_lo,D_k_hi"
    qs = [int(line.split(",")[3]) for line in lines[1:]]
    ps = [int(line.split(",")[2]) for line in lines[1:]]
    assert qs == [1, 1, 2, 3, 5, 8]
    assert ps == [1, 2, 3, 5, 8, 13]
    code, out, _ = run(["cf", "--alpha", "quad:2,0,1", "-K", "4"], capsys)
    assert out.strip().split("\n")[-1].startswith("4,2,41,29,")


def test_cf_reads_and_prints_integers_past_the_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    quotient = "1" * 4400
    code, out, err = run(["cf", "--alpha", f"cf:1,{quotient};1", "-K", "2"],
                         capsys)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[1] for row in rows] == ["1", quotient, "1"]
    assert rows[1][2] == "1" * 4399 + "2"  # p_1 = a_0*a_1 + 1
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_cf_decimal_horizon_exit(capsys):
    code, _, err = run(["cf", "--alpha", "dec:1.41@2", "-K", "10"], capsys)
    assert code == 3


def test_cf_decimal_without_precision_is_a_parse_error(capsys):
    code, out, err = run(["cf", "--alpha", "dec:1.41@0", "-K", "2"], capsys)
    assert (code, out) == (2, "")
    assert "precision must be positive" in err


def test_parse_error_exit_and_no_partial_file(tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code, _, err = run(["cf", "--alpha", "quad:nope", "-K", "3",
                        "-o", str(out_path)], capsys)
    assert code == 2
    assert not out_path.exists()
    code, _, _ = run(["construct", "--alpha", "quad:2,0,1",
                      "--gamma", "rat:x", "-o", str(out_path)], capsys)
    assert code == 2
    assert not out_path.exists()


def test_ostrowski_verbs(capsys):
    code, out, _ = run(["ostrowski", "--alpha", "quad:5,1,2", "-n", "10"],
                       capsys)
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    assert rows["2"] == "1" and rows["5"] == "1"
    q6 = 169  # q_6 for sqrt(2)
    code, out, _ = run(["ostrowski", "--alpha", "quad:2,0,1", "-n", str(q6)],
                       capsys)
    coeffs = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
    assert coeffs == ["0"] * 6 + ["1"]
    code, out, _ = run(["ostrowski", "--alpha", "quad:2,0,1",
                        "--gamma", "rat:1/3", "-K", "12"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,coeff,tail_bound"
    assert len(lines) == 13
    assert [int(line.split(",")[1]) for line in lines[1:6]] == [1, 1, 1, 0, 2]


def test_ostrowski_tail_bound_is_rendered_to_its_digits(capsys):
    # tail_bound is |D_59| of sqrt 2, about 1.08e-23: an upper bound right
    # to 29 digits, like every other printed endpoint.
    code, out, _ = run(["ostrowski", "--alpha", "quad:2,0,1",
                        "--gamma", "rat:1/3", "-K", "60"], capsys)
    assert code == 0
    tails = {line.split(",")[2] for line in out.strip().split("\n")[1:]}
    assert len(tails) == 1
    p, q = _sqrt2_convergent(59)
    with mpmath.workdps(100):
        ref = abs(q * mpmath.sqrt(2) - p)
        assert ref <= mpmath.mpf(tails.pop()) <= ref * (1 + mpmath.mpf("1.01e-29"))


def _sqrt2_convergent(k):
    p_prev, q_prev, p, q = 1, 0, 1, 1
    for _ in range(k):
        p_prev, q_prev, p, q = p, q, 2 * p + p_prev, 2 * q + q_prev
    return p, q


def test_ostrowski_lattice_gamma_is_domain_error(capsys):
    code, _, err = run(["ostrowski", "--alpha", "quad:2,0,1",
                        "--gamma", "lat:1,0", "-K", "8"], capsys)
    assert code == 4
    assert "use lat: with construct" in err
    # rational integers are lattice points too
    code, _, _ = run(["ostrowski", "--alpha", "quad:2,0,1",
                      "--gamma", "rat:2", "-K", "8"], capsys)
    assert code == 4
    # exactly one of -n / --gamma
    code, _, _ = run(["ostrowski", "--alpha", "quad:2,0,1"], capsys)
    assert code == 2


def test_construct_verb_and_determinism(tmp_path, capsys):
    args = ["construct", "--alpha", "quad:2,0,1", "--gamma", "rat:1/3",
            "--i-range", "5:14"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    capsys.readouterr()
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert hashlib.sha256(data).hexdigest() == fixtures.CONSTRUCT_CSV_SHA256
    lines = data.decode().split("\n")
    assert lines[0] == CONSTRUCT_HEADER
    assert len(lines) == 12  # header + 10 rows + trailing newline


def test_construct_gamma_zero_rows(capsys):
    code, out, _ = run(["construct", "--alpha", "quad:2,0,1",
                        "--gamma", "lat:0,0", "--i-range", "5:8"], capsys)
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        cells = line.split(",")
        assert cells[1] == "0" and cells[2] == "0"


def _reference_error(alpha, gamma, m, n):
    """|n*alpha - m - gamma| in mpmath at 100 digits, for `quad:d,p,q`
    alpha and `rat:` gamma."""
    d, p, q = (int(part) for part in alpha[len("quad:"):].split(","))
    g = Fraction(gamma[len("rat:"):])
    with mpmath.workdps(100):
        value = (p + mpmath.sqrt(d)) / q
        return abs(n * value - m - mpmath.mpf(g.numerator) / g.denominator)


@pytest.mark.parametrize("alpha, gamma, i", [
    ("quad:10,0,1", "rat:36/17", 19),
    ("quad:88,0,3", "rat:4/21", 25),
    ("quad:2,0,1", "rat:0", 90),     # err ~ 1e-35, far below 2^-64
    ("quad:125,3,2", "rat:0", 30),
])
def test_construct_quality_and_err_hi_match_a_reference(alpha, gamma, i,
                                                       capsys):
    # quality = err*n/exp(2*sqrt(log n)) is right to its 12 printed digits
    # and err_hi is an upper bound right to 29 digits, at any depth.
    code, out, _ = run(["construct", "--alpha", alpha, "--gamma", gamma,
                        "--i-range", f"{i}:{i}"], capsys)
    assert code == 0
    header = out.split("\n")[0].split(",")
    row = dict(zip(header, out.split("\n")[1].split(",")))
    m, n = int(row["m"]), int(row["n"])
    ref = _reference_error(alpha, gamma, m, n)
    with mpmath.workdps(100):
        err_hi = mpmath.mpf(row["err_hi"])
        assert ref <= err_hi <= ref * (1 + mpmath.mpf("1.01e-29"))
        quality = ref * n / mpmath.exp(2 * mpmath.sqrt(mpmath.log(n)))
        assert abs(float(row["quality"]) / quality - 1) <= 1e-11


def test_construct_err_hi_below_2_to_the_minus_1024(capsys):
    # err is about 2.5e-307 at i = 800, below 2^-1019.
    code, out, _ = run(["construct", "--alpha", "quad:2,0,1",
                        "--gamma", "rat:0", "--i-range", "800:800"], capsys)
    assert code == 0
    row = dict(zip(CONSTRUCT_HEADER.split(","), out.split("\n")[1].split(",")))
    m, n = int(row["m"]), int(row["n"])
    with mpmath.workdps(2 * len(str(n)) + 60):
        ref = abs(n * mpmath.sqrt(2) - m)
        err_hi = mpmath.mpf(row["err_hi"])
        assert ref <= err_hi <= ref * (1 + mpmath.mpf("1.01e-29"))


def test_construct_rows_name_their_error_type(capsys):
    # sqrt 2 to 50 decimals certifies quotients up to a_64: i = 62 and 64
    # fail their factoring budget, and rows past the digits are precision.
    alpha = "dec:1.41421356237309504880168872420969807856967187537694@50"
    code, out, _ = run(["construct", "--alpha", alpha, "--gamma", "rat:1/3",
                        "--i-range", "62:67"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == [
        "status:domain", "64", "status:domain", "status:precision",
        "status:precision", "status:precision"]
    assert rows[1].startswith("63,219,1,")


def _planted(exc):
    def stage(*args):
        raise exc
    return stage


def test_construct_lets_a_fault_propagate(monkeypatch, capsys):
    # A fault is not a typed error: no status row, no exit code.
    monkeypatch.setattr(construct, "find_coprime_shift",
                        _planted(ZeroDivisionError("planted fault")))
    with pytest.raises(ZeroDivisionError, match="planted fault"):
        main(["construct", "--alpha", "quad:2,0,1", "--gamma", "rat:1/3",
              "--i-range", "5:6"])


def test_construct_failed_check_is_an_error_row(monkeypatch, capsys):
    monkeypatch.setattr(construct, "find_coprime_shift",
                        _planted(CheckFailedError("planted check")))
    code, out, _ = run(["construct", "--alpha", "quad:2,0,1",
                        "--gamma", "rat:1/3", "--i-range", "5:6"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["5,,,,,,,,status:error",
                                    "6,,,,,,,,status:error"]
    # Outside a row a failed check has no exit code: the CLI re-raises it.
    monkeypatch.setattr(cli, "best_coprime_approx",
                        _planted(CheckFailedError("planted check")))
    with pytest.raises(CheckFailedError, match="planted check"):
        main(["oracle", "--alpha", "quad:2,0,1", "--gamma", "rat:0",
              "--n-max", "12"])


def test_construct_warns_on_small_c(capsys):
    code, _, err = run(["construct", "--alpha", "quad:2,0,1",
                        "--gamma", "rat:0", "--i-range", "5:6",
                        "-c", "1.0"], capsys)
    assert code == 0
    assert "warning" in err


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_construct_refuses_a_non_finite_c(c, capsys):
    code, out, err = run(["construct", "--alpha", "quad:2,0,1",
                          "--gamma", "rat:1/3", "--i-range", "5:7",
                          f"-c={c}"], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


def _raise_timeout(signum, frame):
    raise TimeoutError("construct ran past its guard")


@pytest.mark.parametrize("c, status", [("20", "search-cap"),
                                       ("1000", "domain")])
def test_construct_refuses_a_huge_c_row_by_row(c, status, capsys):
    # c = 20 asks for ~1.4e9 shifts a row; c = 1000 overflows growth_g.
    # Both rows must be refused at once, before a window is allocated.
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        code, out, _ = run(["construct", "--alpha", "quad:2,0,1",
                            "--gamma", "rat:1/3", "--i-range", "5:6",
                            f"-c={c}"], capsys)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert out.splitlines()[1:] == [f"{i},,,,,,,,status:{status}"
                                    for i in (5, 6)]


def test_oracle_verb(capsys):
    code, out, _ = run(["oracle", "--alpha", "quad:2,0,1", "--gamma", "rat:0",
                        "--n-max", "12"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,err_hi"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 5, 12]


def test_plot_determinism_and_empty(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    svg1, svg2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    assert main(["construct", "--alpha", "quad:2,0,1", "--gamma", "rat:1/3",
                 "--i-range", "5:14", "-o", str(csv)]) == 0
    assert main(["plot", "--input", str(csv), "-o", str(svg1)]) == 0
    assert main(["plot", "--input", str(csv), "-o", str(svg2)]) == 0
    capsys.readouterr()
    data = svg1.read_bytes()
    assert data == svg2.read_bytes()
    assert hashlib.sha256(data).hexdigest() == fixtures.PLOT_SVG_SHA256
    empty = tmp_path / "empty.csv"
    empty.write_text("i,a,b,m,n,err_hi,quality,omega_Nia,A_used\n")
    out_svg = tmp_path / "empty.svg"
    assert main(["plot", "--input", str(empty), "-o", str(out_svg)]) == 0
    body = out_svg.read_text()
    assert "<svg" in body and "polyline" not in body


@pytest.mark.parametrize("row", ["inf,,,,,,0.5,,", "15,,,,,,inf,,",
                                 "-inf,,,,,,0.5,,", "16,,,,,,nan,,"])
def test_plot_drops_non_finite_points(row, tmp_path, capsys):
    csv = tmp_path / "c.csv"
    assert main(["construct", "--alpha", "quad:2,0,1", "--gamma", "rat:1/3",
                 "--i-range", "5:14", "-o", str(csv)]) == 0
    plain = tmp_path / "plain.svg"
    assert main(["plot", "--input", str(csv), "-o", str(plain)]) == 0
    extra = tmp_path / "extra.csv"
    extra.write_text(csv.read_text() + row + "\n")
    code, out, _ = run(["plot", "--input", str(extra)], capsys)
    assert code == 0
    assert out == plain.read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == fixtures.PLOT_SVG_SHA256


def test_plot_reads_a_non_utf8_file_as_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe\x00i\x00,\x00q\n\x80\x81\n")
    code, out, err = run(["plot", "--input", str(bad)], capsys)
    assert (code, out) == (4, "")
    assert "CSV lacks i/quality columns" in err
    # An undecodable cell in a data row is skipped like any unparsable one.
    csv = tmp_path / "c.csv"
    assert main(["construct", "--alpha", "quad:2,0,1", "--gamma", "rat:1/3",
                 "--i-range", "5:14", "-o", str(csv)]) == 0
    extra = tmp_path / "extra.csv"
    extra.write_bytes(csv.read_bytes() + b"15,,,,,,0.\xff5,,\n")
    code, out, _ = run(["plot", "--input", str(extra)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == fixtures.PLOT_SVG_SHA256


@pytest.mark.parametrize("args", [
    ["construct", "--alpha", "quad:2,0,1", "--gamma", "dec:0.5@3000000",
     "--i-range", "5:6"],
    ["cf", "--alpha", "dec:1e999999999@3", "-K", "2"],
    ["cf", "--alpha", "dec:1.41e-131073@3", "-K", "2"],
])
def test_dec_bodies_past_the_digit_bound_are_parse_errors(args, capsys):
    # Each asks for millions of digits in a few characters of text.
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        code, out, err = run(args, capsys)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (2, "")
    assert "131072" in err


def test_io_error_exits_5(tmp_path, capsys):
    code, _, _ = run(["plot", "--input", str(tmp_path / "missing.csv"),
                      "-o", "-"], capsys)
    assert code == 5
    code, _, _ = run(["cf", "--alpha", "quad:2,0,1", "-K", "3",
                      "-o", str(tmp_path / "no" / "dir" / "x.csv")], capsys)
    assert code == 5


def test_unknown_verb_and_missing_args_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["cf", "--alpha", "quad:2,0,1"]) == 2  # missing -K
    capsys.readouterr()


def test_format_sci_of_a_131072_digit_operand():
    # An endpoint of a dec: value at the largest precision accepted.
    x = Fraction(10**131072 // 3, 10**131072)
    assert format_sci(x, 30, "floor") == "3.33333333333333333333333333333e-1"
    assert format_sci(x, 30, "ceil") == "3.33333333333333333333333333334e-1"
    assert format_sci(-x, 5, "floor") == "-3.3334e-1"


@pytest.mark.parametrize("args, message", [
    (["construct", "--alpha", "quad:2,0,1", "--gamma", "rat:1/3",
      "--i-range", "5"], "bad index range"),
    (["construct", "--alpha", "quad:2,0,1", "--gamma", "rat:1/3",
      "--i-range", "7:5"], "empty index range"),
    (["cf", "--alpha", "quad:2,0,1", "-K", "-1"], "terms must be >= 0"),
    (["oracle", "--alpha", "quad:2,0,1", "--gamma", "rat:1/3",
      "--n-max", "0"], "n-max must be >= 1"),
])
def test_refused_counts_and_ranges_exit_2(args, message, capsys):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert message in err
