"""The verifier accepts ostro's outputs and rejects corrupted ones."""

import pytest

from ostro import ProgressionQuery, cli, count_coprime_mobius
from verifier import check
from workloads import Alpha, CountOp, Gamma, OracleOp, SweepOp

SQRT2 = Alpha("quad:2,0,1", d=2, p=0, q=1)
GOLDEN = Alpha("quad:5,1,2", d=5, p=1, q=2)
DEC_PI = Alpha("dec:3.14159265358979323846264338327950288419716939937510@50",
               num=314159265358979323846264338327950288419716939937510,
               den=10**50, prec=50)
THIRD = Gamma("rat:1/3", "rat", num=1, den=3)
LAT = Gamma("lat:1,-2", "lat", ell=1, ell_prime=-2)
DEC_GAMMA = Gamma("dec:0.5772156649015328606065120900824@31", "dec",
                  num=5772156649015328606065120900824, den=10**31)


def construct(op):
    return cli.run_construct(cli.parse_alpha_spec(op.alpha.spec),
                             cli.parse_gamma_spec(op.gamma.spec),
                             range(5, op.i_max + 1), op.c)


def corrupt(text, row_index, column, change):
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    cells = lines[row_index + 1].split(",")
    col = header.index(column)
    cells[col] = change(cells[col], dict(zip(header, cells)))
    lines[row_index + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


SWEEPS = [SweepOp(SQRT2, THIRD, 14), SweepOp(GOLDEN, LAT, 14),
          SweepOp(DEC_PI, THIRD, 20), SweepOp(SQRT2, DEC_GAMMA, 9)]


@pytest.mark.parametrize("op", SWEEPS, ids=lambda op: op.alpha.spec[:8] + op.gamma.kind)
def test_sweep_rows_accepted_and_corruptions_rejected(op):
    text = construct(op)
    assert check(op, text) == (op.i_max - 4, [])

    plus_one = corrupt(text, 3, "m", lambda m, row: str(int(m) + 1))
    assert check(op, plus_one)[1][0].startswith("i=8: ")

    doubled = corrupt(corrupt(text, 3, "m", lambda m, row: str(int(m) * 2)),
                      3, "n", lambda n, row: str(int(n) * 2))
    assert "gcd" in check(op, doubled)[1][0]

    def shrink(err_hi, row):
        mant, _, exp = err_hi.partition("e")
        return f"{mant}e{int(exp) - 1}"
    too_small = corrupt(text, 3, "err_hi", shrink)
    assert "error exceeds err_hi" in check(op, too_small)[1][0]

    status = corrupt(text, 2, "A_used", lambda a, row: "status:precision")
    assert check(op, status)[1]


@pytest.mark.parametrize("gamma", [Gamma("rat:0", "rat"), THIRD,
                                   Gamma("lat:-1,2", "lat", ell=-1,
                                         ell_prime=2)],
                         ids=["zero", "rat", "lat"])
def test_oracle_records_accepted_and_corruptions_rejected(gamma):
    op = OracleOp(GOLDEN, gamma, 400)
    text = cli.run_oracle(cli.parse_alpha_spec(op.alpha.spec),
                          cli.parse_gamma_spec(gamma.spec), op.n_max)
    assert check(op, text) == (400, [])
    assert check(op, corrupt(text, 2, "m", lambda m, row: str(int(m) + 1)))[1]
    lines = text.rstrip("\n").split("\n")
    dropped = "\n".join(lines[:2] + lines[3:]) + "\n"
    swapped = "\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:]) + "\n"
    assert check(op, swapped)[1]
    problems = check(op, dropped)[1]
    assert "own scan" in problems[0]
    if gamma.spec == "rat:0":
        assert "convergents" in problems[-1]


def test_counts_compared_with_the_gcd_scan():
    op = CountOp(m=7, n=10, r=3, s=5, a_maxes=(1, 2, 3, 50, 500))
    counts = [count_coprime_mobius(ProgressionQuery(op.m, op.n, op.r, op.s,
                                                    a_max))
              for a_max in op.a_maxes]
    assert check(op, counts) == (5, [])
    counts[3] += 1
    assert check(op, counts)[0] == 0


def test_unparsable_output_counts_as_failed():
    from run import closed_loop
    op = SweepOp(SQRT2, THIRD, 5)
    times, items, failed, problems = closed_loop(
        iter([op]), lambda op: "i,m,n,err_hi\n5,x,1,1e-3\n", 1.0)
    assert (len(times), items, failed) == (1, 0, 1)
    assert "unparsable" in problems[0]
