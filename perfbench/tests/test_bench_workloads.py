"""The generator is deterministic and keeps out the excluded regions."""

import itertools
import math

import pytest

from arith import convergents, decimal_quotients, surd_quotients
from workloads import (CROSS_LIMIT, DECIMAL_HORIZON_MARGIN, I_START,
                       INTERVAL_DIGIT_LOOKAHEAD, INTERVAL_Q_LIMIT,
                       ROW_Q_LIMIT, WORKLOADS, CountOp, SweepOp, ops,
                       small_primes)


def first(name, seed, count=24):
    return list(itertools.islice(ops(name, seed), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops(name):
    assert first(name, 7) == first(name, 7)
    assert first(name, 7) != first(name, 8)


def quad_qs(alpha, count):
    return [q for _, q in itertools.islice(convergents(
        surd_quotients(alpha.d, alpha.p, alpha.q)), count)]


@pytest.mark.parametrize("name", ["sweep-exact", "sweep-interval"])
def test_sweeps_stay_inside_the_safe_regions(name):
    for op in first(name, 3, 60):
        assert isinstance(op, SweepOp) and op.i_max >= I_START
        if op.alpha.exact:
            qs = quad_qs(op.alpha, op.i_max + INTERVAL_DIGIT_LOOKAHEAD + 1)
            assert qs[op.i_max + 1] < ROW_Q_LIMIT
            if op.gamma.kind == "dec":
                assert qs[op.i_max + INTERVAL_DIGIT_LOOKAHEAD] < INTERVAL_Q_LIMIT
        else:
            quots = decimal_quotients(op.alpha.num, op.alpha.den,
                                      10**op.alpha.prec)
            horizon = len(quots) - 1
            assert op.i_max <= horizon - DECIMAL_HORIZON_MARGIN
            qs = [q for _, q in convergents(quots)]
            assert qs[op.i_max + 1] < ROW_Q_LIMIT


def test_count_queries_follow_their_strata():
    for k, op in enumerate(first("coprime-count", 5, 320)):
        assert isinstance(op, CountOp)
        assert math.gcd(op.r, op.s) == 1 and op.n * op.r != op.m * op.s
        if k % 16 != 15:
            assert max(op.m, op.n, op.r, op.s) <= 12
            assert op.a_maxes == tuple(range(1, 51))
            continue
        cross = abs(op.n * op.r - op.m * op.s)
        small = [p for p in small_primes() if cross % p == 0]
        rest = cross // math.prod(small)
        assert cross < CROSS_LIMIT and 100 <= op.a_maxes[0] <= 10**4
        assert len(op.a_maxes) == 1
        assert 1 <= len(small) <= 8 and (rest == 1 or 10**6 < rest <= 10**7)
        assert (rest > 1) == (k // 16 % 16 >= 8)
