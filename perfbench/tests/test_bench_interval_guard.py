"""Every interval sweep the generator emits finishes, and verifies.

The generator's rules keep sweeps out of the known interval-refinement
hang; a regression there would show as an operation overrunning the
guard instead of hanging the benchmark.
"""

import itertools
import signal
import time

import pytest

from ostro import cli
from verifier import check
from workloads import I_START, ops

GUARD_S = 20
OPS_PER_SEED = 24   # four passes over the six strata


class Overrun(Exception):
    pass


def _raise_overrun(signum, frame):
    raise Overrun


@pytest.mark.parametrize("seed", [1, 2])
def test_interval_sweeps_finish_under_the_guard(seed):
    previous = signal.signal(signal.SIGALRM, _raise_overrun)
    try:
        for op in itertools.islice(ops("sweep-interval", seed), OPS_PER_SEED):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, GUARD_S)
            try:
                text = cli.run_construct(
                    cli.parse_alpha_spec(op.alpha.spec),
                    cli.parse_gamma_spec(op.gamma.spec),
                    range(I_START, op.i_max + 1), op.c)
            except Overrun:
                pytest.fail(f"{op.alpha.spec} {op.gamma.spec} i_max={op.i_max}"
                            f" ran past {GUARD_S} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert time.perf_counter() - start < GUARD_S
            assert check(op, text) == (op.i_max - I_START + 1, [])
    finally:
        signal.signal(signal.SIGALRM, previous)
