"""Self-time arithmetic, and the tracer leaves ostro as it found it."""

import pytest

from ostro import cli, quadratic, validated
from tracing import Tracer, self_times


def test_self_times_on_a_synthetic_tree():
    #   a [0, 100]            self 100 - 30 - 20 = 50
    #     b [10, 40]          self 30 - 10 = 20
    #       c [15, 25]        self 10
    #     d [50, 70]          self 20
    #   a [200, 230]          self 30 (a second root with the same name)
    names = ["a", "b", "c", "d", "a"]
    starts = [0, 10, 15, 50, 200]
    ends = [100, 40, 25, 70, 230]
    parents = [-1, 0, 1, 0, -1]
    assert self_times(names, starts, ends, parents) == {
        "a": 80, "b": 20, "c": 10, "d": 20}


def test_recorded_spans_nest_and_uninstall_restores():
    originals = (cli.construct_sweep, quadratic.QuadExt.__add__,
                 validated.ValidatedReal.refined)
    tracer = Tracer()
    tracer.install()
    try:
        alpha = cli.parse_alpha_spec("quad:2,0,1")
        gamma = cli.parse_gamma_spec("rat:1/3")
        tracer.call("cli.run", cli.run_construct, alpha, gamma, range(5, 9), 2.0)
    finally:
        tracer.uninstall()
    assert (cli.construct_sweep, quadratic.QuadExt.__add__,
            validated.ValidatedReal.refined) == originals
    assert tracer.names[0] == "cli.run" and tracer.parents[0] == -1
    for idx, parent in enumerate(tracer.parents[1:], start=1):
        assert 0 <= parent < idx
        assert tracer.starts[parent] <= tracer.starts[idx]
        assert tracer.ends[idx] <= tracer.ends[parent]
    assert tracer.counts["construct.rows_ok"] == 4
    assert tracer.counts["quadratic.ops"] > 0
    total = tracer.ends[0] - tracer.starts[0]
    assert sum(tracer.self_ns().values()) == total


def test_a_renamed_hook_fails_loudly():
    with pytest.raises(KeyError):
        Tracer().count(quadratic.QuadExt, "no_such_operator", "quadratic.ops")
