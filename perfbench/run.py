"""ostro benchmark: one workload, one seed, a closed loop with one caller.

    python3 perfbench/run.py --workload sweep-exact --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Operations come from `workloads.ops(workload, seed)` and run one
after another for --seconds of measured time; each output is checked by
`verifier` (integer arithmetic, no ostro) as soon as it returns, outside
the measured time.  With --trace 0
the last line reports the end-to-end metrics; with --trace 1 a separate
traced pass reports per-layer metrics, the tracing overhead, and writes
its spans to perfbench/out/.  See NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# A fresh interpreter pays this on every CLI call: import, then the sieve.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ostro; "
    "from ostro.numtheory import factor_budget, primes_up_to; "
    "primes_up_to(factor_budget())")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_ostro():
    if not (SRC / "ostro" / "__init__.py").is_file():
        fail(f"no ostro sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ostro
    if Path(ostro.__file__).resolve().parent != (SRC / "ostro").resolve():
        fail(f"imported ostro from {ostro.__file__}, not from {SRC}")
    return ostro


def git_sha() -> str:
    """HEAD's commit, or 'unknown' outside a git checkout."""
    try:
        # The ceiling keeps git from finding a repository above ROOT.
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ,
                            "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": git_sha()}


def measure_setup() -> float:
    """Median wall time of fresh interpreters that import and warm up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: waiting with one polls in 50 ms steps.
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- the closed loop -------------------------------------------------------------


def make_runner(tracer=None):
    """op -> output, calling ostro's public entry points as the CLI does.

    Alphas and gammas are parsed afresh for every operation, so per-alpha
    caches start cold, as they do for each CLI call.
    """
    from ostro import cli, count_coprime_mobius, ProgressionQuery
    from ostro import parse_alpha_spec, parse_gamma_spec
    from workloads import I_START, CountOp, SweepOp

    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    def run(op):
        if isinstance(op, CountOp):
            return [call("coprimesearch.mobius", count_coprime_mobius,
                         ProgressionQuery(op.m, op.n, op.r, op.s, a_max))
                    for a_max in op.a_maxes]
        alpha = call("confrac.parse", parse_alpha_spec, op.alpha.spec)
        gamma = call("confrac.parse", parse_gamma_spec, op.gamma.spec)
        if isinstance(op, SweepOp):
            return call("cli.run", cli.run_construct, alpha, gamma,
                        range(I_START, op.i_max + 1), op.c)
        return call("cli.run", cli.run_oracle, alpha, gamma, op.n_max)
    return run


def verify(op, output) -> tuple[int, list[str]]:
    """(items, problems) for one operation's output or exception."""
    from verifier import check
    if isinstance(output, Exception):
        return 0, [f"{type(output).__name__}: {output}"]
    try:
        return check(op, output)
    except (ValueError, KeyError, IndexError) as exc:
        return 0, [f"unparsable output: {exc!r}"]


def closed_loop(stream, run, seconds: float, tracer=None):
    """Run operations until `seconds` of measured time have passed or
    the stream ends.

    Each output is verified as soon as its operation returns, outside the
    measured time, and then dropped, so memory does not grow with the
    number of operations.  Returns (seconds per operation, items, failed
    operations, first problems).
    """
    times = array("d")
    items = failed = 0
    problems: list[str] = []
    spent = 0.0
    while spent < seconds:
        op = next(stream, None)
        if op is None:
            break
        if tracer is not None:
            tracer.op_id = len(times)
        start = time.perf_counter()
        try:
            output = run(op)
        except Exception as exc:  # a failed operation, counted below
            output = exc
        took = time.perf_counter() - start
        times.append(took)
        spent += took
        done, issues = verify(op, output)
        items += done
        if issues:
            failed += 1
            problems.extend(issues[:5 - len(problems)])
    return times, items, failed, problems


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- modes -------------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float):
    from ostro.numtheory import factor_budget, primes_up_to
    from workloads import ops
    setup_s = measure_setup()
    primes_up_to(factor_budget())
    times, items, failed, problems = closed_loop(
        ops(workload, seed), make_runner(), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times_ms = [took * 1000 for took in times]
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items / (sum(times_ms) / 1000), "1/s"),
        "op_p50_ms": (percentile(times_ms, 50), "ms"),
        "op_p90_ms": (percentile(times_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    summary = {"ops": len(times), "items": items, "failed": failed,
               "fail_frac": failed / len(times), "problems": problems}
    return metrics, summary


PER_OP_SPANS = {
    "cli.render_ms": "cli.render",
    "construct.self_ms": "construct.sweep",
    "ostrowski.real_ms": "ostrowski.real",
    "confrac.parse_ms": "confrac.parse",
    "confrac.convergent_ms": "confrac.convergent",
    "quadratic.enclosure_ms": "quadratic.enclosure",
    "validated.refine_ms": "validated.refine",
    "numtheory.omega_window_ms": "numtheory.omega_window",
    "numtheory.factorize_ms": "numtheory.factorize",
    "coprimesearch.shift_ms": "coprimesearch.shift",
    "coprimesearch.mobius_ms": "coprimesearch.mobius",
    "oracle.self_ms": "oracle.scan",
    "cli.self_ms": "cli.run",
}

PER_OP_COUNTS = (
    "cli.rows", "construct.rows_ok", "construct.rows_failed",
    "construct.a_window_ints", "construct.cap_doublings",
    "ostrowski.real_calls", "ostrowski.digits", "confrac.convergents",
    "quadratic.ops", "quadratic.enclosures", "validated.decisions",
    "validated.refines", "validated.precision_errors",
    "numtheory.omega_window_calls", "numtheory.omega_window_ints",
    "coprimesearch.shift_calls", "coprimesearch.shift_gcds",
    "coprimesearch.mobius_divisors", "oracle.n_scanned", "oracle.records",
)


def traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics from traced operations.

    Each operation also runs once untraced, alternating which of the two
    goes first, so the tracing overhead is priced on the same inputs at
    nearly the same moment.  `seconds` covers both runs.
    """
    from ostro.numtheory import factor_budget, primes_up_to
    from tracing import Tracer
    from workloads import ops
    start = time.perf_counter()
    primes_up_to(factor_budget())
    sieve_ms = (time.perf_counter() - start) * 1000

    tracer = Tracer()
    plain, with_spans = make_runner(), make_runner(tracer)
    untraced_s: list[float] = []

    def run_plain(op):
        start = time.perf_counter()
        try:
            plain(op)
        except Exception:  # the traced run records the failure
            pass
        untraced_s.append(time.perf_counter() - start)

    def run_traced(op):
        tracer.install()
        try:
            return with_spans(op)
        finally:
            tracer.uninstall()

    def paired(op):
        if tracer.op_id % 2:
            output = run_traced(op)
            run_plain(op)
            return output
        run_plain(op)
        return run_traced(op)

    paired_s, items, failed, problems = closed_loop(
        ops(workload, seed), paired, seconds, tracer)
    traced_s = [took - plain_s for took, plain_s in zip(paired_s, untraced_s)]

    n_ops = len(traced_s)
    self_ns = tracer.self_ns()
    counts = tracer.counts
    metrics = {name: (self_ns.get(span, 0) / 1e6 / n_ops, "ms/op")
               for name, span in PER_OP_SPANS.items()}
    metrics.update({name: (counts[name] / n_ops, "1/op")
                    for name in PER_OP_COUNTS})
    metrics["numtheory.sieve_ms"] = (sieve_ms, "ms")
    metrics["coprimesearch.shift_hit_ratio"] = (
        counts["coprimesearch.shift_hits"]
        / max(1, counts["coprimesearch.shift_gcds"]), "ratio")
    traced_ips = items / sum(traced_s)
    untraced_ips = items / sum(untraced_s)
    metrics["trace.items_per_s_traced"] = (traced_ips, "1/s")
    metrics["trace.items_per_s_untraced"] = (untraced_ips, "1/s")
    metrics["trace.overhead_pct"] = (
        (untraced_ips / traced_ips - 1) * 100, "%")
    metrics["trace.spans"] = (len(tracer.names) / n_ops, "1/op")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-{seed}.tsv")
    summary = {"ops": n_ops, "items": items, "failed": failed,
               "fail_frac": failed / n_ops, "problems": problems}
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import_ostro()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")
    mode = traced if args.trace else end_to_end
    metrics, summary = mode(args.workload, args.seed, args.seconds)

    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, **environment(), **summary}
    print(json.dumps(info))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["ops"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
