"""Spans and counters recorded around ostro's module boundaries.

The tracer patches module attributes and class methods from outside the
package (the program itself is not edited) and restores them on
`uninstall`.  A span is (name, start, end, parent, op id); spans stay in
memory until the run ends.  A layer's self time is its spans' durations
minus the time covered by their child spans.  The hottest operators
(`QuadExt` arithmetic, `ValidatedReal` decisions) get counters only.
"""

from __future__ import annotations

import math
import time
from collections import Counter

from ostro import cli, confrac, construct, coprimesearch, quadratic, validated
from ostro.errors import PrecisionError

QUADEXT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
               "__abs__", "__lt__", "__le__", "__gt__", "__ge__", "inverse",
               "sign", "floor")
DECISIONS = ("__lt__", "__le__", "__gt__", "__ge__", "sign", "floor")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        # A renamed hook fails here rather than reading 0.
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def hook(self, owner, attr: str, span=None, after=None) -> None:
        """Wrap owner.attr in a span named `span` (when given), then call
        after(args, result) to add counts."""
        begin, end = self.begin, self.end

        def make(fn):
            def traced(*args, **kwargs):
                if span is None:
                    result = fn(*args, **kwargs)
                else:
                    idx = begin(span)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        end(idx)
                if after is not None:
                    after(args, result)
                return result
            return traced
        self._patch(owner, attr, make)

    def count(self, owner, attr: str, key: str, error_key=None) -> None:
        """Count calls of owner.attr, and PrecisionErrors under error_key."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                if error_key is None:
                    return fn(*args, **kwargs)
                try:
                    return fn(*args, **kwargs)
                except PrecisionError:
                    counts[error_key] += 1
                    raise
            return counted
        self._patch(owner, attr, make)

    def install(self) -> None:
        counts = self.counts

        def sweep_rows(args, rows):
            failed = sum(isinstance(res, Exception) for _, res in rows)
            counts["construct.rows_failed"] += failed
            counts["construct.rows_ok"] += len(rows) - failed

        def oracle_records(args, records):
            counts["oracle.n_scanned"] += args[2]
            counts["oracle.records"] += len(records)

        def expansion(args, exp):
            counts["ostrowski.real_calls"] += 1
            counts["ostrowski.digits"] += exp.depth

        def window(args, omegas):
            counts["numtheory.omega_window_calls"] += 1
            counts["numtheory.omega_window_ints"] += len(omegas)

        def shift(args, b):
            counts["coprimesearch.shift_calls"] += 1
            if b is None:
                counts["construct.cap_doublings"] += 1
                counts["coprimesearch.shift_gcds"] += args[0].a_max
            else:
                counts["coprimesearch.shift_hits"] += 1
                counts["coprimesearch.shift_gcds"] += b

        def a_window(args, h):
            # construct scans a = 1..max(1, ceil(h_c(|N_i(0)|))).
            counts["construct.a_window_ints"] += max(1, math.ceil(h))

        def divisors(args, divs):
            counts["coprimesearch.mobius_divisors"] += len(divs)

        def enclosure(args, result):
            counts["quadratic.enclosures"] += 1

        def refine(args, result):
            counts["validated.refines"] += result is not args[0]

        def rendered(args, result):
            counts["cli.rows"] += 1

        self.hook(cli, "construct_sweep", "construct.sweep", sweep_rows)
        self.hook(cli, "best_coprime_approx", "oracle.scan", oracle_records)
        self.hook(cli, "render_interval", "cli.render", rendered)
        self.hook(construct, "ostrowski_real", "ostrowski.real", expansion)
        self.hook(construct, "omega_window", "numtheory.omega_window", window)
        self.hook(construct, "find_coprime_shift", "coprimesearch.shift", shift)
        self.hook(construct, "growth_h", after=a_window)
        self.hook(coprimesearch, "squarefree_divisors", "numtheory.factorize",
                  divisors)
        self.hook(confrac.ContinuedFraction, "convergent", "confrac.convergent")
        self.count(confrac.ContinuedFraction, "_next_convergent",
                   "confrac.convergents")
        self.hook(quadratic.QuadExt, "enclosure", "quadratic.enclosure",
                  enclosure)
        self.hook(validated.ValidatedReal, "refined", "validated.refine",
                  refine)
        for attr in QUADEXT_OPS:
            self.count(quadratic.QuadExt, attr, "quadratic.ops")
        for attr in DECISIONS:
            self.count(validated.ValidatedReal, attr, "validated.decisions",
                       error_key="validated.precision_errors")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name, in nanoseconds."""
        return self_times(self.names, self.starts, self.ends, self.parents)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for row in zip(self.op_ids, self.names, self.starts, self.ends,
                           self.parents):
                fh.write("\t".join(map(str, row)) + "\n")


def self_times(names, starts, ends, parents) -> dict[str, int]:
    """Per name: sum of span durations minus what their children cover.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval and their durations simply add up.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[idx] - starts[idx]
    totals: Counter = Counter()
    for name, value in zip(names, own):
        totals[name] += value
    return dict(totals)
