"""In-memory span tracing around qdilab's public entry points.

A :class:`Tracer` wraps one function or method per layer boundary while it is
installed (see :meth:`Tracer.installed`) and restores the originals when it
leaves.  Each call opens a span with a name, start, end, parent span and run
id; spans live in compact arrays until :meth:`Tracer.write` dumps them.

``decode`` is called about 850,000 times per 6x6 verify, too often to keep
one span each.  Its calls are folded into the span that encloses them: every
span carries the number of ``decode`` calls made directly inside it and the
time they took, and that time counts as covered by a child, like any span.

A span's self time is its duration minus the time its child spans (and its
folded ``decode`` calls) cover.  Self times are kept apart by stage, the
span directly under the run's root that encloses them (set-up or call), so
that each stage can be rescaled on its own.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from qdilab import analysis, components, handshake, multiplier, netlist, sim

ROOT = "rep"  # one root span per traced repetition
SETUP, CALL = "setup", "call"  # the stages of a repetition
DECODE = "handshake.decode"

# (owner, attribute, span name); the analysis drivers share one layer name
BOUNDARIES = (
    (multiplier, "array_multiplier", "multiplier.build"),
    (components, "ripple_carry_adder", "multiplier.build"),
    (netlist, "validate", "netlist.validate"),
    (handshake.HandshakeHarness, "__init__", "handshake.harness"),
    (handshake.HandshakeHarness, "initialize", "sim.init"),
    (handshake.HandshakeHarness, "run_phase", "handshake.phase"),
    (sim.SimState, "apply_and_settle", "sim.settle"),
    (analysis, "exhaustive_verify", "analysis"),
    (analysis, "orphan_scan", "analysis"),
    (analysis, "classify_indication", "analysis"),
    (analysis, "measure_latencies", "analysis"),
)


def _count_settle(c: Counter, args, report) -> None:
    c["sim.events"] += report.steps
    c["sim.env_commits"] += report.transitions - report.steps
    c["sim.hazards"] += len(report.hazards)
    c["sim.sim_time_units"] += report.elapsed


def _count_harness(c: Counter, args, _result) -> None:
    c["netlist.gates"] += len(args[0].netlist.gates)  # args[0] is the harness


# span name -> what its calls add to the run's counts
COUNTERS = {"sim.settle": _count_settle, "handshake.harness": _count_harness}


class Tracer:
    """Spans and counters for a sequence of traced repetitions ("runs")."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.run = array("i")
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.decode_calls = array("I")
        self.decode_s = array("d")
        self.counts: list[Counter] = []  # per run, counts taken at boundaries
        self._stack: list[int] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, start: float) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.run.append(len(self.counts) - 1)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(start)
        self.decode_calls.append(0)
        self.decode_s.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block, such as a stage of a repetition."""
        i = self._open(name, perf_counter())
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def run_span(self):
        """One traced repetition: a new run id under a single root span."""
        self.counts.append(Counter())
        with self.span(ROOT):
            yield

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(counter, args, result)`` then adds
        what the call returned to the run's counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                count(self.counts[-1], args, result)
            return result
        return wrapper

    def _decode(self, fn):
        stack = self._stack
        calls = self.decode_calls
        spent = self.decode_s

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                top = stack[-1]
                calls[top] += 1
                spent[top] += dt
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer boundary; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in BOUNDARIES:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._span(name, original, COUNTERS.get(name)))
            original = vars(handshake)["decode"]
            saved.append((handshake, "decode", original))
            handshake.decode = self._decode(original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[dict[tuple[str, str], float]]:
        """Per run: summed self time of every (stage, span name), ``decode``
        included.  The root's own stage is ``ROOT``."""
        per_span = [e - s - d for s, e, d in zip(self.start, self.end, self.decode_s)]
        stage = []
        for i, p in enumerate(self.parent):  # a parent comes before its children
            if p >= 0:
                per_span[p] -= self.end[i] - self.start[i]
            top = p < 0 or self.parent[p] < 0
            stage.append(self.names[self.name[i]] if top else stage[p])
        totals: list[dict[tuple[str, str], float]] = [{} for _ in self.counts]
        for i, t in enumerate(per_span):
            run = totals[self.run[i]]
            key = (stage[i], self.names[self.name[i]])
            run[key] = run.get(key, 0.0) + t
            if self.decode_calls[i]:
                key = (stage[i], DECODE)
                run[key] = run.get(key, 0.0) + self.decode_s[i]
        return totals

    def call_counts(self) -> list[Counter]:
        """Per run: boundary counts plus the number of calls of each span name."""
        out = [Counter(c) for c in self.counts]
        for i, nid in enumerate(self.name):
            out[self.run[i]][self.names[nid] + "_calls"] += 1
            out[self.run[i]][DECODE + "_calls"] += self.decode_calls[i]
        return out

    def write(self, path: Path) -> None:
        """Dump every span as gzipped CSV (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("run,span,parent,name,start_s,end_s,decode_calls,decode_s\n")
            for i in range(len(self.start)):
                f.write(f"{self.run[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                        f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                        f"{self.decode_calls[i]},{self.decode_s[i]:.9f}\n")
