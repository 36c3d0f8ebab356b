"""Timed and traced measurement of one workload in this process.

Untraced, a run repeats set-up (generating the netlists) and the analysis
call, each timed on its own, until ``seconds`` have passed, and reports the
medians.  Set-up is repeated across the whole run rather than in a burst at
its start, so that both medians see the same changes in the machine's speed.  The analysis
call is timed in laps (whole calls, or parts of a long call), so that even
a run of a few calls yields many samples.

Traced, a run alternates one untraced and one traced repetition (set-up plus
analysis call) so that both see the same machine load, and reports the
per-layer medians of the traced ones.  Every result is checked either way,
and a run at another seed than the one a seeded workload's golden digest is
stored for first makes one untimed call at that seed to check it.
"""

from __future__ import annotations

import heapq
import resource
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import CALL, DECODE, SETUP, Tracer
from workloads import DEFAULT_SEED, Oracle, Workload, digest

# Host speed on a shared machine changes by tens of percent over seconds to
# minutes, as other tenants load it.  Every time reported is the median host
# time rescaled by the run's median host speed: the speed relative to the one
# at which reference_job() takes REFERENCE_S, sampled between timed calls.
# The raw host figures are printed beside the metrics.
REFERENCE_STEPS = 15_000
REFERENCE_S = 0.020
# On a shared 2-vCPU Xeon virtual machine, over 80 runs (4 workloads x 20
# seeds), the log of a run's host throughput followed the log of its host
# speed with slopes of 0.66 to 0.81 (correlation 0.89 to 0.99), and set-up
# time with slopes of 0.80 to 1.05.  The timed calls are therefore rescaled
# by speed ** CALL_SENSITIVITY, set-up by speed; so are the self times of the
# spans inside each.
CALL_SENSITIVITY = 0.75

# per-layer metric -> the span name whose self time it reports
SELF_TIMES = {
    "multiplier.build_s": "multiplier.build",
    "netlist.validate_s": "netlist.validate",
    "handshake.harness_s": "handshake.harness",
    "sim.init_s": "sim.init",
    "sim.settle_s": "sim.settle",
    "handshake.monitor_s": DECODE,
    "handshake.phase_s": "handshake.phase",
    "analysis.self_s": "analysis",
}
COUNTS = ("netlist.validate_calls", "netlist.gates", "sim.init_calls", "sim.settle_calls",
          "sim.events", "sim.env_commits", "sim.hazards", "sim.sim_time_units",
          "handshake.decode_calls")
COUNT_UNITS = {"sim.sim_time_units": "delay-units"}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    digest: str | None = None
    counts: dict[str, int] = field(default_factory=dict)  # traced runs only
    host: dict[str, float] = field(default_factory=dict)  # in host seconds

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def record(self, workload: Workload, seed: int, result, reference: str | None) -> str:
        """Check one call's result and return its digest; a digest that
        differs from the golden or from ``reference`` fails every operation
        of the call."""
        d = digest(workload.summary(result))
        golden = workload.golden_for(seed)
        ops = workload.operations()
        self.attempted += ops
        if (golden is not None and d != golden) or (reference is not None and d != reference):
            self.failed += ops
        else:
            self.failed += min(ops, workload.failures(result))
        return d

    def crash(self, workload: Workload) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += workload.operations()
        self.failed += workload.operations()


def check_golden(workload: Workload, seed: int, out: Outcome, oracle: Oracle | None) -> None:
    """Check a seeded workload's stored golden in a run at another seed, with
    one untimed call at ``DEFAULT_SEED``."""
    if workload.golden is None or workload.golden_for(seed) is not None:
        return
    try:
        result = workload.run(workload.setup(), DEFAULT_SEED, oracle)
    except Exception:
        out.crash(workload)
        return
    out.record(workload, DEFAULT_SEED, result, None)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def reference_job(steps: int = REFERENCE_STEPS) -> int:
    """A fixed interpreter-bound job, the yardstick for the host's speed: a
    toy event loop over a ring of nodes (lists, dicts, heapq, calls).  It
    depends on nothing in qdilab, so no change to the program moves it."""
    values = [0] * 256
    pending: dict[int, int] = {}
    heap = [(0, 0)]
    for _ in range(steps):
        t, node = heapq.heappop(heap)
        values[node] ^= 1
        for nxt in ((node * 5 + 1) & 255, (node * 7 + 3) & 255):
            if pending.get(nxt, -1) < t:
                pending[nxt] = t + 1 + (nxt & 7)
                heapq.heappush(heap, (pending[nxt], nxt))
    return sum(values)


def host_speed() -> float:
    """The host's speed now, relative to the speed at which the reference
    job takes ``REFERENCE_S``; above 1 means faster."""
    t0 = perf_counter()
    reference_job()
    return REFERENCE_S / (perf_counter() - t0)


class Laps:
    """Splits timed work into laps and samples the host's speed between
    them, outside their time."""

    def __init__(self) -> None:
        self.rates: list[float] = []  # phases per host second, one per lap
        self.speeds: list[float] = []

    def start(self) -> None:
        self.speeds.append(host_speed())
        self._phases = 0
        self._t0 = perf_counter()

    def __call__(self, phases: int) -> None:
        """End the current lap after ``phases`` more phases; start the next."""
        self.rates.append(phases / (perf_counter() - self._t0))
        self.speeds.append(host_speed())
        self._phases += phases
        self._t0 = perf_counter()

    def finish(self, phases: int) -> None:
        if phases > self._phases:
            self(phases - self._phases)


def measure(workload: Workload, seed: int, seconds: float,
            oracle: Oracle | None = None) -> Outcome:
    out = Outcome()
    check_golden(workload, seed, out, oracle)
    setup = []
    laps = Laps()
    start = perf_counter()
    while True:
        t0 = perf_counter()
        netlists = workload.setup()
        setup.append(perf_counter() - t0)
        laps.start()
        try:
            result = workload.run(netlists, seed, oracle, lap=laps)
        except Exception:  # a crashing program is a failed call; stop measuring
            out.crash(workload)
            break
        laps.finish(workload.phases())
        d = out.record(workload, seed, result, out.digest)
        out.digest = out.digest or d
        if perf_counter() - start >= seconds:
            break
    if not laps.rates:
        return out
    speed = median(laps.speeds)
    out.host = {"phases_per_s": median(laps.rates), "setup_s": median(setup), "speed": speed}
    out.metrics = {
        "phases_per_s": (out.host["phases_per_s"] / speed ** CALL_SENSITIVITY, "1/s"),
        "setup_s": (out.host["setup_s"] * speed, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return out


def measure_traced(workload: Workload, seed: int, seconds: float,
                   spans_path: Path | None = None, oracle: Oracle | None = None) -> Outcome:
    out = Outcome()
    check_golden(workload, seed, out, oracle)
    tracer = Tracer()
    plain, traced, speeds = [], [], []
    start = perf_counter()
    while True:
        try:
            t0 = perf_counter()
            result = workload.run(workload.setup(), seed, oracle)
            plain.append(perf_counter() - t0)
            expected = out.record(workload, seed, result, out.digest)
            out.digest = out.digest or expected
            before = host_speed()
            with tracer.installed(), tracer.run_span():
                t0 = perf_counter()
                with tracer.span(SETUP):
                    netlists = workload.setup()
                with tracer.span(CALL):
                    result = workload.run(netlists, seed, oracle)
                traced.append(perf_counter() - t0)
            speeds += [before, host_speed()]
            out.record(workload, seed, result, expected)
        except Exception:
            out.crash(workload)
            break
        if perf_counter() - start >= seconds:
            break
    if not traced:
        return out

    counts = tracer.call_counts()
    out.counts = dict(counts[0])
    if any(c != counts[0] for c in counts):
        out.failed += workload.operations()  # the same inputs made different work
    speed = median(speeds)
    scale = {SETUP: speed, CALL: speed ** CALL_SENSITIVITY}
    selfs = []
    for run in tracer.self_times():
        totals: dict[str, float] = {}
        for (stage, span), t in run.items():
            totals[span] = totals.get(span, 0.0) + t * scale.get(stage, 1.0)
        selfs.append(totals)
    metrics = {name: (median(s.get(span, 0.0) for s in selfs), "s")
               for name, span in SELF_TIMES.items()}
    metrics.update({name: (out.counts.get(name, 0), COUNT_UNITS.get(name, "count"))
                    for name in COUNTS})
    metrics["sim.events_per_s"] = (
        median(c["sim.events"] / s["sim.settle"] for c, s in zip(counts, selfs)), "1/s")
    metrics["sim.events_per_settle"] = (
        out.counts["sim.events"] / out.counts["sim.settle_calls"], "events/call")
    metrics["trace.overhead"] = (median(traced) / median(plain), "ratio")
    out.metrics = metrics
    if spans_path is not None:
        tracer.write(spans_path)
    return out
