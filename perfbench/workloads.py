"""The benchmark's workloads: inputs, correctness checks and stored goldens.

Each workload drives one public analysis entry point of qdilab, closed loop
with a single caller.  Its set-up generates the netlists (build and
validate); the timed call then runs the analysis on them, which wraps each
netlist in a handshake harness and resets it itself.  Every count the
benchmark reports (phases, operations) comes from the workload's inputs,
never from the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict
from math import factorial
from typing import Any, Callable

from qdilab import analysis, components, multiplier
from qdilab.encoding import Protocol
from qdilab.netlist import Netlist

DEFAULT_SEED = 42  # the seed the stored digests of seeded workloads are for

# a 6x6 verify call takes seconds; laps of this many vectors give the
# benchmark many samples per call
LAP_VECTORS = 256

Oracle = Callable[[dict[str, int]], dict[str, int]]


def digest(summary: Any) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """Base class: subclasses fix the inputs, the call and the checks."""

    name: str
    protocol = Protocol.RTZ
    seeded = True  # False when the seed does not change the inputs
    golden: str | None = None

    def setup(self) -> list[Netlist]:
        """Generate the workload's netlists: the work that ``setup_s`` times."""
        raise NotImplementedError

    def operations(self) -> int:
        raise NotImplementedError

    def phases(self) -> int:
        raise NotImplementedError

    def run(self, netlists: list[Netlist], seed: int, oracle: Oracle | None = None,
            lap: Callable[[int], None] | None = None) -> Any:
        """The timed analysis call.  A workload whose call is long may report
        progress through ``lap(phases done since the last lap)``."""
        raise NotImplementedError

    def failures(self, result: Any) -> int:
        """Operations of one call that failed the workload's own check."""
        raise NotImplementedError

    def summary(self, result: Any) -> Any:
        """The deterministic part of a result, as JSON-able data."""
        raise NotImplementedError

    def golden_for(self, seed: int) -> str | None:
        """The stored digest of the result for ``seed``, if there is one."""
        if self.golden is None or (self.seeded and seed != DEFAULT_SEED):
            return None
        return self.golden


class ExhaustiveVerify(Workload):
    FA = "weak_fa"
    seeded = False

    def __init__(self, n: int = 6, max_cycle: int | None = None, golden: str | None = None):
        self.n, self.max_cycle, self.golden = n, max_cycle, golden
        self.name = f"verify_{n}x{n}_weak"

    def setup(self):
        return [multiplier.array_multiplier(multiplier.MultiplierSpec(self.n, self.protocol, self.FA))]

    def operations(self):
        return 1 << (2 * self.n)  # one transaction per input vector

    def phases(self):
        return 2 * self.operations()

    def run(self, netlists, seed, oracle=None, lap=None):
        on_vector = None
        if lap is not None:
            vectors = itertools.count()

            def on_vector(_vector):  # called before each vector's transaction
                i = next(vectors)
                if i and i % LAP_VECTORS == 0:
                    lap(2 * LAP_VECTORS)
        return analysis.exhaustive_verify(netlists[0], self.protocol,
                                          oracle or multiplier.product_oracle(self.n),
                                          on_vector=on_vector)

    def failures(self, result):
        ops = self.operations()
        if result.total != ops:
            return ops
        cycle = max((m.cycle_time for m in result.metrics), default=None)
        if self.max_cycle is not None and cycle != self.max_cycle:
            return ops
        return len(result.failures)

    def summary(self, result):
        return {"failures": [asdict(f) for f in result.failures],
                "metrics": [[m.forward_latency, m.reverse_latency, m.transitions]
                            for m in result.metrics]}


class OrphanFuzz(Workload):
    TRANSACTIONS = 8
    DELAY_LOW, DELAY_HIGH = 1, 16

    def __init__(self, n: int = 4, trials: int = 200, golden: str | None = None):
        self.n, self.trials, self.golden = n, trials, golden
        self.name = f"fuzz_{n}x{n}_weak"

    def setup(self):
        return [multiplier.array_multiplier(multiplier.MultiplierSpec(self.n, self.protocol, "weak_fa"))]

    def operations(self):
        return self.trials

    def phases(self):
        return 2 * self.TRANSACTIONS * self.trials

    def run(self, netlists, seed, oracle=None, lap=None):
        return analysis.orphan_scan(netlists[0], self.protocol,
                                    oracle or multiplier.product_oracle(self.n),
                                    trials=self.trials, seed=seed,
                                    transactions=self.TRANSACTIONS,
                                    delay_low=self.DELAY_LOW, delay_high=self.DELAY_HIGH)

    def failures(self, result):
        if result.trials != self.trials:
            return self.trials
        return len({v.trial for v in result.violations})

    def summary(self, result):
        return asdict(result)


class ClassifyIndication(Workload):
    """``rca<width>_weak`` under RTO, which must classify as weak."""

    protocol = Protocol.RTO
    seeded = False

    def __init__(self, width: int = 2, golden: str | None = None):
        self.width, self.golden = width, golden
        self.name = f"classify_rca{width}_weak_rto"

    def setup(self):
        return [components.ripple_carry_adder(self.protocol, self.width, "weak_fa")]

    def operations(self):
        inputs = 2 * self.width + 1
        return (1 << inputs) * factorial(inputs)  # codewords x arrival orders

    def phases(self):
        return 2 * self.operations()

    def run(self, netlists, seed, oracle=None, lap=None):
        return analysis.classify_indication(netlists[0], self.protocol, mode="exhaustive")

    def failures(self, result):
        ops = self.operations()
        if result.verdict is not analysis.Indication.WEAK or result.scenarios != ops:
            return ops
        return 0

    def summary(self, result):
        return {"verdict": result.verdict.value, "mode": result.mode,
                "scenarios": result.scenarios,
                "witness": asdict(result.witness) if result.witness else None}


class ScaleSweep(Workload):
    VARIANTS = ("dims_fa", "weak_fa")
    SAMPLE_LIMIT = 64

    def __init__(self, widths: tuple[int, ...] = tuple(range(2, 9)),
                 exhaustive_cycles: dict[str, int] | None = None, golden: str | None = None):
        self.widths = widths
        self.exhaustive_cycles = exhaustive_cycles or {}
        self.golden = golden
        self.name = "scale_sweep"

    def setup(self):
        return [multiplier.array_multiplier(multiplier.MultiplierSpec(n, self.protocol, fa))
                for n in self.widths for fa in self.VARIANTS]

    def operations(self):
        return len(self.widths) * len(self.VARIANTS)

    def _vectors(self, n: int) -> int:
        # measure_latencies is exhaustive up to SAMPLE_LIMIT codewords, else it
        # takes the two corner vectors plus SAMPLE_LIMIT seeded draws
        codewords = 1 << (2 * n)
        return codewords if codewords <= self.SAMPLE_LIMIT else self.SAMPLE_LIMIT + 2

    def phases(self):
        return 2 * len(self.VARIANTS) * sum(self._vectors(n) for n in self.widths)

    def run(self, netlists, seed, oracle=None, lap=None):
        return [(net.name, analysis.measure_latencies(net, self.protocol,
                                                      sample_limit=self.SAMPLE_LIMIT, seed=seed))
                for net in netlists]

    def failures(self, result):
        # a design whose every codeword is simulated has one cycle for any seed
        return sum(1 for name, m in result
                   if name in self.exhaustive_cycles and m.cycle_time != self.exhaustive_cycles[name])

    def summary(self, result):
        return [[name, m.forward_latency, m.reverse_latency, m.cycle_time, m.transitions]
                for name, m in result]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    ExhaustiveVerify(6, max_cycle=94, golden="bac90ac38ed78c0a"),
    OrphanFuzz(4, trials=200, golden="82397b4f535d9de2"),
    ClassifyIndication(2, golden="c6b8850b3e8c1761"),
    ScaleSweep(exhaustive_cycles={
        "mult2x2_dims_fa_rtz": 22, "mult2x2_weak_fa_rtz": 22,
        "mult3x3_dims_fa_rtz": 42, "mult3x3_weak_fa_rtz": 40,
    }, golden="072213ee1252e854"),
)}
