"""Verification and measurement passes over dual-rail netlists.

Everything here drives circuits through :class:`HandshakeHarness` closed
loops and reports plain dataclasses, so results serialize deterministically:
identical netlist + seed + configuration always reproduces the same report.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import astuple, dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .encoding import Protocol
from .handshake import HandshakeHarness, TransactionError, TransactionMetrics
from .netlist import Netlist, check_int, check_weights, stats
from .sim import DelayModel, RandomUniformDelay, SimulationError, UnitDelay, uniform_draws

Oracle = Callable[[Mapping[str, int]], Mapping[str, int]]

# full arrival-permutation enumeration is factorial; past this many inputs
# the classifier falls back to withholding each input last
PERMUTATION_INPUT_LIMIT = 6
# latency is exhaustive up to this many codewords; past it, corners + this many draws
SAMPLE_LIMIT = 64


def _check_exhaustible(inputs: int, purpose: str) -> None:
    """Refuse an exhaustive ``purpose`` over more than 2^16 input codewords."""
    if inputs > 16:
        raise ValueError(f"{inputs} inputs is too wide for {purpose}")


def _codewords(names: Sequence[str]):
    for code in range(1 << len(names)):
        yield {name: (code >> i) & 1 for i, name in enumerate(names)}


def _sampled_codewords(names: Sequence[str], limit: int, seed: int):
    """Corner vectors plus a seeded sample, for wide input spaces."""
    yield {name: 0 for name in names}
    yield {name: 1 for name in names}
    rng = random.Random(seed)
    for _ in range(limit):
        yield dict(zip(names, uniform_draws(rng, 0, 1, len(names))))


# ---------------------------------------------------------------------------
# latency

def measure_latencies(netlist: Netlist, protocol: Protocol,
                      delay_model: DelayModel = UnitDelay(),
                      sample_limit: int = SAMPLE_LIMIT, seed: int = 0) -> TransactionMetrics:
    """Worst-case forward/reverse latency and cycle time at the output ports.

    Exhaustive over input codewords up to ``sample_limit`` vectors; wider
    components get the two corner vectors plus a sample drawn from ``seed``.
    A ``sample_limit`` or ``seed`` that ``check_int`` refuses (anything but an int >= 0)
    raises ``ValueError``.
    """
    check_int(seed, "seed")
    check_int(sample_limit, "sample_limit")
    harness = HandshakeHarness(netlist, protocol)
    state = harness.initialize(delay_model)
    names = [p.name for p in harness.inputs]
    vectors = (_codewords(names) if (1 << len(names)) <= sample_limit
               else _sampled_codewords(names, sample_limit, seed))
    return worst_case([harness.run_transaction(state, vec).metrics for vec in vectors])


def worst_case(metrics: Sequence[TransactionMetrics]) -> TransactionMetrics:
    """The largest forward latency, reverse latency and transition count
    over ``metrics``; the cycle time is the sum of the two latencies."""
    fl = max(m.forward_latency for m in metrics)
    rl = max(m.reverse_latency for m in metrics)
    return TransactionMetrics(fl, rl, fl + rl, max(m.transitions for m in metrics))


# ---------------------------------------------------------------------------
# indication classification

class Indication(Enum):
    STRONG = "strong"
    WEAK = "weak"
    NEITHER = "neither"


@dataclass
class Witness:
    codeword: dict[str, int]
    order: tuple[str, ...]
    phase: str
    kind: str  # "early-output" | "premature-complete" | "failure"
    detail: str


@dataclass
class IndicationVerdict:
    verdict: Indication
    mode: str  # "exhaustive" | "holdback"
    scenarios: int
    witness: Witness | None = None  # early output for weak, violation for neither


def classify_indication(netlist: Netlist, protocol: Protocol,
                        delay_model: DelayModel = UnitDelay(),
                        mode: str = "auto") -> IndicationVerdict:
    """Decide strong/weak/neither indication by staggering input arrivals.

    Strong: no output rail leaves its phase-start value before the final
    input, in the data phase and the return phase alike.  Weak: some output
    moves early in some scenario, but no scenario completes every output
    before the final input.  Anything else, including functional failures
    while exploring, is neither.  Exhaustive mode enumerates every codeword
    x arrival permutation; holdback mode withholds each single input last.
    Constant ports are driven at phase start and take no part in orders.
    """
    if mode not in ("auto", "exhaustive", "holdback"):  # before a harness is built
        raise ValueError(f"unknown mode {mode!r}")
    harness = HandshakeHarness(netlist, protocol)
    names = [p.name for p in harness.inputs]
    _check_exhaustible(len(names), "classification")
    if mode == "auto":
        mode = "exhaustive" if len(names) <= PERMUTATION_INPUT_LIMIT else "holdback"
    if mode == "exhaustive":
        orders = [tuple([n] for n in perm) for perm in itertools.permutations(names)]
    else:
        # the rest first, then h (no rest for one input; one empty order for none)
        orders = [tuple(g for g in ([m for m in names if m != h], [h]) if g)
                  for h in names] or [()]

    state = harness.initialize(delay_model)
    const_groups = 1 if harness.consts else 0
    early_witness: Witness | None = None
    scenarios = 0
    flats = [tuple(n for group in order for n in group) for order in orders]
    for vec in _codewords(names):
        for order, flat in zip(orders, flats):
            scenarios += 1
            for phase in ("data", "return"):
                try:
                    report = harness.run_phase(
                        state, phase, vec if phase == "data" else None, order=order)
                except (TransactionError, SimulationError) as e:
                    return IndicationVerdict(Indication.NEITHER, mode, scenarios,
                                             Witness(vec, flat, phase, "failure", str(e)))
                for rec in report.early:
                    if rec.all_complete:
                        return IndicationVerdict(
                            Indication.NEITHER, mode, scenarios,
                            Witness(vec, flat, phase, "premature-complete",
                                    "every output completed before the final input"))
                    if early_witness is None:
                        arrived = [n for g in order[:rec.group + 1 - const_groups]
                                   for n in g]
                        early_witness = Witness(
                            vec, flat, phase, "early-output",
                            f"outputs {', '.join(rec.moved)} moved with only "
                            f"{', '.join(arrived)} arrived")
    verdict = Indication.STRONG if early_witness is None else Indication.WEAK
    return IndicationVerdict(verdict, mode, scenarios, early_witness)


# ---------------------------------------------------------------------------
# functional verification

@dataclass
class VerifyFailure:
    vector: dict[str, int]
    expected: dict[str, int]
    got: dict[str, int] | None
    error: str | None = None


@dataclass
class VerifyReport:
    design: str
    protocol: str
    total: int
    failures: list[VerifyFailure] = field(default_factory=list)
    metrics: list[TransactionMetrics] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)


def exhaustive_verify(netlist: Netlist, protocol: Protocol, oracle: Oracle,
                      delay_model: DelayModel = UnitDelay(),
                      trace: Callable[[int, int, int], None] | None = None,
                      on_vector: Callable[[dict[str, int]], None] | None = None,
                      ) -> VerifyReport:
    """Run every input codeword through a full transaction and compare the
    decoded outputs against the oracle.

    `trace` receives every committed (time, net, value) event; `on_vector` is
    called with each codeword before its transaction starts (useful for
    annotating a trace).
    """
    harness = HandshakeHarness(netlist, protocol)
    names = [p.name for p in harness.inputs]
    _check_exhaustible(len(names), "exhaustive verification")
    state = harness.initialize(delay_model)
    state.trace = trace
    report = VerifyReport(netlist.name, protocol.value, total=0)
    for vec in _codewords(names):
        report.total += 1
        if on_vector is not None:
            on_vector(vec)
        expected = dict(oracle(vec))
        try:
            res = harness.run_transaction(state, vec)
        except (TransactionError, SimulationError) as e:
            report.failures.append(VerifyFailure(vec, expected, None, str(e)))
            state = harness.initialize(delay_model)  # resync after a broken run
            state.trace = trace
            continue
        if res.outputs != expected:
            report.failures.append(VerifyFailure(vec, expected, res.outputs))
        report.metrics.append(res.metrics)
    return report


# ---------------------------------------------------------------------------
# orphan scan

@dataclass
class OrphanViolation:
    trial: int
    transaction: int
    vector: dict[str, int]
    kind: str  # "hazard" | "post-completion" | "mismatch" | "error"
    detail: str


@dataclass
class OrphanReport:
    design: str
    protocol: str
    trials: int
    transactions: int
    seed: int
    delay_low: int
    delay_high: int
    violations: list[OrphanViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def orphan_scan(netlist: Netlist, protocol: Protocol, oracle: Oracle,
                trials: int = 1000, seed: int = 42, transactions: int = 8,
                delay_low: int = 1, delay_high: int = 16) -> OrphanReport:
    """Hunt for unacknowledged transitions under randomized gate delays.

    Each trial draws a fresh per-gate delay assignment and a random input
    sequence, then checks three things per transaction: no hazard records
    (disabled excitations), datapath quiescence at the instant the outputs
    complete in each phase, and functional agreement with the oracle.
    A netlist not built for ``protocol`` raises :class:`InitializationError`; a ``seed``,
    ``trials`` or ``transactions`` that ``check_int`` refuses (anything but an int >= 0), or
    a bad delay range, ``ValueError``.  No count has an upper bound: draws are lazy, so a
    huge count is a long run, not a large allocation.
    """
    check_int(seed, "seed")
    check_int(trials, "trials")
    check_int(transactions, "transactions")
    RandomUniformDelay(delay_low, delay_high)  # judges the range
    harness = HandshakeHarness(netlist, protocol)
    names = [p.name for p in harness.inputs]
    report = OrphanReport(netlist.name, protocol.value, trials, transactions,
                          seed, delay_low, delay_high)
    rng = random.Random(seed)
    for trial in range(trials):
        delays = RandomUniformDelay(delay_low, delay_high, rng.getrandbits(32))
        # the trial's own generator draws each vector as its transaction
        # starts, so no trial holds more than one vector's bits
        draw = random.Random(rng.getrandbits(32))
        state = harness.initialize(delays)
        for ti in range(transactions):
            vec = dict(zip(names, uniform_draws(draw, 0, 1, len(names))))
            try:
                res = harness.run_transaction(state, vec)
            except (TransactionError, SimulationError) as e:
                report.violations.append(OrphanViolation(trial, ti, vec, "error", str(e)))
                break
            for phase in (res.data_phase, res.return_phase):
                if phase.hazards:
                    report.violations.append(OrphanViolation(
                        trial, ti, vec, "hazard", phase.hazards[0].description))
                if not phase.datapath_quiet_at_completion:
                    report.violations.append(OrphanViolation(
                        trial, ti, vec, "post-completion",
                        f"{phase.phase} phase: datapath still moving at "
                        f"t={phase.last_datapath_commit} after outputs completed "
                        f"at t={phase.completed_at}"))
            expected = dict(oracle(vec))
            if res.outputs != expected:
                report.violations.append(OrphanViolation(
                    trial, ti, vec, "mismatch",
                    f"expected {expected}, got {res.outputs}"))
    return report


# ---------------------------------------------------------------------------
# benchmarking

@dataclass(frozen=True)
class BenchDesign:
    name: str
    builder: Callable[[Protocol], Netlist]
    oracle: Oracle


@dataclass
class BenchRow:
    design: str
    protocol: str
    cycle_units: int
    area_proxy: float
    transitions_per_cycle: float
    pctp_norm: float


def benchmark(designs: Sequence[BenchDesign], protocols: Sequence[Protocol],
              delay_model: DelayModel = UnitDelay(),
              weights: Mapping[str, float] | None = None) -> list[BenchRow]:
    """Relative power-cycle-time product table.

    Per design and protocol: verify exhaustively (a failure aborts that row),
    take the worst-case cycle from the same runs, average the transitions per
    transaction as the switching proxy, and weight the gate counts into an
    area proxy.  PCTP = mean transitions x cycle time, normalized within each
    protocol group against the group's largest value, so the slowest-hungriest
    row of each group lands at exactly 1.0.  Rows come back grouped by
    protocol, largest PCTP first.
    """
    check_weights(weights or {})  # before the first simulation
    rows: list[BenchRow] = []
    for protocol in protocols:
        group: list[BenchRow] = []
        for design in designs:
            netlist = design.builder(protocol)
            report = exhaustive_verify(netlist, protocol, design.oracle, delay_model)
            if not report.ok:
                continue  # a design that cannot compute has no PCTP row
            cycle = worst_case(report.metrics).cycle_time
            mean_tr = sum(m.transitions for m in report.metrics) / len(report.metrics)
            area = stats(netlist, dict(weights) if weights else None).area_proxy
            group.append(BenchRow(design.name, protocol.value, cycle, area,
                                  round(mean_tr, 6), 0.0))
        # exact products: a cycle too long for a float still has a PCTP
        pctp = [Fraction(r.transitions_per_cycle) * r.cycle_units for r in group]
        peak = max(pctp, default=0)
        for r, p in zip(group, pctp):
            r.pctp_norm = round(float(p / peak), 6) if peak else 0.0
        group.sort(key=lambda r: (-r.pctp_norm, r.design))
        rows.extend(group)
    return rows


def bench_to_csv(rows: Sequence[BenchRow]) -> str:
    lines = [",".join(f.name for f in fields(BenchRow))]
    lines += [",".join(map(str, astuple(r))) for r in rows]
    return "\n".join(lines) + "\n"
