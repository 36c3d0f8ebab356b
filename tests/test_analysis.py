"""Latency measurement, indication classification, orphan scan, benchmarks."""

import re
from dataclasses import replace

import pytest

from qdilab.analysis import (SAMPLE_LIMIT, BenchDesign, Indication, bench_to_csv,
                             benchmark, classify_indication, exhaustive_verify,
                             measure_latencies, orphan_scan)
from qdilab.components import (COMPONENT_ORACLES, dims_full_adder,
                               ripple_carry_adder, strong_and2,
                               weak_full_adder)
from qdilab.encoding import Protocol
from qdilab.multiplier import (MultiplierSpec, array_multiplier, input_vector,
                               product_oracle)
from qdilab.netlist import GateKind, NetlistBuilder
from qdilab.sim import RandomUniformDelay, TableDelay, UnitDelay, uniform_draws


# ---------------------------------------------------------------------------
# latency measurement

@pytest.mark.parametrize("protocol", list(Protocol))
def test_measured_latency_envelope_for_the_indicating_and(protocol):
    metrics = measure_latencies(strong_and2(protocol), protocol)
    assert (metrics.forward_latency, metrics.reverse_latency,
            metrics.cycle_time) == (3, 3, 6)


def test_latencies_scale_with_gate_delays():
    metrics = measure_latencies(dims_full_adder(Protocol.RTZ), Protocol.RTZ,
                                TableDelay({"C2": 3, "OR2": 2}, default=1))
    assert metrics.forward_latency == metrics.reverse_latency == 10
    assert metrics.cycle_time == 20


def test_sampled_latencies_on_a_wide_design():
    netlist = array_multiplier(MultiplierSpec(4, Protocol.RTZ, "dims_fa"))
    metrics = measure_latencies(netlist, Protocol.RTZ, sample_limit=20, seed=1)
    assert metrics.forward_latency == metrics.reverse_latency
    assert metrics.cycle_time == metrics.forward_latency * 2


def test_the_default_sample_limit_is_the_one_rule():
    """``measure_latencies`` samples by ``SAMPLE_LIMIT`` unless told
    otherwise: a 4x4 multiplier's 256 codewords get the corners plus seeded
    draws, which at seed 7 miss the worst case, and a 2x2's 16 are all run."""
    wide = array_multiplier(MultiplierSpec(4, Protocol.RTZ, "weak_fa"))
    sampled = measure_latencies(wide, Protocol.RTZ, seed=7)
    assert sampled == measure_latencies(wide, Protocol.RTZ, sample_limit=SAMPLE_LIMIT, seed=7)
    exhaustive = measure_latencies(wide, Protocol.RTZ, sample_limit=1 << 8, seed=7)
    assert sampled.cycle_time < exhaustive.cycle_time
    narrow = array_multiplier(MultiplierSpec(2, Protocol.RTZ, "weak_fa"))
    assert measure_latencies(narrow, Protocol.RTZ, seed=7) \
        == measure_latencies(narrow, Protocol.RTZ, sample_limit=1 << 4)


# ---------------------------------------------------------------------------
# indication classification

@pytest.mark.parametrize("protocol", list(Protocol))
def test_classification_ground_truths(protocol):
    assert classify_indication(strong_and2(protocol), protocol).verdict \
        is Indication.STRONG
    assert classify_indication(dims_full_adder(protocol), protocol).verdict \
        is Indication.STRONG
    verdict = classify_indication(weak_full_adder(protocol), protocol)
    assert verdict.verdict is Indication.WEAK
    assert verdict.witness is not None
    assert verdict.witness.kind == "early-output"


def test_cascading_strong_stages_degrades_to_weak():
    netlist = ripple_carry_adder(Protocol.RTZ, 2, "dims_fa")
    verdict = classify_indication(netlist, Protocol.RTZ)
    assert verdict.verdict is Indication.WEAK
    assert verdict.mode == "exhaustive"


def test_passthrough_output_is_neither():
    """An output wired straight to one input completes before the other
    input ever arrives, which no indicating discipline allows."""
    b = NetlistBuilder("leak")
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    z1 = b.add_gate(GateKind.OR2, (x.rail1, x.rail1))
    z0 = b.add_gate(GateKind.OR2, (x.rail0, x.rail0))
    sink = b.add_gate(GateKind.C2, (y.rail1, y.rail0))
    b.add_output_port("Z", z1, z0)
    b.add_output_port("S", sink, y.rail0)
    netlist = b.build()
    verdict = classify_indication(netlist, Protocol.RTZ)
    assert verdict.verdict is Indication.NEITHER
    assert verdict.witness is not None


def test_holdback_mode_on_wide_inputs():
    netlist = array_multiplier(MultiplierSpec(4, Protocol.RTZ, "weak_fa"))
    verdict = classify_indication(netlist, Protocol.RTZ)
    assert verdict.mode == "holdback"
    assert verdict.verdict is Indication.WEAK
    assert verdict.scenarios == (1 << 8) * 8  # codewords x held-back inputs


@pytest.mark.parametrize("protocol", list(Protocol))
def test_holdback_on_one_input_agrees_with_exhaustive(protocol):
    """With one input there is nothing to hold back behind: each codeword
    is one scenario, the input arriving alone, in either mode."""
    b = NetlistBuilder("buffer")
    x = b.add_input_port("X", init=protocol.spacer_level)
    b.add_output_port("Z", *(b.add_gate(GateKind.C2, (r, r)) for r in x.rails))
    netlist = b.build()
    verdicts = [classify_indication(netlist, protocol, mode=mode)
                for mode in ("exhaustive", "holdback")]
    assert [(v.verdict, v.scenarios) for v in verdicts] == [(Indication.STRONG, 2)] * 2


def const_only(protocol, sound):
    """A design whose only input is the constant K = 1: Z follows K's rails,
    or, when not ``sound``, takes K's rail1 on both rails."""
    b = NetlistBuilder("const_only" if sound else "const_only_broken")
    k = b.add_const_port("K", 1, init=protocol.spacer_level)
    rails = k.rails if sound else (k.rail1, k.rail1)
    b.add_output_port("Z", *(b.add_gate(GateKind.C2, (r, r)) for r in rails))
    return b.build()


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("sound", [True, False])
def test_holdback_with_no_data_input_simulates_as_exhaustive_does(protocol, sound):
    """No data input leaves one scenario, the empty order with the constant
    driven at phase start, and holdback runs it as exhaustive does: the
    broken design fails it in both modes."""
    verdicts = [classify_indication(const_only(protocol, sound), protocol, mode=mode)
                for mode in ("exhaustive", "holdback")]
    assert [v.scenarios for v in verdicts] == [1, 1]
    assert (verdicts[0].verdict, verdicts[0].witness) == (verdicts[1].verdict, verdicts[1].witness)
    if sound:
        assert verdicts[0].verdict is Indication.STRONG
    else:
        assert verdicts[0].verdict is Indication.NEITHER
        assert verdicts[0].witness.kind == "failure"
        assert "output Z hit an illegal codeword" in verdicts[0].witness.detail


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("mode,arrived", [("exhaustive", "A0, A1, B0"),
                                          ("holdback", "A0, B0, B1")],
                         ids=["exhaustive", "holdback"])
def test_an_early_witness_names_only_the_inputs_that_arrived(protocol, mode, arrived):
    """The 2x2 multiplier drives its constant carries as a group of their
    own ahead of the data inputs: the early record's group index counts that
    group, and the witness names the inputs that arrived, a strict prefix of
    its order, not the input still missing."""
    netlist = array_multiplier(MultiplierSpec(2, protocol, "weak_fa"))
    assert netlist.const_ports
    verdict = classify_indication(netlist, protocol, mode=mode)
    w = verdict.witness
    assert (verdict.verdict, w.kind, w.phase) == (Indication.WEAK, "early-output", "data")
    assert w.detail == f"outputs P0 moved with only {arrived} arrived"
    names = arrived.split(", ")
    assert len(names) < len(w.order) and w.order[:len(names)] == tuple(names)


def test_an_output_complete_before_the_last_input_is_a_premature_complete_witness():
    """Z copies X and nothing reads Y: with X first, every output completes
    while Y is still missing."""
    b = NetlistBuilder("ignores_y")
    x = b.add_input_port("X")
    b.add_input_port("Y")
    b.add_output_port("Z", *(b.add_gate(GateKind.C2, (r, r)) for r in x.rails))
    verdict = classify_indication(b.build(), Protocol.RTZ)
    assert verdict.verdict is Indication.NEITHER
    assert verdict.scenarios == 1
    w = verdict.witness
    assert (w.kind, w.phase, w.codeword, w.order) == \
        ("premature-complete", "data", {"X": 0, "Y": 0}, ("X", "Y"))
    assert w.detail == "every output completed before the final input"


def test_classifier_mode_validation(monkeypatch):
    with pytest.raises(ValueError):
        classify_indication(strong_and2(Protocol.RTZ), Protocol.RTZ,
                            mode="telepathy")
    # the mode is judged before a harness is built, so the design's protocol
    # error cannot hide it
    with pytest.raises(ValueError, match="^unknown mode 'telepathy'$"):
        classify_indication(strong_and2(Protocol.RTZ), Protocol.RTO, mode="telepathy")
    monkeypatch.setattr("qdilab.analysis.HandshakeHarness",
                        lambda *args: pytest.fail("a harness was built"))
    with pytest.raises(ValueError, match="^unknown mode 'telepathy'$"):
        classify_indication(strong_and2(Protocol.RTZ), Protocol.RTZ, mode="telepathy")


# ---------------------------------------------------------------------------
# exhaustive verification

def test_exhaustive_verify_flags_wrong_oracle():
    netlist = strong_and2(Protocol.RTZ)
    wrong = lambda vec: {"Z": vec["X"] | vec["Y"]}
    report = exhaustive_verify(netlist, Protocol.RTZ, wrong)
    assert not report.ok
    assert report.total == 4 and report.passed == 2
    assert {tuple(sorted(f.vector.items())) for f in report.failures} \
        == {(("X", 0), ("Y", 1)), (("X", 1), ("Y", 0))}


def mixed_or():
    """Z's rails are the OR of the inputs' rail1s and of their rail0s: X = Y
    gives data, and X != Y drives both rails of Z, an illegal codeword."""
    b = NetlistBuilder("mixed_or")
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    b.add_output_port("Z", b.add_gate(GateKind.OR2, (x.rail1, y.rail1)),
                      b.add_gate(GateKind.OR2, (x.rail0, y.rail0)))
    return b.build()


def test_exhaustive_verify_resyncs_after_a_broken_transaction():
    """A transaction that raises leaves the state mid-phase; the next vector
    runs on a fresh reset with the trace still attached."""
    events = []
    report = exhaustive_verify(mixed_or(), Protocol.RTZ, lambda v: {"Z": v["X"]},
                               trace=lambda t, net, value: events.append((t, net, value)),
                               on_vector=lambda v: events.append(dict(v)))
    assert (report.total, report.passed, len(report.metrics)) == (4, 2, 2)
    assert [(f.vector, f.got) for f in report.failures] == \
        [({"X": 1, "Y": 0}, None), ({"X": 0, "Y": 1}, None)]
    assert all(f.error.startswith("output Z hit an illegal codeword") for f in report.failures)
    last = events.index({"X": 1, "Y": 1})
    assert events[last + 1:] and all(isinstance(e, tuple) for e in events[last + 1:])


# ---------------------------------------------------------------------------
# orphan scan

def test_orphan_scan_clean_design():
    report = orphan_scan(weak_full_adder(Protocol.RTZ), Protocol.RTZ,
                         COMPONENT_ORACLES["weak_fa"], trials=25, seed=5,
                         transactions=4)
    assert report.ok
    assert (report.trials, report.transactions) == (25, 4)


def dead_end_and2():
    """The indicating AND plus one unacknowledged OR branch: a gate whose
    firing no completion detector ever observes."""
    from qdilab.components import emit_strong_and2
    b = NetlistBuilder("and2_orphan")
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    z1, z0 = emit_strong_and2(b, Protocol.RTZ, x.rails, y.rails)
    b.add_gate(GateKind.OR2, (x.rail1, y.rail1))  # consumed by nobody
    b.add_output_port("Z", z1, z0)
    return b.build()


def test_orphan_scan_catches_unacknowledged_branch():
    report = orphan_scan(dead_end_and2(), Protocol.RTZ,
                         COMPONENT_ORACLES["strong_and2"],
                         trials=40, seed=3, transactions=8)
    assert not report.ok
    assert any(v.kind == "post-completion" for v in report.violations)


def glitch_design():
    """Z.rail1 is A.rail1 AND NOT A.rail1: A = 1 makes it pulse when the AND
    is faster than the inverter (a detector hazard if the pulse dies before
    the detector's OR fires), is a datapath hazard when the AND is slower,
    and is illegal when Z.rail0 rises under the pulse.  Z is always 0."""
    b = NetlistBuilder("glitch")
    a = b.add_input_port("A")
    z1 = b.add_gate(GateKind.AND2, (a.rail1, b.add_gate(GateKind.INV, (a.rail1,))))
    b.add_output_port("Z", z1, b.add_gate(GateKind.OR2, (a.rail1, a.rail0)))
    return b.build()


def test_orphan_scan_reports_hazards_errors_and_mismatches():
    """A raised transaction is an ``error`` that ends its trial; a hazard on
    a detector net is a ``hazard``; a wrong output is a ``mismatch``."""
    netlist = glitch_design()
    datapath = netlist.net_count
    kwargs = dict(trials=6, seed=1, transactions=4)
    right = orphan_scan(netlist, Protocol.RTZ, lambda v: {"Z": 0}, **kwargs)
    wrong = orphan_scan(netlist, Protocol.RTZ, lambda v: {"Z": 1}, **kwargs)
    assert {v.kind for v in right.violations} == {"error", "hazard"}
    assert {v.kind for v in wrong.violations} == {"error", "hazard", "mismatch"}
    assert [v for v in wrong.violations if v.kind != "mismatch"] == right.violations
    for v in wrong.violations:
        if v.kind == "mismatch":
            assert v.detail == "expected {'Z': 1}, got {'Z': 0}"
        elif v.kind == "hazard":
            net = int(re.search(r"pending (\d+)->", v.detail)[1])
            assert net >= datapath  # a datapath hazard raises instead
        else:
            assert v.detail.startswith(("datapath hazard", "output Z hit an illegal codeword"))
            assert all(u.transaction < v.transaction for u in wrong.violations
                       if u.trial == v.trial and u is not v)


def test_orphan_scan_draws_one_vector_per_transaction(monkeypatch):
    """Each transaction draws its own bits as it starts, so a trial never
    holds more than one vector (a huge --transactions starts at once)."""
    from qdilab import analysis
    requests = []

    def draws(rng, low, high, count):
        requests.append(count)
        return uniform_draws(rng, low, high, count)

    monkeypatch.setattr(analysis, "uniform_draws", draws)
    report = orphan_scan(weak_full_adder(Protocol.RTZ), Protocol.RTZ,
                         COMPONENT_ORACLES["weak_fa"], trials=1, seed=5,
                         transactions=50)
    assert report.ok
    assert requests == [3] * 50


def test_orphan_scan_is_seed_deterministic():
    kwargs = dict(trials=10, seed=11, transactions=3)
    a = orphan_scan(dead_end_and2(), Protocol.RTZ,
                    COMPONENT_ORACLES["strong_and2"], **kwargs)
    b = orphan_scan(dead_end_and2(), Protocol.RTZ,
                    COMPONENT_ORACLES["strong_and2"], **kwargs)
    assert a == b


def test_a_seed_is_an_int_of_at_least_zero(monkeypatch):
    """``random.Random`` seeds with ``abs(seed)``: a negative seed would draw
    what its positive twin draws, so it is refused like a non-int one.  The
    counts beside it, ``sample_limit``, ``trials`` and ``transactions``, are
    judged by the same rule, and each is refused before a harness is built,
    as is a delay range ``RandomUniformDelay`` refuses."""
    netlist, oracle = strong_and2(Protocol.RTZ), COMPONENT_ORACLES["strong_and2"]
    monkeypatch.setattr("qdilab.analysis.HandshakeHarness",
                        lambda *args: pytest.fail("a harness was built"))
    runs = {"seed": (lambda v: orphan_scan(netlist, Protocol.RTZ, oracle, trials=1, seed=v),
                     lambda v: measure_latencies(netlist, Protocol.RTZ, seed=v)),
            "sample_limit": (lambda v: measure_latencies(netlist, Protocol.RTZ, sample_limit=v),),
            "trials": (lambda v: orphan_scan(netlist, Protocol.RTZ, oracle, trials=v),),
            "transactions": (lambda v: orphan_scan(netlist, Protocol.RTZ, oracle, trials=1,
                                                   transactions=v),)}
    for what, calls in runs.items():
        for value, message in ((-1, ">= 0, got -1"), (1.0, "an int, got 1.0"),
                               (2.5, "an int, got 2.5"), (True, "an int, got True")):
            for run in calls:
                with pytest.raises(ValueError, match=f"^{what} must be {re.escape(message)}$"):
                    run(value)
    # the delay range is judged as RandomUniformDelay judges it, even with no trial to draw
    for trials in (0, 1):
        for low, high in ((5, 1), (0, 16), (1, 2.5), (True, 3)):
            message = re.escape(f"bad delay range [{low!r}, {high!r}]")
            with pytest.raises(ValueError, match=f"^{message}$"):
                orphan_scan(netlist, Protocol.RTZ, oracle, trials=trials,
                            delay_low=low, delay_high=high)


# ---------------------------------------------------------------------------
# benchmark table

def bench_designs(n=2):
    return [
        BenchDesign(f"mult{n}x{n}_{fa}",
                    lambda p, fa=fa: array_multiplier(MultiplierSpec(n, p, fa)),
                    product_oracle(n))
        for fa in ("dims_fa", "weak_fa")
    ]


def test_benchmark_rows_normalized_per_protocol():
    rows = benchmark(bench_designs(), (Protocol.RTZ, Protocol.RTO))
    assert len(rows) == 4
    for proto in ("rtz", "rto"):
        group = [r for r in rows if r.protocol == proto]
        assert max(r.pctp_norm for r in group) == 1.0
        assert [r.pctp_norm for r in group] \
            == sorted((r.pctp_norm for r in group), reverse=True)
        assert all(r.cycle_units > 0 and r.area_proxy > 0 for r in group)
    # both protocols burn identical transition counts on dual hardware
    by_key = {(r.design, r.protocol): r for r in rows}
    for fa in ("dims_fa", "weak_fa"):
        assert by_key[(f"mult2x2_{fa}", "rtz")].transitions_per_cycle \
            == by_key[(f"mult2x2_{fa}", "rto")].transitions_per_cycle


def test_a_cycle_too_long_for_a_float_still_has_a_pctp():
    """A C2 delay of 10**400 makes cycles no float holds; the PCTP products
    are exact, so the rows normalize as the unit-delay ones do."""
    rows = benchmark(bench_designs(), (Protocol.RTZ,), TableDelay({"C2": 10**400}))
    assert all(r.cycle_units > 10**400 for r in rows)
    assert [r.pctp_norm for r in rows] == [1.0, 0.975]


def test_benchmark_csv_shape():
    rows = benchmark(bench_designs(), (Protocol.RTZ,))
    csv_text = bench_to_csv(rows)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "design,protocol,cycle_units,area_proxy,transitions_per_cycle,pctp_norm"
    assert len(lines) == 3
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_benchmark_drops_designs_that_fail_verification():
    bad = BenchDesign("broken2x2",
                      lambda p: array_multiplier(MultiplierSpec(2, p)),
                      lambda vec: {f"P{i}": 0 for i in range(4)})
    rows = benchmark(bench_designs() + [bad], (Protocol.RTZ,))
    assert {r.design for r in rows} == {"mult2x2_dims_fa", "mult2x2_weak_fa"}


def test_benchmark_refuses_bad_weights_before_it_simulates(monkeypatch):
    """The weight rule runs before the first verification, not after it."""
    from qdilab import analysis
    runs = []

    def verify(netlist, *args, **kwargs):
        runs.append(netlist.name)
        return exhaustive_verify(netlist, *args, **kwargs)

    monkeypatch.setattr(analysis, "exhaustive_verify", verify)
    for weights in ({"AND2": True}, {"C2": 10**400}, {"AND": 1.0}):
        with pytest.raises(ValueError):
            benchmark(bench_designs(), (Protocol.RTZ,), weights=weights)
    assert runs == []
    assert len(benchmark(bench_designs(), (Protocol.RTZ,), weights={"C2": 2})) == 2
    assert runs == ["mult2x2_dims_fa_rtz", "mult2x2_weak_fa_rtz"]


def bench_rows_by_protocol(delay_model):
    """The 2x2 bench rows under ``delay_model``, RTZ then RTO, each without
    its protocol."""
    rows = benchmark(bench_designs(), (Protocol.RTZ, Protocol.RTO), delay_model)
    return [[replace(r, protocol="") for r in rows if r.protocol == p.value]
            for p in Protocol]


@pytest.mark.parametrize("delay_model", [UnitDelay(), RandomUniformDelay(1, 16, 7)],
                         ids=["unit", "random"])
def test_bench_rows_agree_across_protocols_unless_delays_tell_and2_from_or2(delay_model):
    """Each RTO netlist is its RTZ twin with AND2 and OR2 swapped, so delays
    blind to gate kind give every RTO row of the table its RTZ row."""
    rtz, rto = bench_rows_by_protocol(delay_model)
    assert rtz == rto


@pytest.mark.parametrize("and2, or2, cycles", [(3, 2, (64, 76)), (2, 3, (76, 64))])
def test_a_kind_table_that_tells_and2_from_or2_tells_the_protocols_apart(and2, or2, cycles):
    """Swapping the AND2 and OR2 delays swaps the two protocols' cycles."""
    rtz, rto = bench_rows_by_protocol(TableDelay({"AND2": and2, "OR2": or2, "C2": 4}))
    assert [r.cycle_units for r in rtz + rto] == [cycles[0]] * 2 + [cycles[1]] * 2
    assert [replace(r, cycle_units=0) for r in rtz] == [replace(r, cycle_units=0) for r in rto]
