"""Latency measurement, indication classification, orphan scan, benchmarks."""

from dataclasses import replace

import pytest

from qdilab.analysis import (BenchDesign, Indication, bench_to_csv,
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


def test_classifier_mode_validation():
    with pytest.raises(ValueError):
        classify_indication(strong_and2(Protocol.RTZ), Protocol.RTZ,
                            mode="telepathy")


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
