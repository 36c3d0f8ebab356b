"""Indicating gate library: truth tables, budgets, duality, merge-gate structure."""

import itertools

import pytest

from qdilab.components import (COMPONENTS, dims_full_adder, ripple_carry_adder,
                               strong_and2, weak_full_adder)
from qdilab.encoding import Protocol
from qdilab.handshake import HandshakeHarness
from qdilab.multiplier import MultiplierSpec, array_multiplier
from qdilab.netlist import (GateKind, NetlistBuilder, dual_of, stats,
                            structurally_equal)


# ---------------------------------------------------------------------------
# functional truth tables

@pytest.mark.parametrize("protocol", list(Protocol))
def test_strong_and2_truth_table(protocol):
    harness = HandshakeHarness(strong_and2(protocol), protocol)
    state = harness.initialize()
    for x, y in itertools.product((0, 1), repeat=2):
        res = harness.run_transaction(state, {"X": x, "Y": y})
        assert res.outputs == {"Z": x & y}


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("builder", [dims_full_adder, weak_full_adder])
def test_full_adder_truth_tables(protocol, builder):
    harness = HandshakeHarness(builder(protocol), protocol)
    state = harness.initialize()
    for a, b, c in itertools.product((0, 1), repeat=3):
        res = harness.run_transaction(state, {"A": a, "B": b, "Cin": c})
        total = a + b + c
        assert res.outputs == {"Sum": total & 1, "Cout": total >> 1}
        assert res.metrics.forward_latency == 4
        assert res.metrics.reverse_latency == 4


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("variant", ["dims_fa", "weak_fa"])
def test_ripple_carry_adder_exhaustive(protocol, variant):
    netlist = ripple_carry_adder(protocol, 2, variant)
    harness = HandshakeHarness(netlist, protocol)
    state = harness.initialize()
    for a, b, cin in itertools.product(range(4), range(4), range(2)):
        vec = {"A0": a & 1, "A1": a >> 1, "B0": b & 1, "B1": b >> 1, "Cin": cin}
        total = a + b + cin
        res = harness.run_transaction(state, vec)
        assert res.outputs == {"S0": total & 1, "S1": (total >> 1) & 1,
                               "Cout": total >> 2}


# ---------------------------------------------------------------------------
# gate budgets

@pytest.mark.parametrize("protocol", list(Protocol))
def test_gate_budgets(protocol):
    merge = "OR2" if protocol is Protocol.RTZ else "AND2"
    and_counts = stats(strong_and2(protocol)).counts
    assert and_counts["C2"] == 4 and and_counts[merge] == 2
    dims_counts = stats(dims_full_adder(protocol)).counts
    assert dims_counts["C2"] == 12 and dims_counts[merge] == 12
    weak_counts = stats(weak_full_adder(protocol)).counts
    assert weak_counts["C2"] == 14 and weak_counts[merge] == 9
    # the weak adder trades three merge gates for two extra state-holders
    assert weak_counts["C2"] - dims_counts["C2"] == 2
    assert dims_counts[merge] - weak_counts[merge] == 3


# ---------------------------------------------------------------------------
# protocol duality

@pytest.mark.parametrize("name,builder", sorted(COMPONENTS.items()))
def test_rto_component_is_the_dual_of_rtz(name, builder):
    rtz = builder(Protocol.RTZ)
    rto = builder(Protocol.RTO)
    assert structurally_equal(dual_of(rtz), rto)
    assert structurally_equal(dual_of(rto), rtz)
    assert stats(rtz).total_gates == stats(rto).total_gates


# ---------------------------------------------------------------------------
# carry-path behaviour

@pytest.mark.parametrize("protocol", list(Protocol))
def test_weak_adder_carry_leaves_before_sum(protocol):
    """With both operand bits equal the weak adder publishes its carry from
    the generate/kill pair, two levels deep, while the sum still waits for
    the carry-in: the carry rail commits strictly earlier than the sum."""
    netlist = weak_full_adder(protocol)
    harness = HandshakeHarness(netlist, protocol)
    state = harness.initialize()
    done = {}
    cout, sum_p = netlist.port("Cout"), netlist.port("Sum")
    state.trace = lambda t, net, val: done.setdefault(net, t)
    harness.run_phase(state, "data", {"A": 1, "B": 1, "Cin": 0})
    carry_done = max(done[r] for r in cout.rails if r in done)
    sum_done = max(done[r] for r in sum_p.rails if r in done)
    assert carry_done == 2
    assert carry_done < sum_done
    harness.run_phase(state, "return")


@pytest.mark.parametrize("protocol", list(Protocol))
def test_weak_carry_chain_beats_dims_through_a_ripple_adder(protocol):
    """Across a 4-stage carry chain the shorter weak-adder carry hop wins on
    worst-case cycle time even though a single adder ties at distance 4."""
    worst = {}
    for variant in ("dims_fa", "weak_fa"):
        harness = HandshakeHarness(ripple_carry_adder(protocol, 4, variant),
                                   protocol)
        state = harness.initialize()
        vec = {f"A{i}": 1 for i in range(4)} | {f"B{i}": 0 for i in range(4)}
        res = harness.run_transaction(state, vec | {"Cin": 1})  # full propagate
        worst[variant] = res.metrics.cycle_time
    assert worst["weak_fa"] < worst["dims_fa"]


# ---------------------------------------------------------------------------
# one active input per merge gate, checked on the built netlists

def merge_gates_with_two_active_inputs(netlist, protocol):
    """``(codeword, gate id)`` for every merge gate of ``netlist`` (OR2 under
    RTZ, AND2 under RTO) that holds both inputs at the active level at the
    end of a data phase, over every input codeword."""
    harness = HandshakeHarness(netlist, protocol)
    state = harness.initialize()
    merge = GateKind.OR2 if protocol is Protocol.RTZ else GateKind.AND2
    merges = [g for g in netlist.gates if g.kind is merge]
    active = protocol.active_level
    names = [p.name for p in harness.inputs]
    found = []
    for code in range(1 << len(names)):
        harness.run_phase(state, "data", {n: code >> i & 1 for i, n in enumerate(names)})
        found += [(code, g.id) for g in merges
                  if all(state.values[net] == active for net in g.inputs)]
        harness.run_phase(state, "return")
    return found


@pytest.mark.parametrize("protocol", list(Protocol))
def test_merge_gates_see_one_active_input(protocol):
    """Every output rail is a disjoint sum of products, so no merge gate ever
    sees two active inputs: the structural rule behind indication."""
    designs = {name: build(protocol) for name, build in COMPONENTS.items()}
    for n, fa in itertools.product((2, 3), ("dims_fa", "weak_fa")):
        designs[f"mult{n}x{n}_{fa}"] = array_multiplier(MultiplierSpec(n, protocol, fa))
    for name, netlist in designs.items():
        assert merge_gates_with_two_active_inputs(netlist, protocol) == [], name


def test_merge_gate_check_flags_a_sabotaged_or():
    """A dual-rail OR whose true rail is a plain OR of the true rails computes
    correctly but merges two active inputs when both operands are 1."""
    b = NetlistBuilder("or2_sabotaged")
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    z1 = b.add_gate(GateKind.OR2, (x.rail1, y.rail1))
    z0 = b.add_gate(GateKind.C2, (x.rail0, y.rail0))
    b.add_output_port("Z", z1, z0)
    assert merge_gates_with_two_active_inputs(b.build(), Protocol.RTZ) == [(3, 0)]
