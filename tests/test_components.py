"""Indicating gate library: truth tables, budgets, duality, merge-gate structure."""

import hashlib
import itertools

import pytest

from qdilab.components import (CELLS, COMPONENTS, cell, dims_full_adder,
                               emit_dims_full_adder, emit_strong_and2,
                               emit_weak_full_adder, ripple_carry_adder,
                               strong_and2, weak_full_adder)
from qdilab.encoding import Protocol
from qdilab.handshake import HandshakeHarness
from qdilab.multiplier import MultiplierSpec, array_multiplier
from qdilab.netlist import (GateKind, NetlistBuilder, NetlistError, dual_of,
                            stats, structurally_equal, to_dot, to_json)


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
    merges = [(gid, g) for gid, g in enumerate(netlist.gates) if g.kind is merge]
    active = protocol.active_level
    names = [p.name for p in harness.inputs]
    found = []
    for code in range(1 << len(names)):
        harness.run_phase(state, "data", {n: code >> i & 1 for i, n in enumerate(names)})
        found += [(code, gid) for gid, g in merges
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


# ---------------------------------------------------------------------------
# cells and instances

# The first 16 hex digits of the SHA-256 of ``to_json`` and of ``to_dot`` of
# the ripple-carry adders of widths 1 to 3, both variants under both
# protocols: a change to how the chain is assembled must give the same
# netlists, net for net.
RCA_DIGESTS = {
    "rca1_dims_fa_rto": ("453dc862f910c398", "ee00e45e12c3855b"),
    "rca1_dims_fa_rtz": ("10ebcf82909ec614", "720c86985289f4ea"),
    "rca1_weak_fa_rto": ("c73ea8bbec45a533", "13298eee395c24bd"),
    "rca1_weak_fa_rtz": ("34372b5a31b9590a", "6d57cf9b722e1306"),
    "rca2_dims_fa_rto": ("8d99a0eb82092efe", "57f1d99f1e27e343"),
    "rca2_dims_fa_rtz": ("943c3dca6ff1cad6", "9ab228da20116c09"),
    "rca2_weak_fa_rto": ("0bee72d0ba566d12", "ba3b473120145bcc"),
    "rca2_weak_fa_rtz": ("bba9325d1f3870f2", "80cd38815ba5ecbe"),
    "rca3_dims_fa_rto": ("59d34e9561b639a4", "3b5fddabbe51c852"),
    "rca3_dims_fa_rtz": ("c1e1aec7f5635cc5", "99eaec74dc96f159"),
    "rca3_weak_fa_rto": ("cf53511bddf73503", "a208660eaa78a66d"),
    "rca3_weak_fa_rtz": ("33d30525681efaea", "b5344d6e3eb6b0aa"),
}


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("variant", ["dims_fa", "weak_fa"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_ripple_carry_adders_are_pinned(width, variant, protocol):
    netlist = ripple_carry_adder(protocol, width, variant)
    assert pin(netlist) == RCA_DIGESTS[netlist.name]


# The same two digests of every ``COMPONENTS`` entry, by entry and protocol.
COMPONENT_DIGESTS = {
    "dims_fa_rto": ("1448e86ccfe5bb6a", "5f52aa7be2bcbeab"),
    "dims_fa_rtz": ("f94f03e468f0a16c", "6c4f4e22ed8d2412"),
    "rca2_dims_rto": ("8d99a0eb82092efe", "57f1d99f1e27e343"),
    "rca2_dims_rtz": ("943c3dca6ff1cad6", "9ab228da20116c09"),
    "rca2_weak_rto": ("0bee72d0ba566d12", "ba3b473120145bcc"),
    "rca2_weak_rtz": ("bba9325d1f3870f2", "80cd38815ba5ecbe"),
    "strong_and2_rto": ("1282e66e0495194a", "ff98d329af709db3"),
    "strong_and2_rtz": ("6ea2a5f71dd3a4f1", "b268bf096225d70e"),
    "weak_fa_rto": ("a6dd7afe8cca2f64", "4d7330654941db9d"),
    "weak_fa_rtz": ("e7e89feb0af2ab54", "fc52418c0b43e9ee"),
}


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_components_are_pinned(name, protocol):
    assert pin(COMPONENTS[name](protocol)) == COMPONENT_DIGESTS[f"{name}_{protocol.value}"]


def pin(netlist):
    """The first 16 hex digits of the SHA-256 of ``to_json`` and ``to_dot``."""
    return tuple(hashlib.sha256(render(netlist).encode()).hexdigest()[:16]
                 for render in (to_json, to_dot))


CELL_EMITTERS = {"strong_and2": (("X", "Y"), emit_strong_and2),
                 "dims_fa": (("A", "B", "Cin"), emit_dims_full_adder),
                 "weak_fa": (("A", "B", "Cin"), emit_weak_full_adder)}


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("name", sorted(CELLS))
def test_an_instance_adds_what_the_emit_function_adds(name, protocol):
    """One instance in a fresh builder is the block its ``emit_*`` function
    adds to another, behind a port and a gate that shift every net and gate
    id, with the inputs fed in reverse port order."""
    in_names, emit = CELL_EMITTERS[name]
    built, outputs = [], []
    for add in (lambda b, rails: b.add_instance(cell(name, protocol), rails),
                lambda b, rails: emit(b, protocol, *rails)):
        b = NetlistBuilder(name)
        w = b.add_input_port("W", init=protocol.spacer_level)
        b.add_gate(GateKind.OR2, w.rails)
        rails = [b.add_input_port(n, init=protocol.spacer_level).rails for n in in_names]
        outs = add(b, rails[::-1])
        outputs.append([outs] if isinstance(outs[0], int) else list(outs))
        built.append(b.build())
    assert outputs[0] == outputs[1]
    assert structurally_equal(*built)


def test_an_instance_needs_rail_pairs_that_reset_to_the_cell_inputs():
    and2 = cell("strong_and2", Protocol.RTZ)
    b = NetlistBuilder("x")
    x = b.add_input_port("X", init=0)
    y = b.add_input_port("Y", init=1)  # an RTO spacer
    with pytest.raises(NetlistError, match="reset to 0; net 2 resets to 1"):
        b.add_instance(and2, (x.rails, y.rails))
    with pytest.raises(NetlistError, match="takes 2 rail pairs"):
        b.add_instance(and2, (x.rails,))
    with pytest.raises(NetlistError, match="unknown net 4"):
        b.add_instance(and2, (x.rails, (4, 5)))
    assert b.net_count == 4 and not b.build().gates  # nothing was added
