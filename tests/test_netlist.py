"""Netlist construction, validation, serialization, and structural tools."""

import itertools
import json
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdilab import components
from qdilab.components import COMPONENTS, ripple_carry_adder
from qdilab.encoding import Protocol
from qdilab.handshake import HandshakeHarness
from qdilab.multiplier import MultiplierSpec, array_multiplier
from qdilab.netlist import (KIND_CODE, NEXT_STATE, Cell, CompiledNetlist, FormatError, Gate,
                            GateKind, NetlistBuilder, NetlistError, ValidationError,
                            check_weights, dual_of, from_json, stats, structurally_equal,
                            to_dot, to_json, validate)


def small_builder():
    b = NetlistBuilder("unit")
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    return b, x, y


# ---------------------------------------------------------------------------
# gate evaluation and builder basics

def test_next_state_table():
    """The one definition of every gate function: AND, OR and INV ignore the
    present output; a C2 copies its inputs when they agree and else holds."""
    functions = {GateKind.AND2: lambda a, b, cur: a & b,
                 GateKind.OR2: lambda a, b, cur: a | b,
                 GateKind.INV: lambda a, b, cur: 1 - a,
                 GateKind.C2: lambda a, b, cur: a if a == b else cur}
    assert len(NEXT_STATE) == 32
    for kind, f in functions.items():
        for a, b, cur in itertools.product((0, 1), repeat=3):
            assert NEXT_STATE[KIND_CODE[kind] << 3 | a << 2 | b << 1 | cur] == f(a, b, cur)


def test_builder_assigns_ids_and_derives_inits():
    b, x, y = small_builder()
    n_and = b.add_gate(GateKind.AND2, (x.rail1, y.rail1))
    n_inv = b.add_gate(GateKind.INV, (n_and,))
    b.add_output_port("Z", n_inv, n_and)
    netlist = b.build()
    # a gate's id is its position: the order the gates were added in
    assert [g.output for g in netlist.gates] == [n_and, n_inv] == [4, 5]
    # ports reset to 0, so AND resets to 0 and the INV above it to 1; a
    # gate's reset level is its output net's, stored nowhere else
    assert netlist.net_init == (0, 0, 0, 0, 0, 1)
    assert Gate._fields == ("kind", "inputs", "output")
    assert not hasattr(x, "init")
    assert netlist.port("Z").rails == (n_inv, n_and)
    with pytest.raises(KeyError):
        netlist.port("W")


def test_c2_requires_matching_or_explicit_init():
    b, x, y = small_builder()
    with pytest.raises(NetlistError):
        b.add_gate(GateKind.C2, (b.new_net(init=0), b.new_net(init=1)))
    out = b.add_gate(GateKind.C2, (b.new_net(init=1), b.new_net(init=1)))
    assert b._net_init[out] == 1
    forced = b.add_gate(GateKind.C2, (b.new_net(init=0), b.new_net(init=1)), init=1)
    assert b._net_init[forced] == 1


def test_add_gate_rejects_wrong_arity():
    b, x, y = small_builder()
    with pytest.raises(NetlistError):
        b.add_gate(GateKind.INV, (x.rail1, y.rail1))
    with pytest.raises(NetlistError):
        b.add_gate(GateKind.AND2, (x.rail1,))
    for net in (-1, b.net_count):  # the fresh output net is no input yet
        with pytest.raises(NetlistError, match=f"^unknown net {net}$"):
            b.add_gate(GateKind.AND2, (x.rail1, net))
    assert b.net_count == 4  # nothing was added


@pytest.mark.parametrize("level", [8, -1])
def test_add_gate_derives_an_init_only_from_bit_levels(level):
    """A derived init indexes ``NEXT_STATE`` with the inputs' reset levels,
    so an input whose level is no bit is refused, by net and level."""
    b = NetlistBuilder("odd")
    x = b.add_input_port("X", init=level)
    for kind in GateKind:
        with pytest.raises(NetlistError, match=f"^net 0 resets to {level}, not a bit$"):
            b.add_gate(kind, x.rails[:kind.arity])
    assert b.net_count == 2  # nothing was added


# ---------------------------------------------------------------------------
# cells and instances

def test_an_instance_renumbers_one_and_two_input_gates():
    """An instance of a cell with an inverter and an AND2 equals adding the
    same gates on the instance's rails by hand."""
    b, x, y = small_builder()
    inv = b.add_gate(GateKind.INV, (x.rail1,))
    b.add_output_port("Z", b.add_gate(GateKind.AND2, (inv, y.rail0)), inv)
    block = Cell(b.build())
    built = []
    for by_hand in (False, True):
        h = NetlistBuilder("host")
        h.add_gate(GateKind.INV, (h.add_input_port("W").rail0,))
        p, q = h.add_input_port("P"), h.add_input_port("Q")
        if by_hand:
            inv = h.add_gate(GateKind.INV, (q.rail1,))
            outs = [(h.add_gate(GateKind.AND2, (inv, p.rail0)), inv)]
        else:
            outs = h.add_instance(block, (q.rails, p.rails))
        h.add_output_port("Z", *outs[0])
        built.append(h.build())
    assert structurally_equal(*built)


def _wired_out_of_order(b, x, y):
    first, second = b.new_net(), b.new_net()
    b.wire_gate(GateKind.C2, (x.rail1, y.rail1), second, 0)
    b.wire_gate(GateKind.C2, (x.rail0, y.rail0), first, 0)
    return second, first


def _port_after_a_gate(b, x, y):
    z1 = b.add_gate(GateKind.C2, (x.rail1, y.rail1))
    late = b.add_input_port("V")
    return z1, b.add_gate(GateKind.C2, (late.rail0, y.rail0))


def _constant_input(b, x, y):
    k = b.add_const_port("K", 0)
    return b.add_gate(GateKind.C2, (x.rail1, k.rail1)), b.add_gate(GateKind.C2, (y.rail0, k.rail0))


@pytest.mark.parametrize("emit", [_wired_out_of_order, _port_after_a_gate, _constant_input])
def test_a_cell_must_be_laid_out_inputs_then_gates(emit):
    b, x, y = small_builder()
    b.add_output_port("Z", *emit(b, x, y))
    netlist = b.build()  # valid, but not in the layout an instance copies
    with pytest.raises(NetlistError, match="is not laid out as its input rails"):
        Cell(netlist)


# ---------------------------------------------------------------------------
# compiled form

def check_fanout_and_driver(netlist):
    """Each gate appears once in the fanout of each net it reads, with the
    index bits that net sets (4 for the first input, 2 for the last, both
    when they are one net) and its own output net; those masks OR to the
    bits it reads.  ``driver`` names each gate's output net, and input rails
    map to ``len(gates)``.  ``code`` holds each gate's reset code and nothing
    else: the compiled form keeps netlist facts only."""
    compiled = netlist.compiled
    entries = {}
    for net, fanout in enumerate(compiled.fanout):
        assert [g for g, _, _ in fanout] == sorted({g for g, _, _ in fanout}), net
        for g, mask, out in fanout:
            entries[g, net] = (mask, out)
    expected = {}
    for gid, g in enumerate(netlist.gates):
        first, last = g.inputs[0], g.inputs[-1]
        expected[gid, first] = (4 | (2 if last == first else 0), g.output)
        expected[gid, last] = (2 | (4 if last == first else 0), g.output)
    assert entries == expected
    for gid, g in enumerate(netlist.gates):
        bits = 0
        for net in set(g.inputs):
            bits |= entries[gid, net][0]
        assert bits == 6, g  # an inverter's second index bit repeats its first
    drivers = [len(netlist.gates)] * netlist.net_count
    for gid, g in enumerate(netlist.gates):
        drivers[g.output] = gid
    rails = {r for p in netlist.input_ports + netlist.const_ports for r in p.rails}
    assert {n for n, d in enumerate(drivers) if d == len(netlist.gates)} == rails
    assert compiled.driver == drivers
    v = netlist.net_init  # the one record of the reset levels: the compiled form keeps none
    assert compiled.code == [KIND_CODE[kind] << 3 | v[ins[0]] << 2 | v[ins[-1]] << 1 | v[out]
                             for kind, ins, out in netlist.gates]
    assert CompiledNetlist.__slots__ == ("fanout", "driver", "code")


@pytest.mark.parametrize("protocol", list(Protocol))
def test_fanout_masks_and_drivers_of_built_designs(protocol):
    for name, build in COMPONENTS.items():
        check_fanout_and_driver(build(protocol))
    harness = HandshakeHarness(array_multiplier(MultiplierSpec(3, protocol)), protocol)
    check_fanout_and_driver(harness.netlist)


def test_fanout_masks_of_a_gate_reading_one_net_twice():
    """``AND2(a, a)`` and an inverter both take mask 6: the net sets both
    index bits."""
    b, x, _ = small_builder()
    both = b.add_gate(GateKind.AND2, (x.rail1, x.rail1))
    inv = b.add_gate(GateKind.INV, (x.rail0,))
    b.add_output_port("Z", both, inv)
    netlist = b.build()
    check_fanout_and_driver(netlist)
    compiled = netlist.compiled
    assert compiled.fanout[x.rail1] == ((0, 6, both),)
    assert compiled.fanout[x.rail0] == ((1, 6, inv),)
    assert compiled.driver[both] == 0 and compiled.driver[inv] == 1


# ---------------------------------------------------------------------------
# validation findings

def codes(netlist):
    return sorted(f.code for f in validate(netlist))


def test_multi_driver_detected():
    b, x, y = small_builder()
    out = b.add_gate(GateKind.AND2, (x.rail1, y.rail1))
    b.wire_gate(GateKind.OR2, (x.rail0, y.rail0), out, init=0)
    b.add_output_port("Z", out, x.rail0)
    assert "multi-driver" in codes(b.build_unchecked())
    with pytest.raises(ValidationError):
        b.build()


def test_driver_findings_name_every_driver_in_net_order():
    """Two gates on one net, a gate on an input-port rail, and a net nobody
    drives: each finding names the drivers, in net order."""
    b, x, y = small_builder()
    out = b.add_gate(GateKind.AND2, (x.rail1, y.rail1))
    b.wire_gate(GateKind.OR2, (x.rail0, y.rail0), out, init=0)
    b.wire_gate(GateKind.AND2, (x.rail1, y.rail1), y.rail0, init=0)
    dangling = b.new_net()
    z = b.add_gate(GateKind.AND2, (x.rail1, dangling))
    b.add_output_port("Z", out, z)
    findings = [(f.code, f.message) for f in validate(b.build_unchecked())]
    assert findings == [("multi-driver", "net 3 driven by gate 2, port Y"),
                        ("multi-driver", "net 4 driven by gate 0, gate 1"),
                        ("undriven", "net 5 has no driver")]


def test_a_built_netlist_caches_its_verdict(monkeypatch):
    calls = []
    monkeypatch.setattr("qdilab.netlist.validate", lambda n: calls.append(n) or validate(n))
    b, x, y = small_builder()
    b.add_output_port("Z", b.add_gate(GateKind.AND2, (x.rail1, y.rail1)), x.rail0)
    netlist = b.build()  # the builder vouches for it
    assert netlist.validated() is netlist and not netlist.validation and calls == []
    loaded = from_json(to_json(netlist))
    assert loaded.validated() is loaded and not loaded.validation and calls == [loaded]
    b.wire_gate(GateKind.OR2, (x.rail0, y.rail0), b.new_net(), init=0)
    wired = b.build()  # wire_gate dropped the vouch
    assert wired.validated() is wired and not wired.validation and calls == [loaded, wired]
    odd = NetlistBuilder("odd")
    odd.add_input_port("A", 1.0)  # equals 1, but is no int bit
    with pytest.raises(ValidationError) as exc:
        odd.build()
    assert {f.code for f in exc.value.findings} == {"init-value"}
    assert calls == [loaded, wired, odd.build_unchecked()]


def test_gates_are_immutable():
    b, x, y = small_builder()
    b.add_gate(GateKind.AND2, (x.rail1, y.rail1))
    (gate,) = b.build_unchecked().gates
    with pytest.raises(AttributeError):
        gate.output = 9
    assert gate._replace(output=9).output == 9 and gate.output == 4


def test_undriven_net_detected():
    b, x, y = small_builder()
    dangling = b.new_net()
    out = b.add_gate(GateKind.AND2, (x.rail1, dangling))
    b.add_output_port("Z", out, x.rail0)
    assert "undriven" in codes(b.build_unchecked())


def test_combinational_cycle_detected():
    b, x, y = small_builder()
    loop = b.new_net()
    a = b.add_gate(GateKind.OR2, (x.rail1, loop))
    b.wire_gate(GateKind.OR2, (a, y.rail1), loop, init=0)
    b.add_output_port("Z", a, loop)
    assert "comb-cycle" in codes(b.build_unchecked())


def test_combinational_cycle_lists_the_gates_behind_it():
    b, x, y = small_builder()
    loop = b.new_net()
    a = b.add_gate(GateKind.OR2, (x.rail1, loop))
    b.wire_gate(GateKind.OR2, (a, y.rail1), loop, init=0)
    behind = b.add_gate(GateKind.AND2, (loop, x.rail0))  # reads the loop's output
    b.add_output_port("Z", behind, a)
    (finding,) = validate(b.build_unchecked())
    assert finding.code == "comb-cycle"
    assert finding.message == "gates [0, 1, 2] lie on or behind a combinational cycle"


def test_a_gate_reading_a_later_gate_is_no_cycle():
    """Gate order is not signal order: reading a net that a later gate
    drives forms no loop."""
    b, x, y = small_builder()
    later = b.new_net()
    first = b.add_gate(GateKind.AND2, (later, x.rail1))
    b.wire_gate(GateKind.OR2, (y.rail1, y.rail0), later, init=0)
    b.add_output_port("Z", first, later)
    assert codes(b.build_unchecked()) == []


def test_c2_feedback_loop_is_legal():
    """State-holding feedback through a C2 must not count as a cycle."""
    b, x, y = small_builder()
    loop = b.new_net()
    mixed = b.add_gate(GateKind.OR2, (x.rail1, loop))
    b.wire_gate(GateKind.C2, (mixed, y.rail1), loop, init=0)
    b.add_output_port("Z", loop, mixed)
    assert codes(b.build_unchecked()) == []


def test_an_input_port_whose_rails_reset_apart_is_refused():
    """A port has one ``"init"`` in JSON, so both its rails must reset to
    it; a hand-built netlist whose rails disagree would save as another."""
    b = NetlistBuilder("apart")
    x = b.add_input_port("X")
    b.add_output_port("Z", b.add_gate(GateKind.AND2, (x.rail1, x.rail1)), x.rail0)
    netlist = replace(b.build(), net_init=(0, 1, 0))
    assert [(f.code, f.message) for f in validate(netlist)] == [
        ("init-value", "port X rails reset to 0 and 1")]
    # a saved gate on rail0 that resets to 1: the other fault is named too
    doc = json.loads(to_json(b.build()))
    doc["gates"].append({"kind": "INV", "inputs": [2], "output": 1, "init": 1})
    with pytest.raises(ValidationError) as exc:
        from_json(json.dumps(doc))
    assert [f.code for f in exc.value.findings] == ["init-value", "multi-driver"]


def test_init_inconsistency_detected():
    b, x, y = small_builder()
    out = b.new_net(init=1)  # claims to reset high...
    b.wire_gate(GateKind.AND2, (x.rail1, y.rail1), out, init=1)  # ...inputs say 0
    b.add_output_port("Z", out, x.rail0)
    assert "init-inconsistent" in codes(b.build_unchecked())


# ---------------------------------------------------------------------------
# the builder's vouch: build() skips validate only where it would find nothing

FLAWS = ("port name", "port init", "constant", "gate init", "new_net", "wiring",
         "output rails", "base")


def builder_program(data, flaws=(None, *FLAWS), prefix: str = "P") -> NetlistBuilder:
    """A random builder program with at most one kind of flaw, drawn from
    ``flaws``: a repeated port name; a port init or constant that is not a
    bit; explicit gate inits; a bare ``new_net``; ``wire_gate``, onto such a
    net (every one, in the end) or any other; output rails that are equal or
    out of range; or ``from_netlist`` of another program's netlist, whose
    flaw is in its gates.  Every program adds ports, gates with derived
    inits and instances of the library cells; a step the builder refuses
    with :class:`NetlistError` is skipped."""
    draw = data.draw
    flaw = draw(st.sampled_from(flaws))
    bit = st.sampled_from([0, 1, False, True])  # a bool is the bit it equals

    def maybe(kind, usual, rare):  # the rare draw only in a program with that flaw
        return draw(usual | rare if flaw == kind else usual)

    if flaw == "base" or "base" in flaws and not draw(st.integers(0, 3)):
        inner = ("gate init", "wiring") if flaw == "base" else (None,)
        base = builder_program(data, inner, "Q").build_unchecked()
        b = NetlistBuilder.from_netlist(base)
        pairs = [p.rails for p in base.ports]  # rail pairs an instance may be wired to
    else:
        b = NetlistBuilder("program")
        pairs = []
    for i in range(draw(st.integers(0 if pairs else 1, 3))):
        name = f"{prefix}{maybe('port name', st.just(i), st.integers(0, i))}"
        init = maybe("port init", bit, st.sampled_from([-1, 2, 1.0]))
        if flaw == "constant" or not draw(st.integers(0, 3)):
            port = b.add_const_port(name, maybe("constant", bit, st.sampled_from([2, 1.0])), init)
        else:
            port = b.add_input_port(name, init)
        pairs.append(port.rails)
    steps = ["gate", "instance"] + {"new_net": ["new_net"],
                                    "wiring": ["new_net", "wire_gate"]}.get(flaw, [])
    bare = []  # the nets new_net made that no gate drives yet

    def wire(output):
        kind = draw(st.sampled_from(list(GateKind)))
        ins = [draw(st.integers(0, b.net_count - 1)) for _ in range(kind.arity)]
        b.wire_gate(kind, ins, output, draw(bit))

    for _ in range(draw(st.integers(0, 10))):
        n = b.net_count
        step = draw(st.sampled_from(steps))
        try:
            if step == "gate":
                kind = draw(st.sampled_from(list(GateKind)))
                ins = [draw(st.integers(0, n - 1)) for _ in range(kind.arity)]
                init = maybe("gate init", st.none(), st.sampled_from([0, 1, 2]))
                pairs.append((b.add_gate(kind, ins, init), draw(st.integers(0, n - 1))))
            elif step == "instance":
                cell = components.cell(draw(st.sampled_from(sorted(components.CELLS))),
                                       draw(st.sampled_from(list(Protocol))))
                ins = [draw(st.sampled_from(pairs)) for _ in range(len(cell.levels) // 2)]
                pairs += b.add_instance(cell, ins)
            elif step == "wire_gate":
                wire(bare.pop() if bare else draw(st.integers(-1, n)))
            else:
                bare.append(b.new_net(draw(bit | st.just(2))))
        except NetlistError:
            pass
    if flaw == "wiring":
        for net in bare:  # close every loop left open
            wire(net)
    for k in range(draw(st.integers(1, 2))):
        odd = st.sampled_from([(0, 0), (-1, 0), (0, b.net_count)])  # equal, or out of range
        rails = maybe("output rails", st.sampled_from(pairs), odd)
        b.add_output_port(f"{prefix}out{k}", *rails)
    return b


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_build_raises_exactly_what_validate_finds(data):
    """Whether or not the builder vouches, ``build()`` returns the netlist
    exactly when ``validate`` finds nothing in it, and otherwise raises
    :class:`ValidationError` with ``validate``'s findings, in order."""
    b = builder_program(data)
    expected = validate(b.build_unchecked())
    try:
        netlist = b.build()
    except ValidationError as e:
        assert e.findings == expected != ()
    else:
        assert expected == () and not netlist.validation
        assert structurally_equal(netlist, b.build_unchecked())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_saved_netlist_loads_as_itself(data):
    """``net_init`` is the one record of a reset level, so a netlist that
    validates saves as itself: gates, ports and levels.  Each program ends
    with a C2 over two nets that reset apart, with a drawn explicit init,
    where it has both levels."""
    b = builder_program(data, (None, "gate init", "base"))
    zeros, ones = ([n for n, v in enumerate(b._net_init) if v == level] for level in (0, 1))
    if zeros and ones:
        ins = data.draw(st.permutations([data.draw(st.sampled_from(zeros)),
                                         data.draw(st.sampled_from(ones))]))
        b.add_gate(GateKind.C2, ins, init=data.draw(st.integers(0, 1)))
    netlist = b.build_unchecked()
    assume(not netlist.validation)
    loaded = from_json(to_json(netlist))
    assert (loaded.gates, loaded.ports, loaded.net_init) == (
        netlist.gates, netlist.ports, netlist.net_init)


# Every public method of the builder, sorted by what it does to the vouch.
# A method that keeps it checks, as it goes, what validate would check of
# what it adds (or drops the vouch where it cannot, as add_gate does for any
# explicit init); build() relies on that.
KEEPS_THE_VOUCH = {"new_net", "add_gate", "add_instance", "add_input_port",
                   "add_const_port", "add_output_port", "reduce_tree", "from_netlist",
                   "build", "build_unchecked"}
DROPS_THE_VOUCH = {"wire_gate"}


def test_every_builder_method_is_sorted_by_the_vouch():
    """A new mutator must say which it does before it can skip validation."""
    public = {name for name, value in vars(NetlistBuilder).items()
              if not name.startswith("_") and not isinstance(value, property)}
    assert public == KEEPS_THE_VOUCH | DROPS_THE_VOUCH
    assert not KEEPS_THE_VOUCH & DROPS_THE_VOUCH


# ---------------------------------------------------------------------------
# reduce_tree

def test_reduce_tree_power_of_two():
    b = NetlistBuilder("tree")
    leaves = [b.add_input_port(f"I{i}").rail1 for i in range(8)]
    before = len(b._gates)
    b.reduce_tree(GateKind.OR2, leaves)
    gates = b._gates[before:]
    assert len(gates) == 7
    # depth: longest chain from a leaf through gate outputs is exactly 3
    depth = {}
    for g in gates:
        depth[g.output] = 1 + max(depth.get(i, 0) for i in g.inputs)
    assert max(depth.values()) == 3


def test_reduce_tree_odd_leftover_joins_last():
    b = NetlistBuilder("tree3")
    i = [b.add_input_port(f"I{k}").rail1 for k in range(3)]
    root = b.reduce_tree(GateKind.C2, i)
    g_by_out = {g.output: g for g in b._gates}
    top = g_by_out[root]
    assert top.kind is GateKind.C2
    first = g_by_out[top.inputs[0]]
    assert tuple(first.inputs) == (i[0], i[1]) and top.inputs[1] == i[2]


def test_reduce_tree_single_and_empty():
    b = NetlistBuilder("t")
    n = b.add_input_port("I").rail1
    assert b.reduce_tree(GateKind.OR2, [n]) == n
    assert len(b._gates) == 0
    with pytest.raises(NetlistError):
        b.reduce_tree(GateKind.OR2, [])


@given(st.integers(1, 40))
def test_reduce_tree_gate_count_property(k):
    b = NetlistBuilder("t")
    leaves = [b.new_net() for _ in range(k)]
    b.reduce_tree(GateKind.OR2, leaves)
    assert len(b._gates) == k - 1


# ---------------------------------------------------------------------------
# serialization

def build_sample():
    b = NetlistBuilder("sample", {"purpose": "round-trip"})
    x = b.add_input_port("X", init=1)
    c = b.add_const_port("K", value=0, init=1)
    z1 = b.add_gate(GateKind.C2, (x.rail1, c.rail1))
    z0 = b.add_gate(GateKind.OR2, (x.rail0, c.rail0), init=1)
    inv = b.add_gate(GateKind.INV, (z0,))
    b.add_output_port("Z", z1, z0)
    b.add_output_port("NZ", inv, z1)
    return b.build()


def test_json_round_trip_preserves_everything():
    original = build_sample()
    restored = from_json(to_json(original))
    assert restored.name == original.name
    assert restored.metadata == original.metadata
    assert restored.net_count == original.net_count
    assert restored.net_init == original.net_init
    assert restored.gates == original.gates
    assert restored.ports == original.ports
    assert to_json(restored) == to_json(original)


def test_a_bool_level_saves_as_the_integer_it_equals():
    """A bool is the bit it equals, so ``True`` is written as 1 and loads
    back: port inits, constants and gate inits, also in a netlist made
    directly, which no builder step has checked."""
    b = NetlistBuilder("bools")
    x = b.add_input_port("X", True)
    k = b.add_const_port("K", True, init=False)
    b.add_output_port("Z", b.add_gate(GateKind.C2, (x.rail1, k.rail1), init=True), x.rail0)
    built = b.build()
    direct = replace(built, net_init=tuple(bool(v) for v in built.net_init))
    for netlist in (built, direct):
        doc = json.loads(to_json(netlist))
        levels = [g["init"] for g in doc["gates"]] + [
            v for p in doc["ports"] for key, v in p.items() if key in ("init", "const_value")]
        assert levels == [1, 1, 1, 0] and all(type(v) is int for v in levels)
        loaded = from_json(json.dumps(doc))
        assert (loaded.gates, loaded.ports, loaded.net_init) == (
            netlist.gates, netlist.ports, netlist.net_init)


def test_json_is_deterministic_and_sorted():
    a, b = to_json(build_sample()), to_json(build_sample())
    assert a == b
    doc = json.loads(a)
    assert set(doc) >= {"name", "net_count", "gates", "ports"}


def test_from_json_rejects_malformed():
    with pytest.raises(FormatError):
        from_json("{not json")
    with pytest.raises(FormatError):
        from_json(json.dumps([1, 2, 3]))
    deep = "[" * 100_000 + "]" * 100_000  # nested past any recursion limit
    sample = json.dumps({**json.loads(to_json(build_sample())), "meta": 0})
    for text in (deep, sample.replace('"meta": 0', '"meta": ' + deep)):
        with pytest.raises(FormatError, match="^not valid JSON: maximum recursion depth"):
            from_json(text)
    doc = json.loads(to_json(build_sample()))
    doc["gates"][0]["kind"] = "XOR9"
    with pytest.raises(FormatError):
        from_json(json.dumps(doc))
    nested = json.loads("[" * 400 + "]" * 400)  # loadable, and echoed only in part
    doc["gates"][0]["kind"] = nested
    with pytest.raises(FormatError, match=r"^gate entry 0: expected a string, got \[{7}\.\.\.\]{7}$"):
        from_json(json.dumps(doc))
    doc = json.loads(to_json(build_sample()))
    doc["gates"][0]["inputs"] = [99]
    with pytest.raises(ValidationError):  # a net out of range is validate's finding
        from_json(json.dumps(doc))
    # dict() would read a list of pairs as an object
    doc = json.loads(to_json(build_sample()))
    for meta, shown in (([["n", 2]], "[['n', 2]]"), (None, "None"), ("n", "'n'"),
                        (nested, "[[[[[[[...]]]]]]]")):
        doc["meta"] = meta
        with pytest.raises(FormatError, match=f"^meta must be an object, got {re.escape(shown)}$"):
            from_json(json.dumps(doc))


def test_from_json_leaves_nets_out_of_range_to_validate():
    """A document that names a net out of range loads up to validation,
    which raises every finding ``validate`` makes of the same netlist built
    directly, not only the first bad net."""
    sample = build_sample()  # 7 nets
    gates, ports = sample.gates, sample.ports
    moved = lambda name, **rails: tuple(replace(p, **rails) if p.name == name else p
                                        for p in ports)
    for bad in (replace(sample, gates=(gates[0]._replace(inputs=(99,)), *gates[1:])),
                replace(sample, gates=(*gates[:2], gates[2]._replace(output=-1))),
                replace(sample, ports=moved("X", rail0=7)),
                replace(sample, ports=moved("Z", rail1=7, rail0=12))):
        findings = validate(bad)
        assert "net-range" in {f.code for f in findings}
        with pytest.raises(ValidationError) as exc:
            from_json(to_json(bad))
        assert exc.value.findings == findings


def test_from_json_wraps_malformed_entries():
    def load_with(section, entry):
        doc = json.loads(to_json(build_sample()))
        doc[section][0] = entry(doc[section][0])
        return from_json(json.dumps(doc))

    without = lambda key: lambda e: {k: v for k, v in e.items() if k != key}
    with pytest.raises(FormatError, match="gate entry 0 lacks key 'inputs'"):
        load_with("gates", without("inputs"))
    with pytest.raises(FormatError, match="gate entry 0 is not an object"):
        load_with("gates", lambda e: [1, 2])
    with pytest.raises(FormatError, match="port entry 0 lacks key 'rail1'"):
        load_with("ports", without("rail1"))
    with pytest.raises(FormatError, match="port entry 0 is not an object"):
        load_with("ports", lambda e: "X")
    with pytest.raises(FormatError, match="gates must be a list"):
        from_json(json.dumps({"net_count": 1, "gates": {}, "ports": []}))
    # integer fields take JSON integers only: each of these loaded once, read
    # digit by digit, truncated, or as a bit
    setting = lambda key, value: lambda e: {**e, key: value}
    for section, key, value in (("gates", "inputs", "02"), ("gates", "output", 4.5),
                                ("gates", "output", "4"), ("gates", "init", False),
                                ("gates", "id", 0.0), ("gates", "inputs", [0, 2.0]),
                                ("ports", "init", True), ("ports", "rail1", "0"),
                                ("ports", "rail0", 1.0)):
        with pytest.raises(FormatError, match=f"{section[:-1]} entry 0: "):
            load_with(section, setting(key, value))
    doc = json.loads(to_json(build_sample()))
    doc["ports"][1]["const_value"] = False  # the constant port K
    with pytest.raises(FormatError, match="port entry 1: "):
        from_json(json.dumps(doc))
    doc = json.loads(to_json(build_sample()))
    doc["net_count"] += 0.5
    with pytest.raises(FormatError, match="bad top-level value"):
        from_json(json.dumps(doc))


def test_permuted_gate_ids_are_rejected():
    doc = json.loads(to_json(ripple_carry_adder(Protocol.RTZ, 1, "weak_fa")))
    g0, g1 = doc["gates"][0], doc["gates"][1]
    g0["id"], g1["id"] = g1["id"], g0["id"]
    with pytest.raises(FormatError, match=r"^gate entry 0: id 1 is not its position 0$"):
        from_json(json.dumps(doc))


def test_gate_ids_may_be_left_out_and_are_written_back():
    """A gate's id is its position, so a document may omit it."""
    text = to_json(ripple_carry_adder(Protocol.RTZ, 1, "weak_fa"))
    doc = json.loads(text)
    for g in doc["gates"]:
        del g["id"]
    assert to_json(from_json(json.dumps(doc))) == text


def test_from_json_validates_semantics():
    doc = json.loads(to_json(build_sample()))
    doc["gates"][1]["output"] = doc["gates"][0]["output"]  # double-drive
    with pytest.raises(ValidationError):
        from_json(json.dumps(doc))


def test_c2_init_against_agreeing_input_resets_is_detected():
    """Gate 0 is a C2 over two rails that reset to 1, so it must reset to 1
    as well; init 0 would leave it excited at reset."""
    doc = json.loads(to_json(build_sample()))
    assert doc["gates"][0]["kind"] == "C2" and doc["gates"][0]["init"] == 1
    doc["gates"][0]["init"] = 0
    with pytest.raises(ValidationError) as exc:
        from_json(json.dumps(doc))
    assert [(f.code, f.message) for f in exc.value.findings] == [
        ("init-inconsistent", "gate 0 (C2) init 0 but inputs reset to 1")]


def test_c2_over_disagreeing_input_resets_takes_either_init():
    for init in (0, 1):
        b, x, _ = small_builder()
        one = b.add_input_port("W", init=1)
        z = b.add_gate(GateKind.C2, (x.rail1, one.rail1), init=init)
        b.add_output_port("Z", z, x.rail0)
        assert "init-inconsistent" not in codes(b.build_unchecked())


@st.composite
def random_netlists(draw):
    b = NetlistBuilder("rand")
    pool = []
    for i in range(draw(st.integers(1, 3))):
        p = b.add_input_port(f"I{i}", init=draw(st.integers(0, 1)))
        pool += [p.rail1, p.rail0]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([GateKind.AND2, GateKind.OR2,
                                     GateKind.INV, GateKind.C2]))
        picks = [pool[draw(st.integers(0, len(pool) - 1))]
                 for _ in range(kind.arity)]
        if kind is GateKind.C2:
            init = b._net_init[picks[0]]
            out = b.add_gate(kind, picks, init=init)
        else:
            out = b.add_gate(kind, picks)
        pool.append(out)
    b.add_output_port("Z", pool[-1], pool[0])
    return b.build()


@given(random_netlists())
def test_json_round_trip_random(netlist):
    assert from_json(to_json(netlist)) == netlist


def test_port_inits_constants_and_directions_are_checked():
    netlist = build_sample()
    k = netlist.ports[1]  # the constant port K, on nets 2 and 3
    for change, code in (({"const_value": 3}, "init-value"),
                         ({"const_value": 1.0}, "init-value"),
                         ({"direction": "sideways"}, "port-dir"),
                         ({"name": "X"}, "port-name")):
        ports = list(netlist.ports)
        ports[1] = replace(k, **change)
        assert code in codes(replace(netlist, ports=tuple(ports)))
    for level in (2, -1, 1.0):  # both of K's rails reset to a level that is no bit
        net_init = list(netlist.net_init)
        net_init[k.rail1] = net_init[k.rail0] = level
        assert codes(replace(netlist, net_init=tuple(net_init))) == ["init-value"] * 2


def test_an_output_port_carrying_a_constant_is_refused():
    """Only the environment drives a constant, so it belongs on an input
    port; on an output port no harness could drive it."""
    netlist = build_sample()
    ports = list(netlist.ports)
    ports[2] = replace(ports[2], const_value=0)  # the output port Z
    assert [(f.code, f.message) for f in validate(replace(netlist, ports=tuple(ports)))] \
        == [("port-dir", "output port Z carries a constant")]
    doc = json.loads(to_json(netlist))
    doc["ports"][2]["const_value"] = 0
    with pytest.raises(ValidationError) as exc:
        from_json(json.dumps(doc))
    assert [f.code for f in exc.value.findings] == ["port-dir"]


def test_from_json_bounds_net_count_before_allocating():
    """Every net needs exactly one driver, so a document with more nets than
    gate outputs and input rails is rejected before any per-net work."""
    doc = json.loads(to_json(build_sample()))  # 3 gates, 2 input ports
    for net_count in (-1, 3 + 2 * 2 + 1, 2_000_000, 10**15):
        doc["net_count"] = net_count
        with pytest.raises(FormatError, match=f"net_count {net_count} outside 0..7"):
            from_json(json.dumps(doc))


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.integers(), st.floats(),
    st.sampled_from([float("inf"), float("nan"), 2, 8, 10**20]),
    st.text(max_size=3), st.sampled_from([k.value for k in GateKind] + ["input", "output"]),
    st.lists(st.integers(-1, 12), max_size=3),
    st.dictionaries(st.sampled_from(["id", "kind", "inputs", "output", "init", "name"]),
                    st.integers(-1, 12), max_size=3))


def _mutate(data, doc):
    """Drop, retype or perturb one value somewhere in a netlist document."""
    node = doc
    while node:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        op = data.draw(st.sampled_from(["drop", "retype", "perturb"]))
        if op == "drop":
            del node[key]
        elif op == "perturb" and type(child) is int:
            node[key] = child + data.draw(st.integers(-3, 3) | st.integers())
        else:
            node[key] = data.draw(JUNK)
        return


@settings(max_examples=400, deadline=None)
@given(random_netlists(), st.data())
def test_mutated_documents_load_or_raise_netlist_error(netlist, data):
    doc = json.loads(to_json(netlist))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    try:
        from_json(json.dumps(doc))
    except NetlistError:
        pass


# ---------------------------------------------------------------------------
# stats / duality / dot

def test_stats_counts_and_weights():
    netlist = build_sample()
    st_default = stats(netlist)
    assert st_default.counts == {"AND2": 0, "OR2": 1, "INV": 1, "C2": 1}
    assert st_default.total_gates == 3
    assert st_default.area_proxy == 3.0
    weighted = stats(netlist, {"C2": 4.0, "OR2": 2.0, "INV": 0.5, "AND2": 1.0})
    assert weighted.area_proxy == 6.5
    assert stats(netlist, {"C2": 4}).area_proxy == 6.0
    # a weight must be a number a float holds, of at least 0, and no bool;
    # stats and check_weights state one rule
    for bad in (float("nan"), float("inf"), "2", None, -1, True, False, 10**400):
        for check in (lambda w: stats(netlist, w), check_weights):
            with pytest.raises(ValueError, match="area weights must be finite numbers >= 0"):
                check({"C2": bad})
    with pytest.raises(ValueError, match=r"unknown gate kinds in weights: \['AND'\]"):
        check_weights({"AND": 1.0})
    largest = {"C2": 10**308, "OR2": sys.float_info.max}
    assert check_weights(largest) is largest


def test_dual_swaps_monotone_kinds_and_flips_inits():
    original = build_sample()
    dual = dual_of(original)
    kinds = [g.kind for g in dual.gates]
    assert kinds == [GateKind.C2, GateKind.AND2, GateKind.INV]
    assert dual.net_init == tuple(v ^ 1 for v in original.net_init)
    assert structurally_equal(dual_of(dual), original)


def test_structural_equality_ignores_labels():
    a = build_sample()
    b = build_sample()
    object.__setattr__(b, "name", "other")
    b.metadata["purpose"] = "changed"
    assert structurally_equal(a, b)
    c = dual_of(a)
    assert not structurally_equal(a, c)


def test_to_dot_shape_and_determinism():
    b = NetlistBuilder("dot")
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    z = b.add_gate(GateKind.AND2, (x.rail1, y.rail1))
    b.add_output_port("Z", z, x.rail0)
    netlist = b.build()
    dot = to_dot(netlist)
    assert dot == to_dot(netlist)
    assert dot.startswith("digraph")
    # 3 port nodes + 1 gate node, 2 gate input edges + 2 output port edges
    assert dot.count("shape=invhouse") == 2
    assert dot.count("shape=house") == 1
    assert dot.count("shape=box") == 1
    assert dot.count("->") == 4


# a DOT identifier: bare (ASCII letters, digits, underscores, not led by a
# digit) or a quoted string whose only escapes are backslash pairs
DOT_ID = r'(?:[A-Za-z_][A-Za-z_0-9]*|"(?:[^"\\]|\\.)*")'
DOT_STATEMENT = re.compile(
    rf"  ({DOT_ID})(?: -> ({DOT_ID}))? \[\w+={DOT_ID}(?: label=({DOT_ID}))?\];")


def _dot_text(dot_id):
    return re.sub(r"\\(.)", r"\1", dot_id[1:-1]) if dot_id.startswith('"') else dot_id


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=6)
                | st.sampled_from(["a-b", "out put", 'say "hi"', "back\\", "X_1"]),
                min_size=3, max_size=3, unique=True))
def test_to_dot_quotes_every_port_name_that_is_not_a_bare_identifier(names):
    """Every node and edge statement is well-formed DOT whatever the port
    names, and each port's node and label read back as its name; a name of
    letters, digits and underscores keeps a bare ``p_<name>``."""
    b = NetlistBuilder("names")
    x, y = b.add_input_port(names[0]), b.add_input_port(names[1])
    b.add_output_port(names[2], b.add_gate(GateKind.AND2, (x.rail1, y.rail1)), x.rail0)
    lines = to_dot(b.build()).splitlines()
    assert lines[:2] == ["digraph netlist {", "  rankdir=LR;"] and lines[-1] == "}"
    statements = [DOT_STATEMENT.fullmatch(line) for line in lines[2:-1]]
    assert all(statements), lines
    nodes = [m[1] for m in statements if m[2] is None]
    assert [_dot_text(n) for n in nodes] == [f"p_{n}" for n in names] + ["g0"]
    labels = [_dot_text(m[3]) for m in statements[:3]]
    assert labels == [f"{names[0]} [input]", f"{names[1]} [input]", f"{names[2]} [output]"]
    assert {m[k] for m in statements if m[2] for k in (1, 2)} <= set(nodes)
    for name, node in zip(names, nodes):
        assert (node == f"p_{name}") == bool(re.fullmatch(r"[A-Za-z0-9_]+", name))
