"""Event-driven simulator: reset, delays, hazards, determinism."""

import hashlib
import itertools
import json
import random
import re
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilab.components import COMPONENTS, FA_VARIANTS, strong_and2
from qdilab.encoding import Protocol, encode, spacer_rails
from qdilab.handshake import HandshakeHarness
from qdilab.multiplier import MultiplierSpec, array_multiplier
from qdilab.netlist import (KIND_CODE, NEXT_STATE, GateKind, NetlistBuilder, ValidationError,
                            validate)
from qdilab.sim import (HazardRecord, NonQuiescenceError,
                        RandomUniformDelay, SimState, Stimulus, StimulusError,
                        TableDelay, UnitDelay, initialize, uniform_draws)

from reference_kernel import ReferenceKernel
from test_analysis import dead_end_and2


RESET_DESIGNS = {**COMPONENTS, **{
    f"mult{n}x{n}_{fa}": lambda p, n=n, fa=fa: array_multiplier(MultiplierSpec(n, p, fa))
    for n in (2, 3) for fa in FA_VARIANTS}}


@pytest.mark.parametrize("protocol", list(Protocol))
def test_reset_state_is_quiescent_spacer(protocol):
    """Every library block and small multiplier resets, under its own
    protocol, to exactly its stored inits: nothing settles at reset."""
    spacer = protocol.spacer_level
    for name, build in RESET_DESIGNS.items():
        netlist = build(protocol)
        state = initialize(netlist)
        assert state.now == 0 and state.transitions == 0, name
        assert state.is_quiescent(), name
        assert state.values == list(netlist.net_init), name
        for p in netlist.input_ports:
            assert (state.values[p.rail1], state.values[p.rail0]) == (spacer, spacer)
        for p in netlist.output_ports:
            assert (state.values[p.rail1], state.values[p.rail0]) \
                == spacer_rails(protocol)


def inconsistent_and2():
    """An unvalidated netlist whose AND2 stores 1 over inputs that reset to 0."""
    b = NetlistBuilder("bad")
    x = b.add_input_port("X")
    y = b.add_input_port("Y")
    out = b.new_net(init=1)
    b.wire_gate(GateKind.AND2, (x.rail1, y.rail1), out, init=1)
    b.add_output_port("Z", out, x.rail0)
    return b.build_unchecked()


def test_initialize_rejects_inconsistent_reset():
    with pytest.raises(ValidationError, match=r"^gate 0 \(AND2\) init 1 but inputs reset to 0$"):
        initialize(inconsistent_and2())


def two_drivers():
    """Two inverters wired onto one net, each consistent at reset: raising
    and lowering ``X.rail1`` would leave the net at 0, where both drive 1,
    record a hazard on an event of gate 0 already committed, and leave the
    state not quiescent."""
    b = NetlistBuilder("two drivers")
    x = b.add_input_port("X")
    net = b.new_net(init=1)
    for rail in x.rails:
        b.wire_gate(GateKind.INV, (rail,), net, init=1)
    b.add_output_port("Z", net, x.rail0)
    return b.build_unchecked()


def dangling_input():
    """An inverter reading a net past the last one."""
    b = NetlistBuilder("dangling")
    x = b.add_input_port("X")
    net = b.new_net(init=1)
    b.wire_gate(GateKind.INV, (net + 1,), net, init=1)
    b.add_output_port("Z", net, x.rail0)
    return b.build_unchecked()


def float_level():
    """``strong_and2`` with one input rail resting at the float 1.0."""
    netlist = strong_and2(Protocol.RTZ)
    return replace(netlist, net_init=(1.0, *netlist.net_init[1:]))


@pytest.mark.parametrize("build", [two_drivers, dangling_input, float_level, inconsistent_and2])
def test_the_simulator_runs_only_valid_netlists(build):
    """``initialize`` and ``Stimulus`` raise ``validate``'s findings for an
    invalid netlist, never another error or a silent run; a bad delay table
    is still reported first."""
    netlist = build()
    findings = validate(netlist)
    assert findings
    rail = netlist.ports[0].rail1
    for run in (lambda: initialize(netlist), lambda: Stimulus(netlist, {rail: 1})):
        with pytest.raises(ValidationError) as exc:
            run()
        assert exc.value.findings == findings
    gates = len(netlist.gates)
    with pytest.raises(ValueError, match=rf"^delay table names gates \[{gates}\]"):
        initialize(netlist, TableDelay({gates: 2}))


def test_states_share_no_list_with_each_other_or_the_reset_image():
    harness = HandshakeHarness(array_multiplier(MultiplierSpec(2, Protocol.RTZ)), Protocol.RTZ)
    a, b = harness.initialize(), harness.initialize(RandomUniformDelay(1, 16, 3))
    compiled = harness.netlist.compiled
    # the compiled form's arrays are read only, and shared by design
    shared = [getattr(compiled, name) for name in compiled.__slots__]
    lists = [name for name in SimState.__slots__
             if isinstance(getattr(a, name), (list, bytearray))
             and all(getattr(a, name) is not c for c in shared)]
    assert {"values", "_code", "_pending"} <= set(lists)
    for name in lists:
        assert getattr(a, name) is not getattr(b, name), name
    # the monitor's table is the harness's, shared by its states and read only
    assert a.watched is b.watched and isinstance(a.watched, tuple)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_a_reset_after_a_settled_vector_equals_a_fresh_one(protocol):
    """The reset state is built once per netlist; a state that moves must
    leave it as it was for the next ``initialize``."""
    netlist = array_multiplier(MultiplierSpec(2, protocol))
    harness = HandshakeHarness(netlist, protocol)
    used = harness.initialize()
    harness.run_phase(used, "data", {p.name: 1 for p in harness.inputs})
    state = harness.initialize()
    spacer = protocol.spacer_level
    env = {r for p in harness.netlist.input_ports + harness.netlist.const_ports
           for r in p.rails}
    assert used.values != state.values
    assert state.values == [spacer if net in env else init
                            for net, init in enumerate(harness.netlist.net_init)]
    assert (state.now, state.transitions, state.hazards) == (0, 0, [])
    assert_codes_match_values(state)


def test_a_failed_reset_raises_on_every_call():
    netlist = inconsistent_and2()
    messages = []
    for _ in range(2):
        with pytest.raises(ValidationError) as exc:
            initialize(netlist)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def wire_fixture():
    """A raw-wire testbench: IN feeds an inverter and an AND of (IN, INV)."""
    b = NetlistBuilder("race")
    x = b.add_input_port("IN")
    inv = b.add_gate(GateKind.INV, (x.rail1,))
    z = b.add_gate(GateKind.AND2, (x.rail1, inv))
    b.add_output_port("Z", z, inv)
    return b.build(), x


def test_equal_delays_cancel_the_pulse_inertially():
    """With matched delays the inverter's fall lands at the same instant as
    the AND's scheduled rise and disables it: the output never pulses."""
    netlist, x = wire_fixture()
    state = initialize(netlist)
    report = state.apply_and_settle({x.rail1: 1})
    assert report.elapsed == 1
    assert report.transitions == 2  # the input rail and the inverter only
    assert state.values[netlist.gates[1].output] == 0
    assert [h.net for h in report.hazards] == [netlist.gates[1].output]
    assert state.is_quiescent()


def test_glitch_pulse_under_asymmetric_delays():
    """A slower inverter stretches the static hazard into a visible pulse."""
    netlist, x = wire_fixture()
    state = initialize(netlist, TableDelay({0: 3}, default=1))  # INV=3, AND=1
    pulses = []
    state.trace = lambda t, net, val: pulses.append((t, net, val))
    z = netlist.gates[1].output
    state.apply_and_settle({x.rail1: 1})
    z_events = [(t, v) for t, net, v in pulses if net == z]
    assert z_events == [(1, 1), (4, 0)]
    assert not state.hazards


def test_cancelled_excitation_is_recorded_as_hazard():
    """If the AND is slower than the inverter, its pending rise is disabled
    before it commits; the simulator cancels it and records the hazard."""
    netlist, x = wire_fixture()
    state = initialize(netlist, TableDelay({1: 5}, default=3))  # AND=5, INV=3
    z = netlist.gates[1].output
    report = state.apply_and_settle({x.rail1: 1})
    assert state.values[z] == 0  # the pulse never surfaced
    assert [h.net for h in report.hazards] == [z]
    h = report.hazards[0]
    assert isinstance(h, HazardRecord)
    assert (h.time, h.cancelled, h.target) == (3, 1, 0)
    assert "disabled" in h.description


def test_stimulus_errors():
    """Every bad batch raises :class:`StimulusError`, whether it is checked
    into a :class:`Stimulus` or handed to a settle as a mapping; a net that
    is not an int is no environment net."""
    netlist, x = wire_fixture()
    state = initialize(netlist)
    gate_out = netlist.gates[0].output
    for bad in ({gate_out: 1}, {x.rail1: 2},
                {x.rail1: 1.0},  # equal to 1, but not a bit
                {9999: 0}, {"a": 1},
                {0.0: 1},  # net 0 is an input rail
                {x.rail1: 1, "a": 0}, {None: 1}):
        with pytest.raises(StimulusError, match="environment-driven|non-bit"):
            Stimulus(netlist, bad)
        with pytest.raises(StimulusError, match="environment-driven|non-bit"):
            state.apply_and_settle(bad)
    with pytest.raises(StimulusError, match="net 'a' is not environment-driven"):
        state.apply_and_settle({x.rail1: 1, "a": 0})
    # a bool is the int it equals: True is net 1, an input rail here
    assert 1 in x.rails
    assert Stimulus(netlist, {True: 1, False: 0}).codes == (0, 3)
    assert state.apply_and_settle({True: 0}).transitions == 0


def two_port_fixture():
    """The wire fixture's input port plus a second one, whose rails take
    the net ids that the wire fixture gives its gates."""
    b = NetlistBuilder("two")
    x, y = b.add_input_port("IN"), b.add_input_port("Y")
    b.add_output_port("Z", b.add_gate(GateKind.AND2, (x.rail1, y.rail1)), x.rail0)
    return b.build(), y


def test_a_rejected_stimulus_batch_queues_nothing():
    """Every stimulus is checked before any is queued: a bad one after a good
    one leaves the state as it was, quiescent.  A :class:`Stimulus` built for
    another netlist is checked again, against this one."""
    netlist, x = wire_fixture()
    other, y = two_port_fixture()
    assert y.rail1 == netlist.gates[0].output  # the wire fixture's gate output
    for batch in ({x.rail1: 1, 9999: 0}, Stimulus(other, {x.rail1: 1, y.rail1: 0})):
        state = initialize(netlist)
        values = state.values[:]
        with pytest.raises(StimulusError, match="is not environment-driven"):
            state.apply_and_settle(batch)
        assert state.is_quiescent() and state.values == values
        assert state.apply_and_settle({}).transitions == 0


def test_a_foreign_stimulus_on_shared_input_rails_settles_like_its_mapping():
    netlist, x = wire_fixture()
    other, _ = two_port_fixture()
    reports = [asdict(initialize(netlist).apply_and_settle(batch))
               for batch in ({x.rail1: 1}, Stimulus(other, {x.rail1: 1}))]
    assert reports[0] == reports[1] and reports[0]["transitions"] == 2


def test_joined_stimuli_must_share_a_netlist_and_drive_disjoint_nets():
    netlist, x = wire_fixture()
    other, _ = two_port_fixture()
    a, b = Stimulus(netlist, {x.rail1: 1}), Stimulus(netlist, {x.rail0: 0})
    assert Stimulus.join([b, a]).items() == sorted({x.rail1: 1, x.rail0: 0}.items())
    with pytest.raises(ValueError, match="one net twice"):
        Stimulus.join([a, Stimulus(netlist, {x.rail1: 0})])
    with pytest.raises(ValueError, match="different netlists"):
        Stimulus.join([a, Stimulus(other, {x.rail0: 0})])
    with pytest.raises(ValueError, match="no stimuli"):
        Stimulus.join([])


def test_settle_limit_raises():
    netlist = strong_and2(Protocol.RTZ)
    state = initialize(netlist)
    x, y = netlist.port("X"), netlist.port("Y")
    with pytest.raises(NonQuiescenceError):
        # (0,0) ripples through the C2 and both merge levels: > 1 event
        state.apply_and_settle({x.rail0: 1, y.rail0: 1}, limit=1)


def test_settle_resumes_after_the_limit_trips():
    """The event that trips the limit stays queued, so the next settle picks
    up where the first stopped and ends where an unbounded one does."""
    netlist = strong_and2(Protocol.RTZ)
    x, y, z = netlist.port("X"), netlist.port("Y"), netlist.port("Z")
    stimulus = {x.rail0: 1, y.rail0: 1}
    state = initialize(netlist)
    with pytest.raises(NonQuiescenceError):
        state.apply_and_settle(stimulus, limit=1)
    assert state.apply_and_settle({}).steps > 0
    fresh = initialize(netlist)
    fresh.apply_and_settle(stimulus)
    assert state.is_quiescent()
    assert (state.values[z.rail1], state.values[z.rail0]) == (0, 1)  # data0
    assert (state.values, state.now, state.transitions) == (
        fresh.values, fresh.now, fresh.transitions)


def test_a_stimulus_given_on_resume_commits_ahead_of_the_queued_events():
    """After the limit trips, the queue still holds gate events; a stimulus
    given with the next settle joins that queue at the current time and
    commits first, and time never runs backwards."""
    netlist = strong_and2(Protocol.RTZ)
    x, y = netlist.port("X"), netlist.port("Y")
    state = initialize(netlist)
    with pytest.raises(NonQuiescenceError):
        state.apply_and_settle({x.rail0: 1, y.rail0: 1}, limit=1)
    events = []
    state.trace = lambda t, net, val: events.append((t, net, val))
    now = state.now
    report = state.apply_and_settle({x.rail1: 1})
    assert len(events) > 1 and events[0] == (now, x.rail1, 1)
    assert [t for t, _, _ in events] == sorted(t for t, _, _ in events)
    assert report.elapsed == events[-1][0] - now


def test_delay_models_resolve_per_gate():
    netlist, _ = wire_fixture()
    assert UnitDelay().resolve(netlist) == [1, 1]
    assert TableDelay({"INV": 4}, default=2).resolve(netlist) == [4, 2]
    assert TableDelay({1: 7}, default=1).resolve(netlist) == [1, 7]
    # a gate's own entry wins over its kind's
    assert TableDelay({"AND2": 4, 1: 7, "INV": 3}).resolve(netlist) == [3, 7]
    with pytest.raises(ValueError):
        initialize(netlist, TableDelay({0: 0}, default=1))


def test_delay_tables_reject_delays_below_one_even_unused():
    """A table's every delay and its default must be an int of at least 1,
    whether or not the design has a gate that reads them: a float, a
    string or a bool is refused, not truncated or converted."""
    for table, default in (({"AND2": 0}, 1), ({7: -2}, 1), ({"C2": 2}, 0)):
        with pytest.raises(ValueError, match="gate delays must be >= 1"):
            TableDelay(table, default)
    for table, default, bad in (({"C2": 1.9}, 1, "1.9"), ({"C2": "3"}, 1, "'3'"),
                                ({0: 2}, 2.0, "2.0"), ({"INV": float("nan")}, 1, "nan"),
                                ({"C2": True}, 1, "True"), ({0: 2}, False, "False")):
        with pytest.raises(ValueError, match=f"gate delays must be an int, got {bad}"):
            TableDelay(table, default)
    netlist, _ = wire_fixture()
    table = {"AND2": 2}
    delay = TableDelay(table)
    table["AND2"] = 0  # the model keeps its own copy of the table it judged
    assert delay.resolve(netlist) == [1, 2]
    # an int too large for a float is still an int of at least 1
    assert TableDelay({"C2": 10**400}).default == 1


def test_delay_tables_reject_unknown_keys():
    netlist, _ = wire_fixture()
    with pytest.raises(ValueError, match="AND"):
        TableDelay({"AND": 3})  # the kind is AND2
    with pytest.raises(ValueError, match=r"\[2\]"):
        TableDelay({2: 3}).resolve(netlist)  # two gates: ids 0 and 1
    with pytest.raises(ValueError,
                       match=r"^delay table names gates \[0\], but 'empty' has 0 gates$"):
        TableDelay({0: 3}).resolve(NetlistBuilder("empty").build())
    with pytest.raises(ValueError):
        TableDelay({-1: 3}).resolve(netlist)
    # a key is a kind name or a gate id, an int and no bool: any other is
    # refused as the table is built, not taken for the gate it equals
    for key in (True, False, 2.0, 1.0, None, (1,), b"C2"):
        with pytest.raises(ValueError, match=re.escape(f"got [{key!r}]")):
            TableDelay({key: 5})


def test_random_delays_are_seed_deterministic():
    netlist = strong_and2(Protocol.RTZ)
    a = RandomUniformDelay(1, 16, seed=123).resolve(netlist)
    b = RandomUniformDelay(1, 16, seed=123).resolve(netlist)
    c = RandomUniformDelay(1, 16, seed=124).resolve(netlist)
    assert a == b
    assert a != c
    assert all(1 <= d <= 16 for d in a)
    # bounds must be ints with 1 <= low <= high, judged when the model is built
    for low, high in ((1, 3.5), (1.0, 3), (0, 3), (4, 3), (True, 3), (1, True), ("1", 3)):
        with pytest.raises(ValueError, match=re.escape(f"bad delay range [{low!r}, {high!r}]")):
            RandomUniformDelay(low, high)
    # an unseeded draw would differ from run to run
    for seed in (None, 1.0, True, "3"):
        with pytest.raises(ValueError, match=re.escape(f"delay seed must be an int, got {seed!r}")):
            RandomUniformDelay(1, 16, seed)
    # random.Random seeds with abs(seed): -1 would draw what 1 draws
    with pytest.raises(ValueError, match=re.escape("delay seed must be >= 0, got -1")):
        RandomUniformDelay(1, 16, -1)
    # the bounds are judged before the seed
    with pytest.raises(ValueError, match=re.escape("bad delay range [0, 5]")):
        RandomUniformDelay(0, 5, -3)
    with pytest.raises(ValueError, match=re.escape("non-integer range [0, 1.5]")):
        uniform_draws(random.Random(0), 0, 1.5, 3)


@pytest.mark.parametrize("low, high", [(1, 16), (0, 1), (5, 5), (1, 1000), (0, 2 ** 40)])
def test_uniform_draws_equal_randint_and_leave_the_same_state(low, high):
    for seed in range(200):
        for count in (0, 37):
            ours, theirs = random.Random(seed), random.Random(seed)
            expected = [theirs.randint(low, high) for _ in range(count)]
            assert uniform_draws(ours, low, high, count) == expected, (seed, count)
            assert ours.getstate() == theirs.getstate(), (seed, count)


@pytest.mark.parametrize("low,high", [(1, 0), (5, 2)])
def test_uniform_draws_refuse_an_empty_range_as_randint_does(low, high):
    """An empty range raises before any draw, where a rejection loop would
    never end; with no draw asked for, it returns [] and draws nothing."""
    ours, theirs = random.Random(1), random.Random(1)
    with pytest.raises(ValueError):
        theirs.randint(low, high)
    with pytest.raises(ValueError, match=f"empty range \\[{low}, {high}\\]"):
        uniform_draws(ours, low, high, 1)
    assert uniform_draws(ours, low, high, 0) == []
    assert ours.getstate() == theirs.getstate()


def test_random_delays_are_randint_draws():
    netlist = array_multiplier(MultiplierSpec(2, Protocol.RTZ))
    rng = random.Random(7)
    assert RandomUniformDelay(1, 16, seed=7).resolve(netlist) == [
        rng.randint(1, 16) for _ in netlist.gates]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_simulation_is_deterministic_under_any_seed(seed):
    netlist = strong_and2(Protocol.RTZ)
    runs = []
    for _ in range(2):
        state = initialize(netlist, RandomUniformDelay(1, 9, seed))
        x, y = netlist.port("X"), netlist.port("Y")
        state.apply_and_settle({x.rail1: 1, y.rail1: 1})
        runs.append((state.now, state.transitions, tuple(state.values)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("protocol", list(Protocol))
def test_per_net_transition_parity_over_full_cycle(protocol):
    """A data wave followed by a spacer wave returns every net to reset; a
    binary net is back at its reset value exactly when it toggled an even
    number of times."""
    netlist = strong_and2(protocol)
    state = initialize(netlist)
    x, y = netlist.port("X"), netlist.port("Y")
    active = protocol.active_level
    spacer = protocol.spacer_level
    state.apply_and_settle({x.rail1: active, y.rail1: active})
    state.apply_and_settle({x.rail1: spacer, y.rail1: spacer})
    env = {r for p in netlist.input_ports + netlist.const_ports for r in p.rails}
    for net in range(netlist.net_count):
        expected = spacer if net in env else netlist.net_init[net]
        assert state.values[net] == expected


# ---------------------------------------------------------------------------
# the kept gate codes

def assert_codes_match_values(state):
    """Each gate's kept code equals the one recomputed from ``values``, with
    the pending flag (32) set exactly where its output has an event pending,
    and ``is_quiescent`` agrees with a full ``NEXT_STATE`` scan."""
    v = state.values
    excited = False
    for gid, g in enumerate(state.netlist.gates):
        code = (KIND_CODE[g.kind] << 3 | v[g.inputs[0]] << 2 | v[g.inputs[-1]] << 1
                | v[g.output])
        pending = 32 if state._pending[g.output] >= 0 else 0
        assert state._code[gid] == code | pending, g
        excited |= NEXT_STATE[code] != v[g.output]
    assert state.is_quiescent() == (not excited and all(p < 0 for p in state._pending))


@pytest.mark.parametrize("delays", [UnitDelay(), TableDelay({1: 5}, default=3)])
def test_gate_codes_follow_the_hazard_cancelling_wire(delays):
    netlist, x = wire_fixture()
    state = initialize(netlist, delays)
    assert_codes_match_values(state)
    for value in (1, 0, 1):
        state.apply_and_settle({x.rail1: value})
        assert_codes_match_values(state)
    assert len(state.hazards) == 2  # each rise of IN cancels the AND's pulse


def test_gate_codes_survive_a_tripped_limit_and_a_stimulus_on_resume():
    netlist = strong_and2(Protocol.RTZ)
    x, y = netlist.port("X"), netlist.port("Y")
    state = initialize(netlist)
    with pytest.raises(NonQuiescenceError):
        state.apply_and_settle({x.rail0: 1, y.rail0: 1}, limit=1)
    assert_codes_match_values(state)
    assert not state.is_quiescent()
    state.apply_and_settle({x.rail1: 1})
    assert_codes_match_values(state)
    assert state.is_quiescent()


@pytest.mark.parametrize("protocol", list(Protocol))
def test_gate_codes_follow_random_delays_on_a_multiplier(protocol):
    harness = HandshakeHarness(array_multiplier(MultiplierSpec(3, protocol)), protocol)
    for seed in range(3):
        state = harness.initialize(RandomUniformDelay(1, 16, seed))
        assert_codes_match_values(state)
        for stimulus in _stimuli(harness, _vectors(harness, seed, 4)):
            state.apply_and_settle(stimulus)
            assert_codes_match_values(state)


# ---------------------------------------------------------------------------
# pinned behaviour: SHA-256 digests of complete runs, recorded with the
# kernel that ran heap tuples and per-kind if/elif gate functions, so a kernel
# change that moves one event, hazard or report field shows here

def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _stimuli(harness, vectors):
    """Assignment batches: each vector's data wave then its return wave."""
    protocol = harness.protocol
    spacer = {r: v for p in harness.inputs + harness.consts
              for r, v in zip(p.rails, spacer_rails(protocol))}
    consts = {r: v for p in harness.consts
              for r, v in zip(p.rails, encode(protocol, p.const_value))}
    out = []
    for vec in vectors:
        data = dict(consts)
        for p in harness.inputs:
            data.update(zip(p.rails, encode(protocol, vec[p.name])))
        out += [data, spacer]
    return out


def _kernel_digests(netlist, delays, stimuli):
    state = initialize(netlist, delays)
    trace = []
    state.trace = lambda t, net, val: trace.append((t, net, val))
    reports = [asdict(state.apply_and_settle(s)) for s in stimuli]
    return {"trace": _sha(trace), "hazards": _sha([asdict(h) for h in state.hazards]),
            "reports": _sha(reports), "values": _sha(state.values)}


def _harness_digest(harness, delays, vectors):
    """Full transactions plus one staggered data/return pair per vector, so
    the monitor's completion, commit-time and early-output records are
    pinned too."""
    state = harness.initialize(delays)
    results = [asdict(harness.run_transaction(state, v)) for v in vectors]
    order = [[p.name] for p in reversed(harness.inputs)]
    for v in vectors:
        results.append(asdict(harness.run_phase(state, "data", v, order=order)))
        results.append(asdict(harness.run_phase(state, "return", order=order)))
    return _sha(results)


def _vectors(harness, seed, count):
    rng = random.Random(seed)
    return [{p.name: rng.randint(0, 1) for p in harness.inputs} for _ in range(count)]


def _pinned_case(case):
    if case.startswith("mult4x4_weak_fa"):
        seed = int(case.rsplit("_", 1)[1])
        harness = HandshakeHarness(
            array_multiplier(MultiplierSpec(4, Protocol.RTZ, "weak_fa")), Protocol.RTZ)
        delays = UnitDelay() if "_unit_" in case else RandomUniformDelay(1, 16, seed)
        vectors = _vectors(harness, seed, 6)
    elif case.startswith("dead_end_and2"):
        seed = int(case.rsplit("_", 1)[1])
        harness = HandshakeHarness(dead_end_and2(), Protocol.RTZ)
        delays = RandomUniformDelay(1, 16, seed)
        vectors = _vectors(harness, seed, 8)
    else:
        netlist, x = wire_fixture()
        delays = UnitDelay() if case == "wire_equal" else TableDelay({1: 5}, default=3)
        stimuli = [{x.rail1: 1}, {x.rail1: 0}, {x.rail1: 1}]
        return _kernel_digests(netlist, delays, stimuli)
    out = _kernel_digests(harness.netlist, delays, _stimuli(harness, vectors))
    out["harness"] = _harness_digest(harness, delays, vectors)
    return out


# Cases with a hazard: both wire cases (an inertially cancelled AND pulse).
# Cases with post-completion commits: dead_end_and2 at seeds 3 and 6.  No
# benchmark workload records a hazard, so their goldens miss that path.
# mult4x4_weak_fa_unit_1 runs unit delays, so the per-step lists, over a real
# design with staggered arrival orders; its digests were recorded with the
# heap kernel.
PINNED = {
    "mult4x4_weak_fa_1": {"trace": "fec70730520d6a05", "hazards": "4f53cda18c2baa0c", "reports": "fbed05de53c02b11",
                          "values": "efb609674febaa28", "harness": "c49a0ab8e9822222"},
    "mult4x4_weak_fa_2": {"trace": "105c4aaa6994534d", "hazards": "4f53cda18c2baa0c", "reports": "b7cdf63cd75084d7",
                          "values": "efb609674febaa28", "harness": "2117cd686e6e0262"},
    "mult4x4_weak_fa_3": {"trace": "a1399f501692fb8e", "hazards": "4f53cda18c2baa0c", "reports": "cec6097bed3efb6a",
                          "values": "efb609674febaa28", "harness": "50eafa4ba11c5d47"},
    "mult4x4_weak_fa_unit_1": {"trace": "8d5612ef6c837910", "hazards": "4f53cda18c2baa0c",
                               "reports": "4a669f3bafe0323c", "values": "efb609674febaa28",
                               "harness": "2644c85db9d774e1"},
    "wire_equal": {"trace": "d2dbc6abc044c641", "hazards": "08cd552b6ef993e5", "reports": "67d09d3e13219195",
                   "values": "390401748a789fa6"},
    "wire_and_slow": {"trace": "fe859993d417bd32", "hazards": "886fca5870e4c243", "reports": "961394578181493a",
                      "values": "390401748a789fa6"},
    "dead_end_and2_3": {"trace": "cbba3bfe2dd2602d", "hazards": "4f53cda18c2baa0c", "reports": "c4827c4f05380ca8",
                        "values": "c6f499c60f94f04d", "harness": "5376e2451804184f"},
    "dead_end_and2_6": {"trace": "b07268f538afa0aa", "hazards": "4f53cda18c2baa0c", "reports": "ce6004667b25586d",
                        "values": "c6f499c60f94f04d", "harness": "b557b3cade13eb4d"},
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_traces_hazards_and_reports(case):
    assert _pinned_case(case) == PINNED[case]


# ---------------------------------------------------------------------------
# the reference kernel: random netlists settled by SimState and by the naive
# kernel in reference_kernel.py must agree event for event

@st.composite
def kernel_cases(draw):
    """A random RTZ netlist of 2-12 gates over 1-3 input ports, maybe closed
    through a C2 feedback loop, whose reset state is quiescent, and the
    settles to run on it: each a stimulus batch and a limit (small ones
    trip, and the next settle resumes)."""
    b = NetlistBuilder("rand")
    init: dict[int, int] = {}
    rails = [r for i in range(draw(st.integers(1, 3))) for r in b.add_input_port(f"I{i}").rails]
    init.update((r, 0) for r in rails)
    loop = b.new_net() if draw(st.booleans()) else None  # driven last, by a C2
    if loop is not None:
        init[loop] = 0
    for _ in range(draw(st.integers(2, 12))):
        kind = draw(st.sampled_from(list(GateKind)))
        a = draw(st.sampled_from(sorted(init)))
        inputs = (a,) if kind is GateKind.INV else (
            a, a if draw(st.integers(0, 3)) == 0 else draw(st.sampled_from(sorted(init))))
        code = KIND_CODE[kind] << 3 | init[inputs[0]] << 2 | init[inputs[-1]] << 1
        out = b.add_gate(kind, inputs, init=NEXT_STATE[code])
        init[out] = NEXT_STATE[code]
    if loop is not None:
        # C2(a, m) with m downstream of the loop: a 1 on both would excite
        # the C2 at reset, so a then reads an input rail, which resets to 0
        m = draw(st.sampled_from(sorted(init)))
        a = draw(st.sampled_from(sorted(init) if init[m] == 0 else rails))
        b.wire_gate(GateKind.C2, (a, m), loop, init=0)
    netlist = b.build_unchecked()
    settles = draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(rails), st.integers(0, 1)),
        st.one_of(st.integers(0, 4), st.just(1000))), min_size=1, max_size=5))
    return netlist, settles


def _run_against_reference(netlist, delays, settles):
    state = initialize(netlist, delays)
    ref = ReferenceKernel(netlist, delays.resolve(netlist))
    trace = []
    state.trace = lambda t, net, val: trace.append((t, net, val))
    for assignments, limit in settles:
        outcomes = []
        for settle in (state.apply_and_settle, ref.settle):
            try:
                outcomes.append(asdict(settle(assignments, limit)))
            except NonQuiescenceError:
                outcomes.append("no quiescence")
        assert outcomes[0] == outcomes[1]
        assert (trace, state.hazards, state.values, state.now) == (
            ref.trace, ref.hazards, ref.values, ref.now)


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.data())
def test_kernel_matches_the_reference_kernel(case, data):
    """Unit delays run on the per-step lists, delays of 1-3 per gate on the
    heap; both must match the reference in traces, hazards, values, time
    and every report field, through tripped limits and resumes."""
    netlist, settles = case
    table = {gid: data.draw(st.integers(1, 3)) for gid in range(len(netlist.gates))}
    for delays in (UnitDelay(), TableDelay(table)):
        _run_against_reference(netlist, delays, settles)


@settings(max_examples=60, deadline=None)
@given(kernel_cases(), st.data())
def test_a_mapping_and_its_stimulus_settle_identically(case, data):
    """A settle checks a mapping into a :class:`Stimulus` and takes one
    built for its netlist as it is: the two give the same reports, trace,
    hazards, values and time, through tripped limits and resumes."""
    netlist, settles = case
    table = {gid: data.draw(st.integers(1, 3)) for gid in range(len(netlist.gates))}
    for delays in (UnitDelay(), TableDelay(table)):
        runs = []
        for form in (dict, lambda assignments: Stimulus(netlist, assignments)):
            state = initialize(netlist, delays)
            trace = []
            state.trace = lambda t, net, val: trace.append((t, net, val))
            outcomes = []
            for assignments, limit in settles:
                try:
                    outcomes.append(asdict(state.apply_and_settle(form(assignments), limit)))
                except NonQuiescenceError:
                    outcomes.append("no quiescence")
            runs.append((outcomes, trace, state.hazards, state.values, state.now))
        assert runs[0] == runs[1]


# one step: the input rails to flip (0 is X, 1 is Y) and the settle's limit
ONE_GATE_STEPS = [(flip, limit) for flip in ((0,), (1,), (0, 1)) for limit in (0, 1000)]


@pytest.mark.parametrize("kind", list(GateKind))
@pytest.mark.parametrize("delays", [UnitDelay(), TableDelay({}, default=2)])
def test_every_reachable_gate_code_matches_the_reference_kernel(kind, delays):
    """One gate over two input rails, or over one rail read twice, driven
    through every sequence of three steps, each flipping one rail or both
    and settling in full or stopping at a zero limit, so that the next flip
    lands while the gate's event is pending.  That visits the gate in every
    state its code can hold, pending flag included, through every mask its
    inputs can flip; random netlists reach some of those only by chance."""
    for wiring in [(0,)] if kind is GateKind.INV else [(0, 1), (0, 0)]:
        b = NetlistBuilder("one")
        rails = [b.add_input_port(name).rail1 for name in ("X", "Y")]
        b.add_gate(kind, [rails[i] for i in wiring])
        netlist = b.build()
        for steps in itertools.product(ONE_GATE_STEPS, repeat=3):
            level = [0, 0]  # both rails reset to 0 under RTZ
            settles = []
            for flip, limit in steps:
                for i in flip:
                    level[i] ^= 1
                settles.append(({rails[i]: level[i] for i in flip}, limit))
            _run_against_reference(netlist, delays, settles)


def test_a_cancelled_entry_at_t_does_not_commit_its_rescheduled_event():
    """Under unit delays, OR gate o is excited to 1 at t=1 by the pulse on
    ``a``, disabled at t=2 when the pulse ends, and excited to 1 again at
    t=2 by ``b``, which has a higher net id than ``a``: the stale event due
    at t=2 and the new one due at t=3 carry the same net and value, and only
    the new one may commit."""
    b = NetlistBuilder("parity")
    x = b.add_input_port("X")
    a = b.new_net()
    n = b.add_gate(GateKind.INV, (x.rail1,))
    b.wire_gate(GateKind.AND2, (x.rail1, n), a, init=0)  # pulses 1 at t=1, 0 at t=2
    c = b.add_gate(GateKind.OR2, (x.rail1, x.rail1))
    rise = b.add_gate(GateKind.OR2, (c, c))  # rises at t=2
    o = b.add_gate(GateKind.OR2, (a, rise))
    netlist = b.build()
    state = initialize(netlist)
    events = []
    state.trace = lambda t, net, val: events.append((t, net, val))
    report = state.apply_and_settle({x.rail1: 1})
    assert [e for e in events if e[1] == o] == [(3, o, 1)]
    assert report.hazards == [HazardRecord(2, 4, o, 1, 0)]
    assert (report.elapsed, state.now, state.values[o]) == (3, 3, 1)


def test_a_step_of_superseded_entries_does_not_move_the_clock():
    """Under unit delays, X rising and Y falling at once excite the AND of
    the two and disable it within the same step: its event due a step later
    is superseded, nothing commits then, and the settle ends at the last
    commit."""
    b = NetlistBuilder("cancel")
    x, y = b.add_input_port("X"), b.add_input_port("Y")
    z = b.add_gate(GateKind.AND2, (x.rail1, y.rail1))
    state = initialize(b.build())
    state.apply_and_settle({y.rail1: 1})  # the AND stays low
    report = state.apply_and_settle({x.rail1: 1, y.rail1: 0})
    assert (report.elapsed, report.transitions, state.now) == (0, 2, 0)
    assert report.hazards == [HazardRecord(0, 0, z, 1, 0)]


def test_a_trip_pours_an_unsorted_next_step_into_the_heap():
    """Under unit delays, the reader of the lower stimulus rail drives a
    higher net id than the readers of the higher rail, and the second layer
    is crossed the same way, three readers to a net, so a step's next list
    comes out of commit order unsorted.  A limit of 2 trips on the last
    first-layer net, which nobody reads, with six next-step entries behind
    three current ones, in an order that pops wrong unless the heap is
    rebuilt.  A limit that trips anywhere, then a resume with no stimulus,
    must end where one unbounded settle does, event for event."""
    b = NetlistBuilder("crossed")
    x, y = b.add_input_port("X"), b.add_input_port("Y")
    layer1 = [b.new_net() for _ in range(3)]
    layer2 = [b.new_net() for _ in range(6)]
    readers = [(x.rail1, layer1[2:]), (y.rail1, layer1[:2]),
               (layer1[0], layer2[3:]), (layer1[1], layer2[:3])]
    for a, outs in readers:
        for out in outs:
            b.wire_gate(GateKind.OR2, (a, a), out, init=0)
    netlist = b.build()
    assert x.rail1 < y.rail1 < layer1[0] and layer1[-1] < layer2[0]
    stimulus = {x.rail1: 1, y.rail1: 1}

    def run(*limits):
        state = initialize(netlist)
        trace = []
        state.trace = lambda t, net, val: trace.append((t, net, val))
        for assignments, limit in zip((stimulus, {}), limits):
            try:
                state.apply_and_settle(assignments, limit)
            except NonQuiescenceError:
                pass
        return trace, state.hazards, state.values, state.now, state.transitions

    whole = run(None)
    assert len(whole[0]) == 2 + len(layer1) + len(layer2)
    for limit in range(len(layer1) + len(layer2)):
        assert run(limit, None) == whole, limit
