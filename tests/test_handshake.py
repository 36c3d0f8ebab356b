"""Completion detection and closed-loop four-phase transactions."""

import itertools
import random

import pytest

from qdilab.analysis import (classify_indication, exhaustive_verify, measure_latencies,
                             orphan_scan)
from qdilab.components import COMPONENTS, ripple_carry_adder, strong_and2
from qdilab.encoding import Protocol, encode, spacer_rails
from qdilab.handshake import (EarlyRecord, HandshakeHarness, TransactionError,
                              build_completion_detector, decode)
from qdilab.multiplier import MultiplierSpec, array_multiplier, input_vector, product_oracle
from qdilab.netlist import GateKind, NetlistBuilder, ValidationError, structurally_equal, validate
from qdilab.sim import InitializationError, RandomUniformDelay, Stimulus, TableDelay, initialize

from test_analysis import dead_end_and2, glitch_design


# ---------------------------------------------------------------------------
# completion detector structure and semantics

@pytest.mark.parametrize("protocol,pair_kind", [(Protocol.RTZ, GateKind.OR2),
                                                (Protocol.RTO, GateKind.AND2)])
def test_detector_gate_budget(protocol, pair_kind):
    b = NetlistBuilder("cd8")
    s = protocol.spacer_level
    ports = [b.add_input_port(f"I{i}", init=s) for i in range(8)]
    before = len(b._gates)
    build_completion_detector(b, ports, protocol)
    kinds = [g.kind for g in b._gates[before:]]
    assert kinds.count(pair_kind) == 8
    assert kinds.count(GateKind.C2) == 7
    assert kinds.count(GateKind.INV) == 1
    assert len(kinds) == 16


def test_harness_rejects_an_invalid_base_with_its_findings():
    b = NetlistBuilder("bad")
    x, y = b.add_input_port("X"), b.add_input_port("Y")
    out = b.add_gate(GateKind.AND2, (x.rail1, y.rail1))
    b.wire_gate(GateKind.OR2, (x.rail0, y.rail0), out, init=0)  # a second driver
    b.add_output_port("Z", out, x.rail0)
    base = b.build_unchecked()
    with pytest.raises(ValidationError) as exc:
        HandshakeHarness(base, Protocol.RTZ)
    assert exc.value.findings == validate(base)
    assert [f.code for f in exc.value.findings] == ["multi-driver"]


def other(protocol):
    return Protocol.RTO if protocol is Protocol.RTZ else Protocol.RTZ


@pytest.mark.parametrize("protocol", list(Protocol))
def test_a_design_built_for_the_other_protocol_is_refused(protocol):
    """A design's input rails rest at the spacer of the protocol it was built
    for; the harness names the design, the protocol and those inputs."""
    wrong = other(protocol)
    with pytest.raises(InitializationError, match=(
            rf"^design 'strong_and2_{protocol.value}' is not built for {wrong.value}: input ports "
            rf"\['X', 'Y'\] do not rest at its spacer level {wrong.spacer_level}$")):
        HandshakeHarness(strong_and2(protocol), wrong)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_a_multiplier_is_refused_under_the_other_protocol(protocol):
    """Every analysis builds its harness first, so each raises before it
    simulates anything; the constant carry ports are named with the data
    inputs."""
    netlist = array_multiplier(MultiplierSpec(2, protocol))
    wrong = other(protocol)
    oracle = product_oracle(2)
    for run in (lambda: measure_latencies(netlist, wrong),
                lambda: classify_indication(netlist, wrong),
                lambda: exhaustive_verify(netlist, wrong, oracle),
                lambda: orphan_scan(netlist, wrong, oracle, trials=1)):
        with pytest.raises(InitializationError, match=(
                rf"^design 'mult2x2_weak_fa_{protocol.value}' is not built for {wrong.value}: "
                rf"input ports \['A0', 'A1', 'B0', 'B1', 'CC0', 'CC1'\] do not rest at "
                rf"its spacer level {wrong.spacer_level}$")):
            run()


def test_a_design_whose_inputs_rest_apart_is_refused_under_both_protocols():
    """A valid design whose data input rests at 0 and whose unread constant
    rests at 1 is built for neither protocol; the harness names the input
    off each one's spacer, constants included."""
    b = NetlistBuilder("apart")
    a = b.add_input_port("A", init=0)
    b.add_const_port("B", 1, init=1)
    b.add_output_port("Z", *a.rails)
    base = b.build()
    for protocol, off in ((Protocol.RTZ, "B"), (Protocol.RTO, "A")):
        with pytest.raises(InitializationError, match=rf"input ports \['{off}'\]"):
            HandshakeHarness(base, protocol)


def test_a_generated_design_and_its_harness_skip_validate(monkeypatch):
    """A multiplier assembled from validated cells, and the closed loop its
    harness adds to it, carry their builders' vouch: neither runs
    ``validate``, and both are what ``validate`` accepts."""
    calls = []
    monkeypatch.setattr("qdilab.netlist.validate", lambda n: calls.append(n.name) or validate(n))
    netlist = array_multiplier(MultiplierSpec(2, Protocol.RTZ))
    harness = HandshakeHarness(netlist, Protocol.RTZ)
    measure_latencies(netlist, Protocol.RTZ)
    assert calls == []
    assert not netlist.validation and not harness.netlist.validation
    assert not validate(netlist) and not validate(harness.netlist)


def count_stimulus_checks(monkeypatch) -> list[int]:
    """One entry per :class:`Stimulus` built by checking a mapping."""
    checks: list[int] = []
    check = Stimulus.__init__

    def counting(self, netlist, assignments):
        checks.append(1)
        check(self, netlist, assignments)
    monkeypatch.setattr(Stimulus, "__init__", counting)
    return checks


@pytest.mark.parametrize("run", ["classify", "verify"])
def test_each_harness_stimulus_is_checked_once(monkeypatch, run):
    """The harness checks its stimuli when it is built; the settles of a
    classification (38,400 on rca2_weak) and the per-vector joins of a
    verify check none again."""
    checks = count_stimulus_checks(monkeypatch)
    if run == "classify":
        netlist, protocol = ripple_carry_adder(Protocol.RTO, 2, "weak_fa"), Protocol.RTO
    else:
        netlist, protocol = array_multiplier(MultiplierSpec(2, Protocol.RTZ)), Protocol.RTZ
    HandshakeHarness(netlist, protocol)
    built = len(checks)
    assert built > 0
    if run == "classify":
        assert classify_indication(netlist, protocol, mode="exhaustive").scenarios == 3840
    else:
        assert exhaustive_verify(netlist, protocol, product_oracle(2)).ok
    assert len(checks) == 2 * built


def test_detector_rejects_empty():
    message = "^completion detector needs at least one port$"
    with pytest.raises(ValueError, match=message):
        build_completion_detector(NetlistBuilder("x"), [], Protocol.RTZ)
    # a harness over a design without outputs is refused by its detector,
    # after the protocol check
    b = NetlistBuilder("mute")
    b.add_input_port("A")
    base = b.build()
    with pytest.raises(InitializationError):
        HandshakeHarness(base, Protocol.RTO)
    with pytest.raises(ValueError, match=message):
        HandshakeHarness(base, Protocol.RTZ)


def detector_fixture(protocol, k):
    b = NetlistBuilder(f"cd{k}_{protocol.value}")
    s = protocol.spacer_level
    ports = [b.add_input_port(f"I{i}", init=s) for i in range(k)]
    ackout, ackin = build_completion_detector(b, ports, protocol)
    b.add_output_port("ACK", ackout, ackin)
    return b.build(), ports, ackout


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_detector_asserts_iff_all_pairs_complete(protocol, k):
    """From reset, ACKOUT reaches its asserted level exactly when every
    monitored pair has left the spacer, and de-asserts exactly when every
    pair has returned."""
    netlist, ports, ackout = detector_fixture(protocol, k)
    asserted = 1 if protocol is Protocol.RTZ else 0
    idle = asserted ^ 1
    for bits in itertools.product((0, 1), repeat=k):
        for present in itertools.chain.from_iterable(
                itertools.combinations(range(k), r) for r in range(k + 1)):
            state = initialize(netlist)
            assert state.values[ackout] == idle
            drive = {}
            for i in present:
                r1, r0 = encode(protocol, bits[i])
                drive[ports[i].rail1] = r1
                drive[ports[i].rail0] = r0
            state.apply_and_settle(drive)
            complete = len(present) == k
            assert (state.values[ackout] == asserted) == complete
            if not complete:
                continue
            # partial return keeps it asserted; full return releases it
            sp = spacer_rails(protocol)
            if k > 1:
                state.apply_and_settle({ports[0].rail1: sp[0],
                                        ports[0].rail0: sp[1]})
                assert state.values[ackout] == asserted
            state.apply_and_settle({p.rail1: sp[0] for p in ports}
                                   | {p.rail0: sp[1] for p in ports})
            assert state.values[ackout] == idle


# ---------------------------------------------------------------------------
# closed-loop transactions

@pytest.mark.parametrize("protocol", list(Protocol))
def test_transaction_latencies_frozen(protocol):
    """Unit-delay landmarks for the indicating AND: the (1,1) codeword
    completes through one C2 level, (0,0) through the detector-side merge
    pair, and mixed codewords through the full three-level path."""
    harness = HandshakeHarness(strong_and2(protocol), protocol)
    state = harness.initialize()
    expected_fl = {(1, 1): 1, (1, 0): 3, (0, 1): 3, (0, 0): 2}
    for (x, y), fl in expected_fl.items():
        res = harness.run_transaction(state, {"X": x, "Y": y})
        assert res.outputs == {"Z": x & y}
        assert res.metrics.forward_latency == fl
        assert res.metrics.reverse_latency == fl
        assert res.metrics.cycle_time == 2 * fl
        assert res.metrics.transitions == res.data_phase.transitions \
            + res.return_phase.transitions


@pytest.mark.parametrize("protocol", list(Protocol))
def test_acknowledge_levels_track_phases(protocol):
    harness = HandshakeHarness(strong_and2(protocol), protocol)
    state = harness.initialize()
    data_level = 1 if protocol is Protocol.RTZ else 0
    assert state.values[harness.ackout] == data_level ^ 1
    harness.run_phase(state, "data", {"X": 1, "Y": 0})
    assert state.values[harness.ackout] == data_level
    assert harness.decode_outputs(state) == {"Z": 0}
    harness.run_phase(state, "return")
    assert state.values[harness.ackout] == data_level ^ 1
    z = harness.outputs[0]
    assert (state.values[z.rail1], state.values[z.rail0]) == spacer_rails(protocol)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_run_sequence_reuses_the_same_state(protocol):
    harness = HandshakeHarness(strong_and2(protocol), protocol)
    state = harness.initialize()
    vectors = [{"X": x, "Y": y} for x in (0, 1) for y in (0, 1)] * 2
    results = [harness.run_transaction(state, v) for v in vectors]
    assert [r.outputs["Z"] for r in results] == [v["X"] & v["Y"] for v in vectors]
    assert all(r.data_phase.datapath_quiet_at_completion for r in results)
    assert all(r.return_phase.datapath_quiet_at_completion for r in results)


def test_transaction_requires_spacer_start():
    harness = HandshakeHarness(strong_and2(Protocol.RTZ), Protocol.RTZ)
    state = harness.initialize()
    harness.run_phase(state, "data", {"X": 1, "Y": 1})
    with pytest.raises(TransactionError):
        harness.run_transaction(state, {"X": 0, "Y": 0})


def test_a_harness_refuses_a_state_it_did_not_build():
    """A state over the bare design, over this harness's own netlist but
    built by ``sim.initialize``, or over a second harness's netlist
    (structurally equal to this one's), is refused before any settle or
    output read, naming the netlist it simulates: a harness runs only the
    states its own ``initialize`` built."""
    base = array_multiplier(MultiplierSpec(2, Protocol.RTZ))
    harness = HandshakeHarness(base, Protocol.RTZ)
    twin = HandshakeHarness(base, Protocol.RTZ)
    assert twin.netlist is not harness.netlist
    assert structurally_equal(twin.netlist, harness.netlist)
    message = r"^state was not initialized by this harness \(it simulates '{}'\)$"
    for make, name in ((lambda: initialize(base), "mult2x2_weak_fa_rtz"),
                       (lambda: initialize(harness.netlist), r"mult2x2_weak_fa_rtz\+cd"),
                       (twin.initialize, r"mult2x2_weak_fa_rtz\+cd")):
        for run in (lambda s: harness.run_transaction(s, input_vector(2, 3, 2)),
                    lambda s: harness.run_phase(s, "data", input_vector(2, 3, 2)),
                    lambda s: harness.run_phase(s, "return"),
                    lambda s: harness.decode_outputs(s)):
            state = make()
            before = list(state.values)
            with pytest.raises(TransactionError, match=message.format(name)):
                run(state)
            assert state.values == before and state.now == state.transitions == 0
    # the netlist is judged before the state's inputs are
    state = initialize(base)
    state.apply_and_settle({base.port("A0").rail1: 1})
    with pytest.raises(TransactionError, match=message.format("mult2x2_weak_fa_rtz")):
        harness.run_transaction(state, input_vector(2, 3, 2))
    # each harness runs the states it built
    for h in (harness, twin):
        assert h.run_transaction(h.initialize(), input_vector(2, 3, 2)).outputs \
            == product_oracle(2)(input_vector(2, 3, 2))


def test_a_datapath_hazard_fails_the_phase():
    """With the AND slower than the inverter, A = 1 excites the AND and the
    inverter then disables it: a hazard inside the design raises."""
    netlist = glitch_design()
    harness = HandshakeHarness(netlist, Protocol.RTZ)
    state = harness.initialize(TableDelay({"AND2": 3}))
    with pytest.raises(TransactionError,
                       match=r"^datapath hazard: t=1: pending 3->1 on gate 1 disabled"):
        harness.run_phase(state, "data", {"A": 1})
    assert state.hazards and state.hazards[0].net < harness.datapath_nets


def test_decode_outputs_rejects_spacer():
    """An output that holds no data is named with its pair state, under
    either protocol: the spacer at reset, and an illegal pair when both
    rails are active."""
    for protocol in Protocol:
        harness = HandshakeHarness(strong_and2(protocol), protocol)
        state = harness.initialize()
        with pytest.raises(TransactionError, match=r"^output Z is spacer, not data$"):
            harness.decode_outputs(state)
        z = harness.outputs[0]
        state.values[z.rail1] = state.values[z.rail0] = protocol.active_level
        with pytest.raises(TransactionError, match=r"^output Z is illegal, not data$"):
            harness.decode_outputs(state)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_decode_reads_rails_through_the_spacer_level(protocol):
    s = protocol.spacer_level
    states = {(r1, r0): decode(protocol, r1, r0) for r1 in (0, 1) for r0 in (0, 1)}
    assert states == {(s, s): "spacer", encode(protocol, 0): "data0",
                      encode(protocol, 1): "data1", (s ^ 1, s ^ 1): "illegal"}


def test_data_phase_requires_all_inputs():
    harness = HandshakeHarness(strong_and2(Protocol.RTZ), Protocol.RTZ)
    state = harness.initialize()
    with pytest.raises(TransactionError):
        harness.run_phase(state, "data", {"X": 1})
    with pytest.raises(TransactionError):
        harness.run_phase(state, "data", None)
    with pytest.raises(TransactionError, match=r"missing values for inputs \['Y'\]"):
        harness.run_phase(state, "data", {"X": 1.0})  # reported before the bad bit
    with pytest.raises(ValueError, match=r"^input X: bit must be 0 or 1, got 2$"):
        harness.run_phase(state, "data", {"Y": 3, "X": 2})  # the first bad bit in input order


def test_a_phase_refuses_values_it_does_not_read():
    """A return phase takes no values, and a data phase no value for what is
    not an input (a constant port included); both raise before any rail
    moves.  Missing inputs are named before unknown names, and unknown
    names before a bad bit."""
    harness = HandshakeHarness(strong_and2(Protocol.RTZ), Protocol.RTZ)
    state = harness.initialize()
    before = list(state.values)
    with pytest.raises(TransactionError, match=r"^return phase reads no input values, "
                                               r"got \{'X': 0, 'junk': 5\}$"):
        harness.run_phase(state, "return", {"X": 0, "junk": 5})
    for run in (lambda v: harness.run_transaction(state, v),
                lambda v: harness.run_phase(state, "data", v),
                lambda v: harness.run_phase(state, "data", v, order=[["X", "Y"]])):
        with pytest.raises(TransactionError, match=r"^values for unknown inputs \['Q'\]$"):
            run({"X": 1, "Y": 1, "Q": 7})
        with pytest.raises(TransactionError, match=r"^values for unknown inputs \['Q'\]$"):
            run({"X": 1, "Y": 2.5, "Q": 7})  # before the bad bit
        with pytest.raises(TransactionError, match=r"^missing values for inputs \['Y'\]$"):
            run({"X": 1, "Q": 7})
    assert state.values == before and state.now == 0
    mult = HandshakeHarness(array_multiplier(MultiplierSpec(2, Protocol.RTZ)), Protocol.RTZ)
    assert [p.name for p in mult.consts] == ["CC0", "CC1"]
    with pytest.raises(TransactionError, match=r"^values for unknown inputs \['CC0'\]$"):
        mult.run_transaction(mult.initialize(), {**input_vector(2, 3, 2), "CC0": 0})


def test_a_bool_data_value_is_the_bit_it_equals():
    harness = HandshakeHarness(strong_and2(Protocol.RTZ), Protocol.RTZ)
    runs = [harness.run_transaction(harness.initialize(), values)
            for values in ({"X": True, "Y": False}, {"X": 1, "Y": 0})]
    assert runs[0] == runs[1] and runs[0].outputs == {"Z": 0}


def test_staggered_order_reports_early_movement():
    """Driving one operand of the weak-carry adder early moves a carry
    output before the final input arrives; the phase report captures it."""
    from qdilab.components import weak_full_adder
    harness = HandshakeHarness(weak_full_adder(Protocol.RTZ), Protocol.RTZ)
    state = harness.initialize()
    report = harness.run_phase(state, "data", {"A": 0, "B": 0, "Cin": 0},
                               order=[["A"], ["B"], ["Cin"]])
    moved = {name for rec in report.early for name in rec.moved}
    assert "Cout" in moved
    assert not any(rec.all_complete for rec in report.early)
    harness.run_phase(state, "return", order=[["A"], ["B"], ["Cin"]])
    out = harness.outputs[0]
    assert (state.values[out.rail1], state.values[out.rail0]) == spacer_rails(Protocol.RTZ)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_illegal_codeword_on_a_shared_rail_is_caught(protocol):
    """X.rail1 feeds both Z and W; X = Y = 1 makes Z illegal on the event
    that makes W data, and every port on that rail is checked."""
    b = NetlistBuilder("shared_rail")
    y = b.add_input_port("Y", init=protocol.spacer_level)
    x = b.add_input_port("X", init=protocol.spacer_level)
    b.add_output_port("Z", x.rail1, y.rail1)
    b.add_output_port("W", x.rail1, x.rail0)
    harness = HandshakeHarness(b.build(), protocol)
    state = harness.initialize()
    with pytest.raises(TransactionError, match="output Z hit an illegal codeword"):
        harness.run_phase(state, "data", {"X": 1, "Y": 1})


@pytest.mark.parametrize("bit", [2, -1, None, 1.0])
def test_a_data_value_that_is_not_a_bit_is_rejected(bit):
    """A value outside {0, 1} raises before any rail moves."""
    harness = HandshakeHarness(strong_and2(Protocol.RTZ), Protocol.RTZ)
    state = harness.initialize()
    before = list(state.values)
    with pytest.raises(ValueError, match="input Y: bit must be 0 or 1"):
        harness.run_phase(state, "data", {"X": 1, "Y": bit})
    assert state.values == before and state.now == 0


def test_an_unknown_phase_is_rejected():
    harness = HandshakeHarness(strong_and2(Protocol.RTZ), Protocol.RTZ)
    state = harness.initialize()
    with pytest.raises(ValueError, match="unknown phase 'bogus'"):
        harness.run_phase(state, "bogus")


@pytest.mark.parametrize("order,message", [
    ([["X"], ["X"]], "arrival order repeats input 'X'"),
    ([["X"], ["Q"]], "arrival order names unknown input 'Q'"),
    ([[], ["X"], ["Y"]], "arrival order has an empty group"),
    ([["X"]], r"arrival order misses inputs \['Y'\]"),
])
def test_a_bad_arrival_order_is_rejected(order, message):
    """An order that names an input twice, names no input of the design,
    has an empty group or leaves an input out raises before any rail moves."""
    harness = HandshakeHarness(strong_and2(Protocol.RTZ), Protocol.RTZ)
    state = harness.initialize()
    before = list(state.values)
    with pytest.raises(TransactionError, match=message):
        harness.run_phase(state, "data", {"X": 1, "Y": 0}, order=order)
    assert state.values == before and state.now == 0


def reference_early(harness, state, phase, values, order):
    """Settle ``order``'s stimulus groups on ``state`` one by one and, after
    each group but the last, record every output port whose rails differ
    from their phase-start values, scanning all of them every time."""
    protocol = harness.protocol
    spacer = spacer_rails(protocol)

    def drive(ports, bits):
        words = [spacer] * len(ports) if phase == "return" else \
            [encode(protocol, bit) for bit in bits]
        return {r: v for p, word in zip(ports, words) for r, v in zip(p.rails, word)}

    const = drive(harness.consts, [p.const_value for p in harness.consts])
    groups = [const] if const else []
    inputs = {p.name: p for p in harness.inputs}
    for names in order:
        groups.append(drive([inputs[n] for n in names], [(values or {}).get(n) for n in names]))
    targets = {encode(protocol, 0), encode(protocol, 1)} if phase == "data" else {spacer}
    start = list(state.values)
    early = []
    for gi, group in enumerate(groups):
        state.apply_and_settle(group)
        if gi < len(groups) - 1:
            now = state.values
            moved = tuple(p.name for p in harness.outputs
                          if any(now[r] != start[r] for r in p.rails))
            if moved:
                complete = all((now[p.rail1], now[p.rail0]) in targets for p in harness.outputs)
                early.append(EarlyRecord(gi, moved, complete))
    return early


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_early_records_match_a_full_scan(name, protocol):
    """``run_phase`` scans for early outputs only once an output rail has
    moved in the phase; its records equal a scan after every group, for
    every codeword and every arrival order (hold-back orders past three
    inputs), in both phases."""
    harness = HandshakeHarness(COMPONENTS[name](protocol), protocol)
    names = [p.name for p in harness.inputs]
    if len(names) <= 3:
        orders = [[[n] for n in perm] for perm in itertools.permutations(names)]
    else:
        orders = [[[m for m in names if m != h], [h]] for h in names]
    state, ref = harness.initialize(), harness.initialize()
    records = 0
    for bits in itertools.product((0, 1), repeat=len(names)):
        values = dict(zip(names, bits))
        for order in orders:
            for phase, vals in (("data", values), ("return", None)):
                report = harness.run_phase(state, phase, vals, order=order)
                assert report.early == reference_early(harness, ref, phase, vals, order)
                assert state.values == ref.values
                records += len(report.early)
    # the two strongly indicating blocks never move an output early
    assert (records > 0) == (name not in ("strong_and2", "dims_fa"))


# ---------------------------------------------------------------------------
# the last datapath commit

@pytest.mark.parametrize("design,seeds", [
    ("dead_end_and2", (3, 6)),  # both seeds commit past completion
    ("mult3x3_weak_fa", (1, 2)),
])
def test_last_datapath_commit_is_the_latest_traced_datapath_event(design, seeds):
    """Each phase's ``last_datapath_commit`` equals the time of the latest
    event the trace saw on a net below ``datapath_nets`` in that phase, or
    the phase start when there was none; staggered phases included."""
    base = dead_end_and2() if design == "dead_end_and2" else \
        array_multiplier(MultiplierSpec(3, Protocol.RTZ, "weak_fa"))
    harness = HandshakeHarness(base, Protocol.RTZ)
    order = [[p.name] for p in reversed(harness.inputs)]
    late = 0
    for seed in seeds:
        rng = random.Random(seed)
        state = harness.initialize(RandomUniformDelay(1, 16, seed))
        events = []
        state.trace = lambda t, net, val: events.append((t, net))
        for _ in range(8):
            vec = {p.name: rng.randint(0, 1) for p in harness.inputs}
            for phase, values, arrival in (("data", vec, None), ("return", None, None),
                                           ("data", vec, order), ("return", None, order)):
                t0, i0 = state.now, len(events)
                report = harness.run_phase(state, phase, values, order=arrival)
                moved = [t for t, net in events[i0:] if net < harness.datapath_nets]
                assert report.last_datapath_commit == (moved[-1] if moved else t0)
                late += not report.datapath_quiet_at_completion
    assert (late > 0) == (design == "dead_end_and2")

