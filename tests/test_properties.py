"""Properties every design and delay model must keep: protocol duality (an
RTO netlist is its RTZ twin complemented), delay scaling (multiplying
every gate delay by k multiplies every event time by k), and a completed
phase leaving the acknowledge at its phase's level."""

from dataclasses import asdict, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from qdilab.analysis import classify_indication, orphan_scan
from qdilab.components import COMPONENT_ORACLES, COMPONENTS, FA_VARIANTS
from qdilab.encoding import Protocol
from qdilab.handshake import HandshakeHarness
from qdilab.multiplier import MultiplierSpec, array_multiplier, product_oracle
from qdilab.netlist import GateKind
from qdilab.sim import RandomUniformDelay, TableDelay, UnitDelay

# every library component and the 2x2 multiplier of each adder variant
DESIGNS = {**COMPONENTS,
           **{f"mult2x2_{fa}": lambda p, fa=fa: array_multiplier(MultiplierSpec(2, p, fa))
              for fa in FA_VARIANTS}}


def run(harness, delays, vectors, order):
    """The trace, state hazards and results of one transaction per vector,
    followed by a data and return phase per vector with the inputs arriving
    in ``order``'s groups, from reset."""
    state = harness.initialize(delays)
    trace = []
    state.trace = lambda t, net, val: trace.append((t, net, val))
    results = [asdict(harness.run_transaction(state, v)) for v in vectors]
    for v in vectors:
        results.append(asdict(harness.run_phase(state, "data", v, order=order)))
        results.append(asdict(harness.run_phase(state, "return", order=order)))
    return trace, state.hazards, results, state


@st.composite
def design_runs(draw):
    """A design name, 1-4 vectors of values for its input ports, and an
    arrival order: a permutation of the inputs cut into groups, where each
    group settles before the next arrives and may join several inputs."""
    name = draw(st.sampled_from(sorted(DESIGNS)))
    inputs = [p.name for p in DESIGNS[name](Protocol.RTZ).input_ports]
    vectors = draw(st.lists(st.fixed_dictionaries({n: st.integers(0, 1) for n in inputs}),
                            min_size=1, max_size=4))
    order = [[]]
    for i, n in enumerate(draw(st.permutations(inputs))):
        if i and draw(st.booleans()):
            order.append([])
        order[-1].append(n)
    return name, vectors, order


def _phases(results):
    """Every phase report dict in ``run``'s results, in order."""
    for r in results:
        yield from (r["data_phase"], r["return_phase"]) if "metrics" in r else (r,)


def _complemented(results):
    """``run``'s results with every hazard's values flipped."""
    for report in _phases(results):
        for h in report["hazards"]:
            h["cancelled"] ^= 1
            h["target"] ^= 1
    return results


def _oracle(netlist):
    meta = netlist.metadata
    return product_oracle(meta["n"]) if "n" in meta else COMPONENT_ORACLES[meta["component"]]


@settings(max_examples=40, deadline=None)
@given(design_runs(), st.data())
def test_rto_runs_are_the_complement_of_rtz_runs(case, data):
    """Under delays blind to the protocol (unit delays, the same random
    seed, or a kind table whose AND2 and OR2 entries swap with the
    protocol, as the gates do), the RTO twin of a design commits the same
    events at the same times with every value complemented, reports the
    same outputs, metrics and early records, records the same hazards with
    complemented values, and gets the same indication verdict and orphan
    scan."""
    name, vectors, order = case
    model = data.draw(st.sampled_from(["unit", "random", "perkind"]))
    if model == "unit":
        delays = [UnitDelay()] * 2
    elif model == "random":
        delays = [RandomUniformDelay(1, 16, data.draw(st.integers(0, 2**16)))] * 2
    else:
        kinds = {k.value: data.draw(st.integers(1, 5)) for k in GateKind}
        swapped = {**kinds, "AND2": kinds["OR2"], "OR2": kinds["AND2"]}
        delays = [TableDelay(kinds), TableDelay(swapped)]
    twins = [DESIGNS[name](p) for p in Protocol]
    runs = [run(HandshakeHarness(netlist, p), d, vectors, order)
            for netlist, p, d in zip(twins, Protocol, delays)]
    (trace, hazards, results, _), (rto_trace, rto_hazards, rto_results, _) = runs
    assert rto_trace == [(t, net, val ^ 1) for t, net, val in trace]
    assert rto_hazards == [replace(h, cancelled=h.cancelled ^ 1, target=h.target ^ 1)
                           for h in hazards]
    assert rto_results == _complemented(results)
    # exhaustive over arrival orders up to 4 inputs; rca2's 5 inputs would
    # take 3,840 scenarios, so it withholds each input last instead
    mode = "exhaustive" if len(vectors[0]) <= 4 else "holdback"
    verdicts = [classify_indication(netlist, p, d, mode)
                for netlist, p, d in zip(twins, Protocol, delays)]
    assert verdicts[0] == verdicts[1]
    seed = data.draw(st.integers(0, 2**16))
    scans = [replace(orphan_scan(netlist, p, _oracle(netlist), trials=2, seed=seed,
                                 transactions=3), design="", protocol="")
             for netlist, p in zip(twins, Protocol)]
    assert scans[0] == scans[1]


def _scaled(results, k):
    """``run``'s results with every time multiplied by ``k``."""
    for r in results:
        if "metrics" in r:
            for key in ("forward_latency", "reverse_latency", "cycle_time"):
                r["metrics"][key] *= k
    for report in _phases(results):
        for key in ("latency", "completed_at", "last_datapath_commit"):
            report[key] *= k
        for h in report["hazards"]:
            h["time"] *= k
    return results


@settings(max_examples=40, deadline=None)
@given(design_runs(), st.sampled_from(list(Protocol)), st.sampled_from([2, 3, 7]), st.data())
def test_scaling_every_gate_delay_by_k_scales_every_event_time_by_k(case, protocol, k, data):
    """Times are integers with no unit of their own, so a per-gate delay
    table multiplied by k gives the same events, values, transition counts
    and hazards, each at k times its time.  A table of all ones runs on the
    unit-delay step lists and its multiple on the heap, so half the examples
    also compare the two."""
    name, vectors, order = case
    harness = HandshakeHarness(DESIGNS[name](protocol), protocol)
    delay = st.just(1) if data.draw(st.booleans()) else st.integers(1, 4)
    table = {g: data.draw(delay) for g in range(len(harness.netlist.gates))}
    trace, hazards, results, state = run(harness, TableDelay(table), vectors, order)
    k_trace, k_hazards, k_results, k_state = run(
        harness, TableDelay({g: k * d for g, d in table.items()}), vectors, order)
    assert k_trace == [(k * t, net, val) for t, net, val in trace]
    assert k_hazards == [replace(h, time=k * h.time) for h in hazards]
    assert k_results == _scaled(results, k)
    assert (k_state.now, k_state.values, k_state.transitions) == (
        k * state.now, state.values, state.transitions)


# and the 3x3 multipliers, whose detectors merge six output pairs
ACK_DESIGNS = {**DESIGNS,
               **{f"mult3x3_{fa}": lambda p, fa=fa: array_multiplier(MultiplierSpec(3, p, fa))
                  for fa in FA_VARIANTS}}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ACK_DESIGNS)), st.sampled_from(list(Protocol)), st.booleans(),
       st.data())
def test_a_completed_phase_leaves_the_acknowledge_at_its_level(name, protocol, unit, data):
    """The harness reads no acknowledge net: outputs that all reach the
    phase target in a settled state put every merge gate of the detector at
    one level, so ackout sits at the active level after a data phase and at
    the spacer level after a return phase, and ackin at its complement.
    Vectors arrive at once or in a drawn order, under unit or random delays."""
    harness = HandshakeHarness(ACK_DESIGNS[name](protocol), protocol)
    delays = UnitDelay() if unit else RandomUniformDelay(1, 16, data.draw(st.integers(0, 2**16)))
    state = harness.initialize(delays)
    inputs = [p.name for p in harness.inputs]
    levels = {"data": protocol.active_level, "return": protocol.spacer_level}
    for values in data.draw(st.lists(st.fixed_dictionaries({n: st.integers(0, 1) for n in inputs}),
                                     min_size=1, max_size=3)):
        order = data.draw(st.none() | st.permutations(inputs).map(lambda p: [[n] for n in p]))
        for phase, given_values in (("data", values), ("return", None)):
            harness.run_phase(state, phase, given_values, order=order)
            ack = levels[phase]
            assert (state.values[harness.ackout], state.values[harness.ackin]) == (ack, ack ^ 1)
