"""4-phase handshake environment: completion detection and transaction driving.

A :class:`HandshakeHarness` wraps a dual-rail netlist with a receiver-side
completion detector over its output ports plus the acknowledge inverter, then
drives full transactions against it: a data phase followed by a return-to-
spacer phase.  Forward latency is the time from stimulus to the last primary
output reaching data, measured at the ports with the detector's own delay
excluded; reverse latency is the mirror for the return phase; the cycle is
their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index, itemgetter
from typing import Mapping, Sequence

from .components import merge_kind
from .encoding import Protocol, encode, spacer_rails
from .netlist import DualRailPort, GateKind, Netlist, NetlistBuilder, NetId
from .sim import (DelayModel, HazardRecord, InitializationError, SimState, Stimulus,
                  UnitDelay, initialize)


class TransactionError(Exception):
    """A transaction broke the handshake contract (incomplete outputs, an
    illegal codeword, a datapath hazard, or values a phase does not read)."""


def build_completion_detector(builder: NetlistBuilder, ports: Sequence[DualRailPort],
                              protocol: Protocol) -> tuple[NetId, NetId]:
    """Append a completion detector over ``ports`` and return (ackout, ackin).

    Each dual-rail pair collapses through a ``merge_kind`` gate (OR2 under
    RTZ, AND2 under RTO); the per-pair nets merge through a balanced C2
    tree.  ACKOUT asserts high once every monitored pair holds data under
    RTZ, or once every pair is back at the all-ones spacer under RTO.  ACKIN
    is its inversion.
    """
    if not ports:
        raise ValueError("completion detector needs at least one port")
    kind = merge_kind(protocol)
    per_pair = [builder.add_gate(kind, (p.rail1, p.rail0)) for p in ports]
    ackout = builder.reduce_tree(GateKind.C2, per_pair)
    ackin = builder.add_gate(GateKind.INV, (ackout,))
    return ackout, ackin


def decode(protocol: Protocol, rail1: int, rail0: int) -> str:
    """A rail pair's state: data when its rails differ (bit ``rail1 ^ s`` for
    spacer level ``s``), else the spacer if ``rail1 == s``, else illegal."""
    if rail1 != rail0:
        return f"data{rail1 ^ protocol.spacer_level}"
    return "spacer" if rail1 == protocol.spacer_level else "illegal"


def _pairs(rails: tuple[int, ...]):
    """The (rail1, rail0) pairs of a flat output-rail snapshot, port by port."""
    return zip(rails[::2], rails[1::2])


@dataclass(frozen=True)
class TransactionMetrics:
    forward_latency: int
    reverse_latency: int
    cycle_time: int
    transitions: int


@dataclass
class EarlyRecord:
    """Output movement observed before the final stimulus group of a phase."""

    group: int  # index of the stimulus group after which this was seen
    moved: tuple[str, ...]  # output ports that left their phase-start state
    all_complete: bool  # every output already reached the phase target


@dataclass
class PhaseReport:
    phase: str  # "data" | "return"
    latency: int
    transitions: int
    completed_at: int  # absolute time the last output reached the target
    last_datapath_commit: int  # absolute time of the last datapath event
    early: list[EarlyRecord] = field(default_factory=list)
    hazards: list[HazardRecord] = field(default_factory=list)

    @property
    def datapath_quiet_at_completion(self) -> bool:
        """True when nothing in the datapath moved after the outputs finished."""
        return self.last_datapath_commit <= self.completed_at


@dataclass
class TransactionResult:
    outputs: dict[str, int]
    metrics: TransactionMetrics
    data_phase: PhaseReport
    return_phase: PhaseReport


class HandshakeHarness:
    """Closed-loop bench: netlist + output completion detector + environment,
    over a valid base whose input ports, constants included, rest at the spacer
    level of ``protocol`` (any other base raises, as does one without outputs);
    it runs only the states its own :meth:`initialize` built."""

    def __init__(self, base: Netlist, protocol: Protocol):
        self.protocol = protocol
        self._spacer_level = spacer = protocol.spacer_level
        off = [p.name for p in base.validated().ports if p.direction == "input"
               and base.net_init[p.rail1] != spacer]  # validation holds both rails level
        if off:
            raise InitializationError(f"design {base.name!r} is not built for {protocol.value}: "
                                      f"input ports {off} do not rest at its spacer level {spacer}")
        builder = NetlistBuilder.from_netlist(base, name=base.name + "+cd")
        self.datapath_nets = builder.net_count  # nets below this id are datapath
        self.ackout, self.ackin = build_completion_detector(
            builder, base.output_ports, protocol)
        self.netlist = builder.build()
        self.inputs = self.netlist.input_ports
        self.consts = self.netlist.const_ports
        self.outputs = self.netlist.output_ports
        # the watched table every state shares: the output ports on each net; () is false
        ports_of: list[tuple[DualRailPort, ...]] = [()] * self.netlist.net_count
        for p in self.outputs:
            for rail in p.rails:
                ports_of[rail] += (p,)
        self._ports_of = tuple(ports_of)
        # the output rails' values, flat: (rail1, rail0) of each output port
        self._snapshot = itemgetter(*(r for p in self.outputs for r in p.rails))
        # built once and checked once: each input's data stimuli keyed by
        # bit, and its spacer stimulus, the constants per phase, the return
        # phase's one simultaneous batch, and each phase's target rail pairs
        words = (encode(protocol, 0), encode(protocol, 1), spacer_rails(protocol))
        netlist = self.netlist
        self._stimuli = {p.name: {bit: Stimulus(netlist, dict(zip(p.rails, words[bit])))
                                  for bit in (0, 1)} for p in self.inputs}
        self._spacer = {p.name: Stimulus(netlist, dict(zip(p.rails, words[2])))
                        for p in self.inputs}
        self._const = {
            "data": Stimulus(netlist, {r: v for p in self.consts
                                       for r, v in zip(p.rails, words[p.const_value])}),
            "return": Stimulus(netlist, {r: v for p in self.consts
                                         for r, v in zip(p.rails, words[2])}),
        }
        self._return_batch = Stimulus.join([self._const["return"], *self._spacer.values()])
        self._targets = {"data": set(words[:2]), "return": {words[2]}}

    def initialize(self, delay_model: DelayModel = UnitDelay()) -> SimState:
        """A reset state carrying the monitor's table, which marks it as this harness's."""
        state = initialize(self.netlist, delay_model)
        state.watched, state.datapath_nets = self._ports_of, self.datapath_nets
        return state

    def decode_outputs(self, state: SimState) -> dict[str, int]:
        self._refuse_foreign(state)
        values, spacer = state.values, self._spacer_level  # by decode's rule
        out = {}
        for p in self.outputs:
            rail1 = values[p.rail1]
            if rail1 == values[p.rail0]:
                what = decode(self.protocol, rail1, rail1)
                raise TransactionError(f"output {p.name} is {what}, not data")
            out[p.name] = rail1 ^ spacer
        return out

    def _refuse_foreign(self, state: SimState) -> None:
        """Refuse a state :meth:`initialize` did not build, even one over this netlist."""
        if state.watched is not self._ports_of:
            raise TransactionError("state was not initialized by this harness "
                                   f"(it simulates {state.netlist.name!r})")

    # -- phase driving ------------------------------------------------------

    def _groups(self, phase: str, values: Mapping[str, int] | None,
                order: Sequence[Sequence[str]] | None) -> list[Stimulus]:
        """Stimulus groups: constants first, then the data inputs either as a
        single simultaneous batch or in the caller's arrival order.  A group
        of one input is that input's prebuilt stimulus, and the return
        phase's simultaneous batch is prebuilt too: both are shared, not
        copied.  Any other batch joins prebuilt stimuli, which are checked
        already.  Data-phase ``values`` are judged in one pass that raises the
        first of: no values, every missing input, every name that is not an
        input, then the first value in input order that is not an integer 0
        or 1 (a bool is the int it equals, and a float is refused)."""
        if phase == "data":
            if values is None:
                raise TransactionError("data phase needs input values")
            rails, missing, bad = {}, [], None
            for name, words in self._stimuli.items():
                if name not in values:
                    missing.append(name)
                    continue
                try:  # ``index`` refuses 1.0, which the bit keys would take for 1
                    rails[name] = words[index(values[name])]
                except (KeyError, TypeError):
                    bad = bad or f"input {name}: bit must be 0 or 1, got {values[name]!r}"
            if missing:
                raise TransactionError(f"missing values for inputs {missing}")
            if len(values) != len(self._stimuli):
                unknown = [name for name in values if name not in self._stimuli]
                raise TransactionError(f"values for unknown inputs {unknown}")
            if bad:
                raise ValueError(bad)
        elif values:
            raise TransactionError(f"return phase reads no input values, got {dict(values)}")
        elif order is None:
            return [self._return_batch]
        else:
            rails = self._spacer
        const = self._const[phase]

        if order is None:
            return [Stimulus.join([const, *rails.values()])]
        groups = [const] if const.codes else []
        seen: set[str] = set()
        for names in order:
            if not names:
                raise TransactionError("arrival order has an empty group")
            for name in names:
                if name in seen or name not in rails:
                    what = "repeats" if name in seen else "names unknown"
                    raise TransactionError(f"arrival order {what} input {name!r}")
                seen.add(name)
            groups.append(rails[names[0]] if len(names) == 1 else
                          Stimulus.join([rails[name] for name in names]))
        if len(seen) < len(rails):
            raise TransactionError(f"arrival order misses inputs {sorted(rails.keys() - seen)}")
        return groups

    def run_phase(self, state: SimState, phase: str,
                  values: Mapping[str, int] | None = None,
                  order: Sequence[Sequence[str]] | None = None) -> PhaseReport:
        """Drive one handshake phase to quiescence and measure it.

        ``order`` splits the stimulus into sequentially settled groups (used
        by the indication classifier); by default everything lands at once.
        After each group but the last, the output ports whose rails differ
        from their phase-start values are recorded in ``early``; the scan is
        skipped while no output rail has committed an event in the phase,
        since every output then still holds its phase-start value.
        Raises :class:`TransactionError` on a state this harness did not
        initialize, values the phase does not read or missing inputs, an
        arrival order that repeats, misses or names an unknown input,
        incomplete or illegal outputs, or a datapath hazard.
        """
        self._refuse_foreign(state)
        try:
            targets = self._targets[phase]
        except KeyError:
            raise ValueError(f"unknown phase {phase!r}") from None

        t0 = state.now
        ports_of = self._ports_of
        spacer = self._spacer_level
        values_arr = state.values

        # outside an illegal codeword every output-rail event moves its ports
        # into or out of the target, so outputs that all end at the target
        # completed at the last such event
        last_move: int | None = None
        illegal: list[tuple[int, str]] = []

        def watch(t: int, net: int, val: int) -> None:
            nonlocal last_move
            last_move = t
            for p in ports_of[net]:
                if values_arr[p.rail1] == values_arr[p.rail0] != spacer:  # both rails active
                    illegal.append((t, p.name))

        groups = self._groups(phase, values, order)
        final = len(groups) - 1
        snapshot = self._snapshot
        start = snapshot(values_arr) if final else ()
        h0 = len(state.hazards)
        tr0 = state.transitions
        early: list[EarlyRecord] = []
        state.watch = watch  # a later phase's replaces it; left behind, it feeds only dead locals
        settle = state.apply_and_settle
        for gi, group in enumerate(groups):
            settle(group)
            if gi < final and last_move is not None:
                rails = snapshot(values_arr)
                if rails != start:
                    moved = tuple(p.name for i, p in enumerate(self.outputs)
                                  if rails[2 * i:2 * i + 2] != start[2 * i:2 * i + 2])
                    early.append(EarlyRecord(gi, moved, targets.issuperset(_pairs(rails))))
        last_datapath = max(t0, state.last_datapath_commit)

        hazards = state.hazards[h0:]
        if illegal:
            t, name = illegal[0]
            raise TransactionError(f"output {name} hit an illegal codeword at t={t}")
        for h in hazards:
            if h.net < self.datapath_nets:
                raise TransactionError(f"datapath hazard: {h.description}")
        rails = snapshot(values_arr)
        if last_move is None or not targets.issuperset(_pairs(rails)):
            off = [p.name for p, pair in zip(self.outputs, _pairs(rails)) if pair not in targets]
            raise TransactionError(f"{phase} phase left outputs incomplete: {off}")
        return PhaseReport(phase, last_move - t0, state.transitions - tr0,
                           last_move, last_datapath, early, hazards)

    # -- transactions ---------------------------------------------------------

    def run_transaction(self, state: SimState, values: Mapping[str, int]) -> TransactionResult:
        """One complete handshake: data phase then return phase, both settled
        through the closed loop, completion detector included."""
        self._refuse_foreign(state)
        rails, spacer = state.values, self._spacer_level
        for p in self.inputs:
            if rails[p.rail1] != spacer or rails[p.rail0] != spacer:
                raise TransactionError(f"input {p.name} not at spacer at transaction start")
        data = self.run_phase(state, "data", values)
        outputs = self.decode_outputs(state)
        ret = self.run_phase(state, "return")
        metrics = TransactionMetrics(
            forward_latency=data.latency,
            reverse_latency=ret.latency,
            cycle_time=data.latency + ret.latency,
            transitions=data.transitions + ret.transitions,
        )
        return TransactionResult(outputs, metrics, data, ret)
