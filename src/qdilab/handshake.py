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
from typing import Mapping, Sequence

from .encoding import PairState, Protocol, decode, encode, spacer_rails
from .netlist import DualRailPort, GateKind, Netlist, NetlistBuilder, NetId
from .sim import DelayModel, HazardRecord, SimState, UnitDelay, initialize


class TransactionError(Exception):
    """A transaction broke the handshake contract (incomplete outputs, an
    illegal codeword, a datapath hazard, or a wrong acknowledge level)."""


def build_completion_detector(builder: NetlistBuilder, ports: Sequence[DualRailPort],
                              protocol: Protocol) -> tuple[NetId, NetId]:
    """Append a completion detector over ``ports`` and return (ackout, ackin).

    Each dual-rail pair collapses through a 2-input OR (RTZ) or AND (RTO);
    the per-pair nets merge through a balanced C2 tree.  ACKOUT asserts high
    once every monitored pair holds data under RTZ, or once every pair is
    back at the all-ones spacer under RTO.  ACKIN is its inversion.
    """
    if not ports:
        raise ValueError("completion detector needs at least one port")
    kind = GateKind.OR2 if protocol is Protocol.RTZ else GateKind.AND2
    per_pair = [builder.add_gate(kind, (p.rail1, p.rail0)) for p in ports]
    ackout = builder.reduce_tree(GateKind.C2, per_pair)
    ackin = builder.add_gate(GateKind.INV, (ackout,))
    return ackout, ackin


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
    elapsed: int
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
    """Closed-loop bench: netlist + output completion detector + environment."""

    def __init__(self, base: Netlist, protocol: Protocol):
        if not base.output_ports:
            raise ValueError("harness needs at least one output port")
        self.protocol = protocol
        self.base = base
        builder = NetlistBuilder.from_netlist(base, name=base.name + "+cd")
        self.datapath_nets = builder.net_count  # nets below this id are datapath
        self.ackout, self.ackin = build_completion_detector(
            builder, base.output_ports, protocol)
        builder.metadata["harness"] = "closed-loop-cd"
        self.netlist = builder.build()
        self.inputs = self.netlist.input_ports
        self.consts = self.netlist.const_ports
        self.outputs = self.netlist.output_ports
        # the monitor: flags of the nets it watches, and the output ports
        # (by index into self.outputs) that each of those nets belongs to
        self._watched = bytearray(self.netlist.net_count)
        self._ports_of: list[tuple[int, ...]] = [()] * self.netlist.net_count
        for i, p in enumerate(self.outputs):
            for rail in p.rails:
                self._watched[rail] = 1
                self._ports_of[rail] += (i,)

    def initialize(self, delay_model: DelayModel = UnitDelay()) -> SimState:
        return initialize(self.netlist, self.protocol, delay_model)

    # -- decoding helpers ---------------------------------------------------

    def port_state(self, state: SimState, port: DualRailPort) -> PairState:
        return decode(self.protocol, state.values[port.rail1], state.values[port.rail0])

    def decode_outputs(self, state: SimState) -> dict[str, int]:
        out = {}
        for p in self.outputs:
            ps = self.port_state(state, p)
            if not ps.is_data:
                raise TransactionError(f"output {p.name} is {ps.value}, not data")
            out[p.name] = ps.bit
        return out

    # -- phase driving ------------------------------------------------------

    def _groups(self, phase: str, values: Mapping[str, int] | None,
                order: Sequence[Sequence[str]] | None) -> list[dict[int, int]]:
        """Stimulus groups: constants first, then the data inputs either as a
        single simultaneous batch or in the caller's arrival order."""
        if phase == "data":
            if values is None:
                raise TransactionError("data phase needs input values")
            missing = [p.name for p in self.inputs if p.name not in values]
            if missing:
                raise TransactionError(f"missing values for inputs {missing}")
            rails = {}
            for p in self.inputs:
                rails[p.name] = dict(zip(p.rails, encode(self.protocol, values[p.name])))
            const = {}
            for p in self.consts:
                const.update(zip(p.rails, encode(self.protocol, p.const_value)))
        else:
            rails = {p.name: dict(zip(p.rails, spacer_rails(self.protocol)))
                     for p in self.inputs}
            const = {}
            for p in self.consts:
                const.update(zip(p.rails, spacer_rails(self.protocol)))

        if order is None:
            batch = dict(const)
            for r in rails.values():
                batch.update(r)
            return [batch]
        groups: list[dict[int, int]] = [const] if const else []
        seen: set[str] = set()
        for names in order:
            g: dict[int, int] = {}
            for name in names:
                g.update(rails.pop(name))
                seen.add(name)
            groups.append(g)
        if rails:
            raise TransactionError(f"arrival order misses inputs {sorted(rails)}")
        return groups

    def run_phase(self, state: SimState, phase: str,
                  values: Mapping[str, int] | None = None,
                  order: Sequence[Sequence[str]] | None = None,
                  limit: int | None = None) -> PhaseReport:
        """Drive one handshake phase to quiescence and measure it.

        ``order`` splits the stimulus into sequentially settled groups (used
        by the indication classifier); by default everything lands at once.
        Raises :class:`TransactionError` on incomplete or illegal outputs, a
        datapath hazard, or a wrong acknowledge level at the end.
        """
        if phase == "data":
            targets = (PairState.DATA0, PairState.DATA1)
            ack_expect = 1 if self.protocol is Protocol.RTZ else 0
        elif phase == "return":
            targets = (PairState.SPACER,)
            ack_expect = 0 if self.protocol is Protocol.RTZ else 1
        else:
            raise ValueError(f"unknown phase {phase!r}")

        t0 = state.now
        out_ports = self.outputs
        ports_of = self._ports_of
        protocol = self.protocol
        values_arr = state.values
        datapath = self.datapath_nets

        # running count of output ports at the phase target; an event on an
        # output rail re-decodes only the ports that rail belongs to
        at_target = [decode(protocol, values_arr[p.rail1], values_arr[p.rail0]) in targets
                     for p in out_ports]
        done = sum(at_target)
        complete = len(out_ports)
        completed_at = None
        illegal: list[tuple[int, str]] = []

        def watch(t: int, net: int, val: int) -> None:
            nonlocal completed_at, done
            for i in ports_of[net]:
                p = out_ports[i]
                ps = decode(protocol, values_arr[p.rail1], values_arr[p.rail0])
                hit = ps in targets
                if hit != at_target[i]:
                    at_target[i] = hit
                    done += 1 if hit else -1
            if ps is PairState.ILLEGAL:
                illegal.append((t, p.name))
                return
            if done == complete:
                if completed_at is None:
                    completed_at = t
            else:
                completed_at = None

        groups = self._groups(phase, values, order)
        start_vals = list(values_arr)
        h0 = len(state.hazards)
        tr0 = state.transitions
        early: list[EarlyRecord] = []
        prev = state.watch, state.watched
        state.watch, state.watched = watch, self._watched
        try:
            for gi, group in enumerate(groups):
                state.apply_and_settle(group, limit=limit)
                if gi < len(groups) - 1:
                    moved = tuple(p.name for p in out_ports
                                  if any(values_arr[r] != start_vals[r] for r in p.rails))
                    if moved:
                        early.append(EarlyRecord(gi, moved, completed_at is not None))
        finally:
            state.watch, state.watched = prev
        last_datapath = max(t0, max(state.last_commit[:datapath]))

        hazards = list(state.hazards[h0:])
        if illegal:
            t, name = illegal[0]
            raise TransactionError(f"output {name} hit an illegal codeword at t={t}")
        for h in hazards:
            if h.net < datapath:
                raise TransactionError(f"datapath hazard: {h.description}")
        if completed_at is None:
            bad = [p.name for p in out_ports
                   if self.port_state(state, p) not in targets]
            raise TransactionError(f"{phase} phase left outputs incomplete: {bad}")
        ack = values_arr[self.ackout]
        if ack != ack_expect or values_arr[self.ackin] != ack_expect ^ 1:
            raise TransactionError(
                f"acknowledge level wrong after {phase} phase: ackout={ack}")
        return PhaseReport(
            phase=phase,
            latency=completed_at - t0,
            elapsed=state.now - t0,
            transitions=state.transitions - tr0,
            completed_at=completed_at,
            last_datapath_commit=last_datapath,
            early=early,
            hazards=hazards,
        )

    # -- transactions ---------------------------------------------------------

    def run_transaction(self, state: SimState, values: Mapping[str, int],
                        limit: int | None = None) -> TransactionResult:
        """One complete handshake: data phase then return phase, both settled
        through the closed loop (completion detector and acknowledge checked)."""
        for p in self.inputs:
            if self.port_state(state, p) is not PairState.SPACER:
                raise TransactionError(f"input {p.name} not at spacer at transaction start")
        data = self.run_phase(state, "data", values, limit=limit)
        outputs = self.decode_outputs(state)
        ret = self.run_phase(state, "return", limit=limit)
        metrics = TransactionMetrics(
            forward_latency=data.latency,
            reverse_latency=ret.latency,
            cycle_time=data.latency + ret.latency,
            transitions=data.transitions + ret.transitions,
        )
        return TransactionResult(outputs, metrics, data, ret)

    def run_sequence(self, state: SimState, vectors: Sequence[Mapping[str, int]],
                     limit: int | None = None) -> list[TransactionResult]:
        return [self.run_transaction(state, v, limit=limit) for v in vectors]
