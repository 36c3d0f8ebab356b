"""Event-driven gate-level simulator.

Integer timestamps, minimum gate delay of one unit, zero wire delay (forks
are treated as isochronic).  Delays are resolved once per gate when a state
is initialized, so a seeded random assignment stays fixed for the whole run.
Scheduling is inertial: a gate output carries at most one pending event, and
an input change that disagrees with a pending event cancels it and records a
hazard (a disabled excitation), which is how indication violations become
observable.

The kernel runs on the netlist's compiled form (``Netlist.compiled``: flat
per-gate input/output/kind arrays, per-net consumer tuples and the one
``NEXT_STATE`` table of gate functions).  It is built the first time a state
is initialized over a netlist, not when the netlist is built or validated,
and is shared by every later state over the same netlist.

Each queued event is one int heap key ``t << shift | net << 1 | value``,
with ``shift`` wide enough for any ``net << 1 | value``, so keys pop in
``(time, net id, value)`` order: events due at one time commit in ascending
net id.  ``_pending[net]`` holds the key of the net's pending event, or -1;
a popped key that no longer matches it was superseded and is skipped.
Stimuli enter the same queue at the current time, ahead of every gate event.

Observers: ``trace(t, net, value)`` sees every committed event.  ``watch``
is called the same way, but only for nets whose ``watched`` flag is set (the
handshake monitor flags the output rails).  ``last_commit[net]`` is the time
of the net's latest commit, so a monitor can ask when a group of nets last
moved without seeing their events.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Mapping

from .encoding import Protocol
from .netlist import KIND_CODE, NEXT_STATE, GateKind, Netlist


class SimulationError(Exception):
    """Base error for simulation failures."""


class InitializationError(SimulationError):
    """Reset state is inconsistent or fails to relax to a quiescent fixpoint."""


class NonQuiescenceError(SimulationError):
    """Event processing exceeded the step limit without going quiet."""


class StimulusError(SimulationError):
    """An assignment targeted a net the environment does not drive."""


# --------------------------------------------------------------------------
# delay models

@dataclass(frozen=True)
class UnitDelay:
    def resolve(self, netlist: Netlist) -> list[int]:
        return [1] * len(netlist.gates)


@dataclass(frozen=True)
class TableDelay:
    """Per-gate delays from a table keyed by kind name (``"AND2"``) or by
    gate id; a gate's own entry wins over its kind's, and a gate named by
    neither gets ``default``."""

    table: Mapping[str | int, int]
    default: int = 1

    def __post_init__(self) -> None:
        kinds = {kind.value for kind in GateKind}
        unknown = [k for k in self.table if isinstance(k, str) and k not in kinds]
        if unknown:
            raise ValueError(f"unknown gate kinds in delay table: {unknown}")

    def resolve(self, netlist: Netlist) -> list[int]:
        gates = netlist.gates
        unknown = [k for k in self.table
                   if not isinstance(k, str) and k not in range(len(gates))]
        if unknown:
            raise ValueError(f"delay table names gates {unknown}, outside "
                             f"0..{len(gates) - 1}")
        table = self.table
        delays = [int(table.get(g.id, table.get(g.kind.value, self.default)))
                  for g in gates]
        for d in delays:
            if d < 1:
                raise ValueError(f"gate delays must be >= 1, got {d}")
        return delays


@dataclass(frozen=True)
class RandomUniformDelay:
    """Independent per-gate draws from [low, high], fixed by the seed."""

    low: int
    high: int
    seed: int = 0

    def resolve(self, netlist: Netlist) -> list[int]:
        if self.low < 1 or self.high < self.low:
            raise ValueError(f"bad delay range [{self.low}, {self.high}]")
        rng = random.Random(self.seed)
        return [rng.randint(self.low, self.high) for _ in netlist.gates]


DelayModel = UnitDelay | TableDelay | RandomUniformDelay


# --------------------------------------------------------------------------
# records

@dataclass(frozen=True)
class HazardRecord:
    time: int
    gate: int
    net: int
    cancelled: int  # value of the disabled pending event
    target: int  # excitation that replaced it

    @property
    def description(self) -> str:
        return (f"t={self.time}: pending {self.net}->{self.cancelled} on gate "
                f"{self.gate} disabled (new target {self.target})")


@dataclass
class SettleReport:
    elapsed: int
    transitions: int
    hazards: list[HazardRecord]
    steps: int


# --------------------------------------------------------------------------
# state

class SimState:
    """Mutable simulation state over one immutable netlist."""

    __slots__ = ("netlist", "protocol", "values", "now", "transitions",
                 "net_transitions", "last_commit", "hazards", "watch", "watched",
                 "trace", "_compiled", "_env", "_sched", "_shift",
                 "_heap", "_pending", "default_limit")

    def __init__(self, netlist: Netlist, protocol: Protocol, delays: list[int]):
        self.netlist = netlist
        self.protocol = protocol
        compiled = netlist.compiled
        self._compiled = compiled
        self._env = compiled.env
        # heap keys are t << shift | net << 1 | value; gate g excited at time
        # t schedules (t << shift) + _sched[g] + value
        self._shift = shift = netlist.net_count.bit_length() + 1
        self._sched = [d << shift | o << 1 for d, o in zip(delays, compiled.out)]
        self.values = [0] * netlist.net_count
        self.now = 0
        self.transitions = 0
        self.net_transitions = [0] * netlist.net_count
        self.last_commit = [0] * netlist.net_count
        self.hazards: list[HazardRecord] = []
        self.watch: Callable[[int, int, int], None] | None = None
        self.watched = bytearray(netlist.net_count)
        self.trace: Callable[[int, int, int], None] | None = None
        self._heap: list[int] = []
        self._pending = [-1] * netlist.net_count
        self.default_limit = 10_000 + 200 * max(1, len(netlist.gates))

    # -- initialization -----------------------------------------------------

    def _relax(self) -> None:
        """Seed the reset state and relax combinational gates to a fixpoint."""
        values = self.values
        spacer = self.protocol.spacer_level
        for net in range(self.netlist.net_count):
            values[net] = spacer if self._env[net] else self.netlist.net_init[net]
        for g in self.netlist.gates:
            values[g.output] = g.init

        c = self._compiled
        kind, in0, in1, out = c.kind, c.in0, c.in1, c.out
        c2 = KIND_CODE[GateKind.C2] << 3
        comb = [i for i, k in enumerate(kind) if k != c2]
        limit = 4 * max(1, len(kind))
        for _ in range(limit):
            changed = False
            for i in comb:
                v = NEXT_STATE[kind[i] | values[in0[i]] << 2 | values[in1[i]] << 1]
                if values[out[i]] != v:
                    values[out[i]] = v
                    changed = True
            if not changed:
                break
        else:
            raise InitializationError(
                f"reset relaxation did not converge within {limit} sweeps")

        gates = self.netlist.gates
        for i in comb:
            g = gates[i]
            if values[g.output] != g.init:
                raise InitializationError(
                    f"init inconsistency: gate {g.id} ({g.kind.value}) stores init "
                    f"{g.init} but relaxes to {values[g.output]}")
        for i, k in enumerate(kind):
            if k == c2 and self._target(i) != values[out[i]]:
                raise InitializationError(
                    f"init inconsistency: C2 gate {i} excited at reset")

    # -- event machinery ----------------------------------------------------

    def _target(self, g: int) -> int:
        """Gate ``g``'s next output value under the present net values."""
        c = self._compiled
        values = self.values
        return NEXT_STATE[c.kind[g] | values[c.in0[g]] << 2 | values[c.in1[g]] << 1
                          | values[c.out[g]]]

    def _settle(self, limit: int, env_commits: int) -> int:
        """Commit queued events in key order until the queue is empty; the
        first ``env_commits`` are stimuli, which ``limit`` does not count."""
        heap = self._heap
        pending = self._pending
        values = self.values
        net_transitions = self.net_transitions
        last_commit = self.last_commit
        hazards = self.hazards
        watched, watch, trace = self.watched, self.watch, self.trace
        c = self._compiled
        kind, in0, in1, out, consumers = c.kind, c.in0, c.in1, c.out, c.consumers
        sched = self._sched
        shift = self._shift
        net_mask = (1 << shift - 1) - 1
        pop, push = heapq.heappop, heapq.heappush
        t = self.now
        cap = limit + env_commits
        commits = 0
        try:
            while heap:
                key = pop(heap)
                net = key >> 1 & net_mask
                if pending[net] != key:
                    continue  # superseded entry
                if commits >= cap:
                    push(heap, key)  # still pending: a later settle resumes here
                    raise NonQuiescenceError(f"no quiescence within {limit} events")
                commits += 1
                pending[net] = -1
                t = key >> shift
                val = key & 1
                values[net] = val
                net_transitions[net] += 1
                last_commit[net] = t
                if watched[net] and watch is not None:
                    watch(t, net, val)
                if trace is not None:
                    trace(t, net, val)
                base = t << shift
                for g in consumers[net]:
                    o = out[g]
                    cur = values[o]
                    tgt = NEXT_STATE[kind[g] | values[in0[g]] << 2 | values[in1[g]] << 1 | cur]
                    p = pending[o]
                    if p >= 0:
                        if p & 1 == tgt:
                            continue
                        hazards.append(HazardRecord(t, g, o, p & 1, tgt))
                        pending[o] = -1
                        if tgt == cur:
                            continue
                    elif tgt == cur:
                        continue
                    p = base + sched[g] + tgt
                    pending[o] = p
                    push(heap, p)
        finally:
            self.now = t
            self.transitions += commits
        return commits - env_commits

    # -- public surface -----------------------------------------------------

    def apply_and_settle(self, assignments: Mapping[int, int],
                         limit: int | None = None) -> SettleReport:
        """Drive environment nets at the current time, then run events until
        the circuit is quiet.  Ties at one timestamp resolve by ascending
        net id; assignments are applied in ascending net order as well."""
        t0 = self.now
        tr0 = self.transitions
        h0 = len(self.hazards)
        values = self.values
        stimuli = []
        for net, value in sorted(assignments.items()):
            if not 0 <= net < len(values) or not self._env[net]:
                raise StimulusError(f"net {net} is not environment-driven")
            if value not in (0, 1):
                raise StimulusError(f"net {net} assigned non-bit {value!r}")
            if values[net] != value:
                stimuli.append(net << 1 | value)
        # stimuli commit now, in net order, ahead of every gate event (whose
        # delay is at least one)
        base = t0 << self._shift
        for stim in stimuli:
            self._pending[stim >> 1] = base | stim
            heapq.heappush(self._heap, base | stim)
        steps = self._settle(self.default_limit if limit is None else limit, len(stimuli))
        return SettleReport(elapsed=self.now - t0, transitions=self.transitions - tr0,
                            hazards=list(self.hazards[h0:]), steps=steps)

    def is_quiescent(self) -> bool:
        """True when no event is pending and no gate is excited."""
        if max(self._pending, default=-1) >= 0:
            return False
        out = self._compiled.out
        return all(self._target(g) == self.values[out[g]] for g in range(len(out)))


def initialize(netlist: Netlist, protocol: Protocol,
               delay_model: DelayModel = UnitDelay()) -> SimState:
    """Build a quiescent reset-state simulation: environment rails at the
    spacer level, C2 outputs at their stored inits, combinational gates
    relaxed to a fixpoint (zero elapsed time)."""
    state = SimState(netlist, protocol, delay_model.resolve(netlist))
    state._relax()
    return state

