"""Event-driven gate-level simulator.

Integer timestamps, minimum gate delay of one unit, zero wire delay (forks
are treated as isochronic).  Delays are resolved once per gate when a state
is initialized, so a seeded random assignment stays fixed for the whole run.
Scheduling is inertial: a gate output carries at most one pending event, and
an input change that disagrees with a pending event cancels it and records a
hazard (a disabled excitation), which is how indication violations become
observable.  ``RandomUniformDelay`` draws its delays with ``uniform_draws``,
which makes the same ``getrandbits`` calls as ``randint`` without its call
layers: the same delays, and the generator left in the same state.

Reset computes nothing: ``initialize`` seeds the input rails at the spacer
level and every other net at its stored init, and raises if any gate is
excited there (validation already holds each combinational init to the reset
levels of its inputs, so no relaxation is needed).  That state depends only
on the netlist and the spacer level, not on the delays, so the compiled form
builds it, with its gate codes and its excited-gate check, once per level
(``CompiledNetlist.reset_image``); each state copies the image's lists, and
``initialize`` raises on every call from the image's excited gate.

The kernel runs on the netlist's compiled form (``Netlist.compiled``: per-net
fanout entries and drivers, the per-gate arrays that seed the reset images,
and the one ``NEXT_STATE`` table of gate functions).  It is built the first time
a state is initialized over a netlist, not when the netlist is built or
validated, and is shared by every later state over the same netlist.

Each gate's ``NEXT_STATE`` index, its *code* ``kind | a << 2 | b << 1 |
cur``, is kept by the state in ``_code``, copied from the reset image at
construction, with bit 5 (32) set while the gate's output has an event
pending.  Every commit flips its net's value, so it XORs each fanout entry's
mask into the code of the gate reading it, and 33 into the code of the net's
driver (flip ``cur``, clear the pending flag).  A gate's next value is then
one table read, ``NEXT_STATE[code & 31]``, and its present one ``code & 1``.
This is selective trace (Ulrich, CACM 1969): only a changed input redoes a
gate's work.

A fanout visit reads one more table, ``FIRE``, derived from ``NEXT_STATE``:
``FIRE[code]`` is set when the gate is excited with nothing pending (it
schedules ``cur ^ 1``) or has an event pending but is no longer excited (the
event is disabled and recorded as a hazard); either way the visit flips the
pending flag.  A pending event's value always differs from ``cur``, so the
flag stands for the value too, and a disabled event never reschedules in
the same visit.

Events wait in one of two queues, chosen by each settle from the resolved
delays, not by an option; both commit in ``(time, net id)`` order.

- The heap serves every delay model.  An event is one int heap key
  ``t << shift | net << 1 | value``, with ``shift`` wide enough for any
  ``net << 1 | value``, so keys pop in ``(time, net id, value)`` order.
- Per-step lists serve a state whose resolved delays are all 1, while its
  heap is empty.  An event committed at t can then only schedule t + 1, so
  the settle walks one sorted list of the events due at t and appends what
  it schedules to the next step's list, which it sorts once and makes the
  current one.  A list key is ``net << 2 | (t & 1) << 1 | value``: the due
  time's parity bit keeps apart an entry due at t that was superseded and
  the event its gate is re-excited to, with the same value, due at t + 1.
  No event is due later than t + 1, so one bit is enough.  When the limit
  trips, the live list entries move to the heap as heap keys, and the
  resumed settle finishes there.

``_pending[net]`` holds the key of the net's pending event, or -1 (heap keys
only, between settles).  A queued key that no longer matches it was
superseded: it is skipped, and neither moves the clock nor counts.  The
pending flag says whether a gate has an event; ``_pending`` says which queue
entry it is.

``SimState.apply_and_settle`` is the one settle function.  It checks the
stimuli (environment nets only, each the int 0 or 1), queues their keys at
the current time, ahead of every gate event, commits events until the queue
is empty, and builds the :class:`SettleReport` from its own counts.

Observers: ``trace(t, net, value)`` sees every committed event.  ``watch``
is called the same way, but only for nets whose ``watched`` flag is set (the
handshake monitor flags the output rails).  ``last_datapath_commit`` is the
time of the latest commit on a net below ``datapath_nets`` (0 before any),
so a monitor can ask when a group of nets last moved without seeing their
events; the handshake harness sets that bound to its design's nets.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Mapping

from .encoding import Protocol
from .netlist import NEXT_STATE, GateKind, Netlist, first_excited


class SimulationError(Exception):
    """Base error for simulation failures."""


class InitializationError(SimulationError):
    """The reset state (input rails at spacer, every other net at its stored
    init) has an excited gate."""


class NonQuiescenceError(SimulationError):
    """Event processing exceeded the step limit without going quiet."""


class StimulusError(SimulationError):
    """An assignment targeted a net the environment does not drive, or
    assigned it something other than the int 0 or 1."""


# 1 where a gate code, pending flag (32) included, calls for action: an
# excited gate with nothing pending schedules, and a gate whose pending event
# no longer matches its function has that event disabled
FIRE = tuple(NEXT_STATE[k & 31] ^ k & 1 ^ k >> 5 for k in range(64))


def uniform_draws(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``[rng.randint(low, high) for _ in range(count)]``, without the
    per-draw call layers: the same ``getrandbits(k)`` calls, with the same
    rejection loop, that ``randint`` makes through ``randrange``, so the
    draws and the state ``rng`` is left in are the same."""
    n = high - low + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(low + r)
    return out


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
        return uniform_draws(random.Random(self.seed), self.low, self.high,
                             len(netlist.gates))


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
                 "datapath_nets", "last_datapath_commit", "hazards", "watch",
                 "watched", "trace", "_compiled", "_env", "_code", "_sched",
                 "_shift", "_unit", "_heap", "_pending", "default_limit")

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
        # every event is due one unit after its cause: settles run on the
        # per-step lists
        self._unit = delays.count(1) == len(delays)
        # the reset state, copied from the image shared by every state over
        # this netlist: one code per gate, plus the spare slot that
        # input-rail commits flip
        image = compiled.reset_image(protocol.spacer_level)
        self.values = image.values[:]
        self._code = image.code[:]
        self.now = 0
        self.transitions = 0
        self.datapath_nets = 0
        self.last_datapath_commit = 0
        self.hazards: list[HazardRecord] = []
        self.watch: Callable[[int, int, int], None] | None = None
        self.watched = bytearray(netlist.net_count)
        self.trace: Callable[[int, int, int], None] | None = None
        self._heap: list[int] = []
        self._pending = [-1] * netlist.net_count
        self.default_limit = 10_000 + 200 * max(1, len(netlist.gates))

    # -- public surface -----------------------------------------------------

    def apply_and_settle(self, assignments: Mapping[int, int],
                         limit: int | None = None) -> SettleReport:
        """Drive environment nets at the current time, then commit queued
        events in (time, net id) order, stimuli first, until the queue is
        empty.  Past ``limit`` gate events (stimuli do not count) it raises
        :class:`NonQuiescenceError` with the next event queued for a later call."""
        heap = self._heap
        pending = self._pending
        values = self.values
        env = self._env
        shift = self._shift
        net_mask = (1 << shift - 1) - 1
        pop, push = heapq.heappop, heapq.heappush
        t = t0 = self.now
        # a settle resumed after a tripped limit finishes on the heap
        unit = self._unit and not heap
        # list keys are net << 2 | (t & 1) << 1 | value, heap keys
        # t << shift | net << 1 | value
        stamp, step = ((t0 & 1) << 1, 2) if unit else (t0 << shift, 1)
        stimuli = []
        for net, value in sorted(assignments.items()):
            if not 0 <= net < len(values) or not env[net]:
                raise StimulusError(f"net {net} is not environment-driven")
            if value not in (0, 1) or not isinstance(value, int):
                raise StimulusError(f"net {net} assigned non-bit {value!r}")
            if values[net] != value:
                stimuli.append(stamp | net << step | value)
        # stimuli commit now, in net order, ahead of every gate event (whose
        # delay is at least one)
        if unit:
            for key in stimuli:
                pending[key >> 2] = key
        else:
            for key in stimuli:
                pending[key >> 1 & net_mask] = key
                push(heap, key)
        datapath, last_datapath = self.datapath_nets, self.last_datapath_commit
        hazards = self.hazards
        h0 = len(hazards)
        watched, watch, trace = self.watched, self.watch, self.trace
        c = self._compiled
        fanout, driver = c.fanout, c.driver
        code = self._code
        sched = self._sched
        limit = self.default_limit if limit is None else limit
        cap = limit + len(stimuli)
        commits = 0
        try:
            if unit:
                # one sorted list of the keys due at t; what a commit at t
                # schedules is due at t + 1 and goes on the next list
                cur, nxt = stimuli, []
                while cur:
                    stamp ^= 2  # the parity bit of t + 1
                    c_step = commits
                    for key in cur:
                        net = key >> 2
                        if pending[net] != key:
                            continue  # superseded entry
                        if commits >= cap:
                            self._requeue(t, cur, nxt)
                            if commits == c_step and t > t0:
                                t -= 1  # nothing has committed at t yet
                            raise NonQuiescenceError(f"no quiescence within {limit} events")
                        commits += 1
                        pending[net] = -1
                        val = key & 1
                        values[net] = val  # a commit always flips its net
                        code[driver[net]] ^= 33  # flip cur, clear pending
                        if net < datapath:
                            last_datapath = t
                        if watched[net] and watch is not None:
                            watch(t, net, val)
                        if trace is not None:
                            trace(t, net, val)
                        for g, mask, o in fanout[net]:
                            k = code[g] ^ mask
                            if FIRE[k]:
                                if k & 32:  # the pending event is disabled
                                    hazards.append(HazardRecord(t, g, o, k & 1 ^ 1, k & 1))
                                    pending[o] = -1
                                else:
                                    p = o << 2 | stamp | (k & 1 ^ 1)
                                    pending[o] = p
                                    nxt.append(p)
                                k ^= 32
                            code[g] = k
                    if not nxt:
                        if commits == c_step:
                            t -= 1  # every entry at t was superseded
                        break
                    nxt.sort()
                    cur, nxt = nxt, []
                    t += 1
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
                values[net] = val  # a commit always flips its net
                code[driver[net]] ^= 33  # flip cur, clear pending
                if net < datapath:
                    last_datapath = t
                if watched[net] and watch is not None:
                    watch(t, net, val)
                if trace is not None:
                    trace(t, net, val)
                base = t << shift
                for g, mask, o in fanout[net]:
                    k = code[g] ^ mask
                    if FIRE[k]:
                        if k & 32:  # the pending event is disabled
                            hazards.append(HazardRecord(t, g, o, k & 1 ^ 1, k & 1))
                            pending[o] = -1
                        else:
                            p = base + sched[g] + (k & 1 ^ 1)
                            pending[o] = p
                            push(heap, p)
                        k ^= 32
                    code[g] = k
        finally:
            self.now = t
            self.transitions += commits
            self.last_datapath_commit = last_datapath
        return SettleReport(elapsed=t - t0, transitions=commits,
                            hazards=hazards[h0:], steps=commits - len(stimuli))

    def _requeue(self, t: int, due: list[int], after: list[int]) -> None:
        """Move the live entries of the per-step lists, ``due`` at t and
        ``after`` it at t + 1, into the (empty) heap as full heap keys; an
        entry already committed or superseded no longer matches ``_pending``."""
        pending, heap, shift = self._pending, self._heap, self._shift
        for when, keys in ((t, due), (t + 1, after)):
            for key in keys:
                net = key >> 2
                if pending[net] == key:
                    pending[net] = p = when << shift | net << 1 | key & 1
                    heap.append(p)
        heapq.heapify(heap)

    def is_quiescent(self) -> bool:
        """True when no event is pending and no gate is excited."""
        # the spare slot is no gate
        return max(self._pending, default=-1) < 0 and first_excited(self._code[:-1]) is None


def initialize(netlist: Netlist, protocol: Protocol,
               delay_model: DelayModel = UnitDelay()) -> SimState:
    """Build the reset-state simulation at time zero: input rails at the
    spacer level, every other net at its stored init.  That state must
    already be quiescent; reset computes nothing, it only checks."""
    delays = delay_model.resolve(netlist)
    g = netlist.compiled.reset_image(protocol.spacer_level).excited
    if g is not None:
        raise InitializationError(f"reset state is not quiescent under "
                                  f"{protocol.value}: gate {g} "
                                  f"({netlist.gates[g].kind.value}) is excited")
    return SimState(netlist, protocol, delays)

