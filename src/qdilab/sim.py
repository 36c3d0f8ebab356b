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

The kernel runs on the netlist's compiled form (``Netlist.compiled``: per-net
fanout entries, drivers and reset codes), built from the validated netlist
the first time a state or a :class:`Stimulus` needs it and shared by every
later state over it, so ``initialize``, ``SimState`` and ``Stimulus`` raise
``ValidationError`` with ``validate``'s findings for an invalid one.
A state starts, with no protocol, at every net's ``net_init`` level, where
validation rules out an excited gate and a design's input rails rest at its
protocol's spacer (the harness refuses one that does not).  It copies
``net_init`` and the compiled ``code`` of each gate at those levels, and
appends one spare code, which ``driver`` names for every input rail, so
that a stimulus commit has a code to flip.

Each gate's ``NEXT_STATE`` index, its *code* ``kind | a << 2 | b << 1 |
cur``, is kept by the state in ``_code``, copied from the compiled ``code``
at construction, with bit 5 (32) set while the gate's output has an event
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
delays, not by an option.  Both hold the same keys and commit them in
``(time, net id)`` order.  An event is one int key ``t << shift | net << 1 |
value``, with ``shift`` wide enough for any ``net << 1 | value``, so keys sort
by ``(time, net id, value)``, and gate g excited at t schedules ``(t << shift)
+ sched[g] + value``, where the state's ``sched[g]`` ORs the gate's shifted
delay into ``out << 1``, the net part of the key of its output ``out``.

- The heap serves every delay model.
- Per-step lists serve a state whose resolved delays are all 1, while its
  heap is empty.  An event committed at t can then only schedule t + 1, so
  the settle walks one sorted list of the keys due at t and appends what it
  schedules to the next step's list, which it sorts once (unless it holds
  one key or none) and makes the current one; the two lists swap roles
  from step to step.  When the limit trips, both lists are poured into the
  heap as they are, and the resumed settle finishes there.

One clock rule holds for both: each commit sets the clock to its own time,
which the heap reads from the key and the lists keep as the step they walk,
so after a settle ``now`` is the time of its last commit, or where it was if
nothing committed.

``_pending[net]`` holds the key of the net's pending event, or -1.  A queued
key that no longer matches it was committed or superseded: it is skipped, and
neither moves the clock nor counts.  The key's time keeps apart an entry due
at t that was superseded and the event its gate is re-excited to, with the
same value, due at t + 1.  The pending flag says whether a gate has an
event; ``_pending`` says which queue entry it is.

A :class:`Stimulus` is one batch of assignments, checked once against one
netlist (environment nets only, each net an int and each value the int 0
or 1) and kept as sorted ``net << 1 | value`` codes; ``Stimulus.join``
merges checked batches over disjoint nets without checking them again.
``SimState.apply_and_settle`` is the one settle function.  It takes a
stimulus of its own netlist as it is, checks any mapping (or a stimulus of
another netlist) into one first, queues the codes of the nets it changes
at the current time, ahead of every gate event, commits events until the
queue is empty, and builds the :class:`SettleReport` from its own counts.
A list of groups settles in one call, each group queued once the one
before has gone quiet and ``limit`` counted per group, as one call per
group would, with one report; ``between(i)`` runs after each group but the
last once a watched net has committed in the call, since until then none
has moved.  The tables a settle only reads or mutates in place (the
compiled fanout and drivers, the codes, the schedule, the pending keys and
the heap) are bound once per state and fetched in one load per call.

Observers: ``trace(t, net, value)`` sees every committed event, ``watch``
the same for nets whose ``watched`` entry is true (the harness's entry for a
net is the output ports on it).  ``last_datapath_commit`` is the time of
the latest commit below ``datapath_nets`` (0 before any), so a monitor can
ask when a group of nets last moved without seeing their events; the
harness sets that bound when its ``initialize`` builds the state.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .encoding import is_bit
from .netlist import NEXT_STATE, GateKind, Netlist, check_int


class SimulationError(Exception):
    """Base error for simulation failures."""


class InitializationError(SimulationError):
    """A harness's design does not rest at its protocol's spacer."""


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
    draws and the state ``rng`` is left in are the same, and an empty
    range raises ``ValueError`` unless no draw is asked for, and so do
    bounds that are not ints."""
    n = high - low + 1
    if not isinstance(n, int):
        raise ValueError(f"non-integer range [{low!r}, {high!r}]")
    if n < 1 and count > 0:
        raise ValueError(f"empty range [{low}, {high}]")
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
    gate id (its position, an int and no bool); a gate's own entry wins over
    its kind's, and a gate named by neither gets ``default``.  Any other key
    raises, and so does any delay or default, used or not, that
    ``check_int(d, "gate delays", 1)`` refuses, when built; the model keeps
    its own copy of the table it judged."""

    table: Mapping[str | int, int]
    default: int = 1

    def __post_init__(self) -> None:
        kinds = {kind.value for kind in GateKind}
        unknown = [k for k in self.table if k not in kinds and type(k) is not int]
        if unknown:
            raise ValueError(f"delay table keys must be gate kind names or ids, got {unknown}")
        for d in (*self.table.values(), self.default):
            check_int(d, "gate delays", 1)
        object.__setattr__(self, "table", dict(self.table))

    def resolve(self, netlist: Netlist) -> list[int]:
        gates, table = netlist.gates, self.table
        unknown = [k for k in table if not isinstance(k, str) and k not in range(len(gates))]
        if unknown:
            raise ValueError(f"delay table names gates {unknown}, but {netlist.name!r} "
                             f"has {len(gates)} gates")
        return [table.get(gid, table.get(g.kind.value, self.default))
                for gid, g in enumerate(gates)]


@dataclass(frozen=True)
class RandomUniformDelay:
    """Independent per-gate draws from [low, high], fixed by the seed.  Bounds but
    ints with ``1 <= low <= high``, or a seed but an int >= 0 (no bool), raise when built."""

    low: int
    high: int
    seed: int = 0

    def __post_init__(self) -> None:
        low, high = self.low, self.high
        if type(low) is not int or type(high) is not int or not 1 <= low <= high:
            raise ValueError(f"bad delay range [{low!r}, {high!r}]")
        check_int(self.seed, "delay seed")

    def resolve(self, netlist: Netlist) -> list[int]:
        return uniform_draws(random.Random(self.seed), self.low, self.high, len(netlist.gates))


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
# stimuli

class Stimulus:
    """One batch of environment assignments, checked once against one
    netlist and kept as the sorted codes ``net << 1 | value``.

    The constructor makes every check a settle needs: each net is an int
    naming an input rail of ``netlist`` (a bool is the int it equals), and
    each value is the int 0 or 1; anything else raises
    :class:`StimulusError`.  A settle on a state over the same netlist takes
    the codes as they are, so a batch driven many times is checked once.
    """

    __slots__ = ("netlist", "codes")

    def __init__(self, netlist: Netlist, assignments: Mapping[int, int] | Stimulus):
        items = list(assignments.items())
        for net, _ in items:
            if not isinstance(net, int):
                raise StimulusError(f"net {net!r} is not environment-driven")
        # on a valid netlist the input rails, and only they, map to len(gates)
        driver, spare = netlist.compiled.driver, len(netlist.gates)
        codes = []
        for net, value in sorted(items):
            if not 0 <= net < len(driver) or driver[net] != spare:
                raise StimulusError(f"net {net} is not environment-driven")
            if not is_bit(value):
                raise StimulusError(f"net {net} assigned non-bit {value!r}")
            codes.append(net << 1 | value)
        self.netlist = netlist
        self.codes = tuple(codes)

    @classmethod
    def join(cls, parts: Sequence[Stimulus]) -> Stimulus:
        """One batch of every assignment in ``parts`` (one or more), which
        must be built for one netlist and drive disjoint nets; nothing is
        checked again."""
        if not parts:
            raise ValueError("cannot join no stimuli")
        joined = object.__new__(cls)
        joined.netlist = netlist = parts[0].netlist
        joined.codes = codes = tuple(sorted(c for p in parts for c in p.codes))
        if any(p.netlist is not netlist for p in parts):
            raise ValueError("cannot join stimuli built for different netlists")
        if len({c >> 1 for c in codes}) != len(codes):
            raise ValueError("joined stimuli drive one net twice")
        return joined

    def items(self) -> list[tuple[int, int]]:
        """The ``(net, value)`` assignments, in net order."""
        return [(c >> 1, c & 1) for c in self.codes]


# --------------------------------------------------------------------------
# state

class SimState:
    """Mutable simulation state over one immutable netlist."""

    __slots__ = ("netlist", "values", "now", "transitions", "datapath_nets",
                 "last_datapath_commit", "hazards", "watch", "watched", "trace",
                 "_code", "_unit", "_pending", "_tables", "default_limit")

    def __init__(self, netlist: Netlist, delays: list[int]):
        self.netlist = netlist
        compiled = netlist.compiled
        # event keys are t << shift | net << 1 | value; gate g excited at
        # time t schedules (t << shift) + sched[g] + value
        shift = netlist.net_count.bit_length() + 1
        sched = [d << shift | g.output << 1 for d, g in zip(delays, netlist.gates)]
        # every event is due one unit after its cause: settles run on the
        # per-step lists
        self._unit = delays.count(1) == len(delays)
        # the reset state: every net's level and one code per gate, plus the
        # spare slot that ``driver`` names for every input rail, so that
        # input-rail commits have a code to flip
        self.values = list(netlist.net_init)
        self._code = compiled.code + [0]
        self.now = 0
        self.transitions = 0
        self.datapath_nets = 0
        self.last_datapath_commit = 0
        self.hazards: list[HazardRecord] = []
        self.watch: Callable[[int, int, int], None] | None = None
        self.watched = bytearray(netlist.net_count)
        self.trace: Callable[[int, int, int], None] | None = None
        self._pending = [-1] * netlist.net_count
        # what every settle reads and nothing rebinds, fetched in one load:
        # the state's lists in it (codes, pending keys, the heap of queued
        # keys) are only ever mutated in place
        self._tables = (compiled.fanout, compiled.driver, self._code, sched,
                        self._pending, [], shift, (1 << shift - 1) - 1,
                        heapq.heappop, heapq.heappush)
        self.default_limit = 10_000 + 200 * max(1, len(netlist.gates))

    # -- public surface -----------------------------------------------------

    def apply_and_settle(self, assignments: Stimulus | Mapping[int, int] | list[Stimulus],
                         limit: int | None = None,
                         between: Callable[[int], None] | None = None) -> SettleReport:
        """Drive environment nets at the current time, then commit queued
        events in (time, net id) order, stimuli first, until the queue is
        empty.  Past ``limit`` gate events (stimuli do not count) it raises
        :class:`NonQuiescenceError` with the next event queued for a later call.

        ``assignments`` is a :class:`Stimulus` built for this state's netlist,
        taken as it is, or any mapping of net to value (or a stimulus built
        for another netlist), checked into a :class:`Stimulus` first.  A list
        of such groups, all checked before any is applied, settles one group
        at a time, each driven once the one before has gone quiet, as one call
        per group would: ``limit`` counts each group's gate events on its own,
        and a group that trips it raises with the later groups never applied.
        ``between(i)``, if given, is called with the state up to date after
        each group ``i`` but the last, once a net whose ``watched`` entry is
        true has committed in the call (before that, every watched net holds
        its level from the call's start); it must not settle the state.  The
        one report covers the whole call: the time from its start to its last
        commit, every commit, every hazard and the gate events."""
        netlist = self.netlist
        if type(assignments) is list:
            groups = [g if type(g) is Stimulus and g.netlist is netlist else Stimulus(netlist, g)
                      for g in assignments]
        elif type(assignments) is Stimulus and assignments.netlist is netlist:
            groups = (assignments,)
        else:
            groups = (Stimulus(netlist, assignments),)
        fanout, driver, code, sched, pending, heap, shift, net_mask, pop, push = self._tables
        values = self.values
        t = t0 = self.now
        tr0 = self.transitions
        datapath, last_datapath = self.datapath_nets, self.last_datapath_commit
        hazards = self.hazards
        h0 = len(hazards)
        watched, watch, trace = self.watched, self.watch, self.trace
        limit = self.default_limit if limit is None else limit
        unit, step = self._unit, 1 << shift
        last = len(groups) - 1
        commits = env = 0
        seen = False  # a watched net has committed in this call
        cur, nxt = [], []  # the per-step lists, empty between groups
        try:
            for gi, group in enumerate(groups):
                base = t << shift
                # stimuli commit now, in net order, ahead of every gate event
                # (whose delay is at least one)
                for c in group.codes:
                    if values[c >> 1] != c & 1:
                        pending[c >> 1] = key = base | c
                        cur.append(key)
                queued = len(cur)
                env += queued
                cap = commits + limit + queued
                if heap or not unit:
                    # the heap serves other delays, and finishes a call
                    # resumed after a tripped limit
                    for key in cur:
                        push(heap, key)
                    cur.clear()
                # the per-step lists: one sorted list of the keys due at step
                # ts; what a commit there schedules is due at ts + 1 and goes
                # on the next list
                ts = t
                while cur:
                    for key in cur:
                        net = key >> 1 & net_mask
                        if pending[net] != key:
                            continue  # superseded entry
                        if commits >= cap:
                            # the heap is empty; a resumed settle skips the
                            # entries that no longer match _pending
                            heap += cur
                            heap += nxt
                            heapq.heapify(heap)
                            raise NonQuiescenceError(f"no quiescence within {limit} events")
                        commits += 1
                        pending[net] = -1
                        t = ts
                        val = key & 1
                        values[net] = val  # a commit always flips its net
                        code[driver[net]] ^= 33  # flip cur, clear pending
                        if net < datapath:
                            last_datapath = t
                        if watched[net]:
                            seen = True
                            if watch is not None:
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
                                    p = base + sched[g] + (k & 1 ^ 1)
                                    pending[o] = p
                                    nxt.append(p)
                                k ^= 32
                            code[g] = k
                    if len(nxt) > 1:
                        nxt.sort()
                    cur, nxt = nxt, cur
                    nxt.clear()
                    ts += 1
                    base += step
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
                    if watched[net]:
                        seen = True
                        if watch is not None:
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
                if seen and gi < last and between is not None:
                    self.now, self.transitions = t, tr0 + commits
                    self.last_datapath_commit = last_datapath
                    between(gi)
        finally:
            self.now = t
            self.transitions = tr0 + commits
            self.last_datapath_commit = last_datapath
        return SettleReport(t - t0, commits, hazards[h0:], commits - env)

    def is_quiescent(self) -> bool:
        """True when no event is pending and no gate is excited."""
        # the spare slot is no gate; bit 5 (the pending flag) is no index bit
        return (max(self._pending, default=-1) < 0
                and all(NEXT_STATE[c & 31] == c & 1 for c in self._code[:-1]))


def initialize(netlist: Netlist, delay_model: DelayModel = UnitDelay()) -> SimState:
    """Build the reset-state simulation at time zero: every net, input rails
    included, at its ``net_init`` level.  The delays are resolved first, so a
    bad delay table is reported before a :class:`ValidationError`."""
    return SimState(netlist, delay_model.resolve(netlist))

