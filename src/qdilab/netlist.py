"""Gate-level netlist core for dual-rail asynchronous circuits.

A netlist is a flat list of gates over densely numbered integer nets.  Only
four primitives exist: 2-input AND/OR, an inverter, and the Muller C-element
(C2), which is kept as a sequential primitive rather than being expanded into
combinational feedback.  Every net is driven by exactly one gate or one
environment-facing port rail.  Each net's reset level is stored once, in
``Netlist.net_init``: return-to-one circuits reset to an all-ones spacer and
return-to-zero circuits to all-zeros.

Construction goes through :class:`NetlistBuilder`, which copies validated
blocks (:class:`Cell`) as whole instances and whose ``build()`` refuses a
netlist that fails structural validation.  Built netlists are treated as
immutable, so each caches its validation findings (``Netlist.validation``).
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from .encoding import is_bit

NetId = int


class NetlistError(Exception):
    """Base error for netlist construction and I/O."""


class ValidationError(NetlistError):
    """Raised when a netlist fails structural validation."""

    def __init__(self, findings: Sequence["Finding"]):
        self.findings = tuple(findings)
        super().__init__("; ".join(f.message for f in self.findings))


class FormatError(NetlistError):
    """Raised for malformed or inconsistent serialized netlists."""


class GateKind(str, Enum):
    AND2 = "AND2"
    OR2 = "OR2"
    INV = "INV"
    C2 = "C2"

    def __init__(self, value: str):
        self.arity = 1 if value == "INV" else 2  # the inputs a gate reads


# Every gate kind's Boolean function, written once: the next output value of
# a gate, indexed by its *code* ``_gate_code(kind, a, b, cur)``, where ``a``
# and ``b`` are its input values (an inverter reads ``a`` only) and ``cur``
# its present output (only the C-element, which holds on disagreement, uses it).
KIND_CODE = {GateKind.AND2: 0, GateKind.OR2: 1, GateKind.INV: 2, GateKind.C2: 3}
NEXT_STATE = (
    0, 0, 0, 0, 0, 0, 1, 1,  # AND2: a & b
    0, 0, 1, 1, 1, 1, 1, 1,  # OR2:  a | b
    1, 1, 1, 1, 0, 0, 0, 0,  # INV:  not a
    0, 0, 0, 1, 0, 1, 1, 1,  # C2:   a if a == b else cur
)


def _gate_code(kind: GateKind, a: int, b: int, cur: int) -> int:
    """The ``NEXT_STATE`` index of a ``kind`` gate at levels ``a``, ``b`` (inputs) and ``cur``."""
    return KIND_CODE[kind] << 3 | a << 2 | b << 1 | cur


class Gate(NamedTuple):  # id: position in ``Netlist.gates``; reset level: ``net_init[output]``
    kind: GateKind
    inputs: tuple[NetId, ...]
    output: NetId


@dataclass(frozen=True)
class DualRailPort:
    """A named dual-rail bundle: rail1 carries logical 1, rail0 logical 0."""

    name: str
    direction: str  # "input" | "output"
    rail1: NetId
    rail0: NetId
    const_value: int | None = None  # set for environment-tied constants

    @property
    def is_const(self) -> bool:
        return self.const_value is not None

    @property
    def rails(self) -> tuple[NetId, NetId]:
        return (self.rail1, self.rail0)


@dataclass(frozen=True)
class Finding:
    code: str
    message: str


@dataclass
class NetlistStats:
    counts: dict[str, int]
    total_gates: int
    area_proxy: float


@dataclass
class Netlist:
    """Immutable-after-build gate network.

    ``net_init`` is the one record of every net's reset level: a gate's
    output resets to ``net_init[gate.output]`` and an input port's rails to
    ``net_init[port.rail1]``.  Its length is the net count.
    """

    name: str
    gates: tuple[Gate, ...]
    ports: tuple[DualRailPort, ...]
    net_init: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def net_count(self) -> int:
        return len(self.net_init)

    @property
    def input_ports(self) -> list[DualRailPort]:
        return [p for p in self.ports if p.direction == "input" and not p.is_const]

    @property
    def const_ports(self) -> list[DualRailPort]:
        return [p for p in self.ports if p.is_const]

    @property
    def output_ports(self) -> list[DualRailPort]:
        return [p for p in self.ports if p.direction == "output"]

    def port(self, name: str) -> DualRailPort:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(name)

    @cached_property
    def compiled(self) -> "CompiledNetlist":
        """The flat form the simulator runs on, built on first use from the
        validated netlist: an invalid one raises :class:`ValidationError`
        with its cached findings, on every use."""
        return CompiledNetlist(self.validated())

    @cached_property
    def validation(self) -> tuple[Finding, ...]:
        """``validate``'s findings, computed on first use: empty when valid."""
        return validate(self)

    def validated(self) -> "Netlist":
        """This netlist, or :class:`ValidationError` with its cached findings."""
        if self.validation:
            raise ValidationError(self.validation)
        return self


class CompiledNetlist:
    """A valid netlist flattened into per-gate and per-net arrays.

    Gate ``g`` with inputs ``(a, b)`` (an inverter's ``b`` repeats its
    ``a``) and output ``o`` computes ``NEXT_STATE[_gate_code(kind, v[a],
    v[b], v[o])]`` over net values ``v``.  ``code`` holds that index, the
    gate's *code*, at the ``net_init`` levels; the simulator copies it and
    keeps it up to date instead of rebuilding it: ``fanout[n]`` lists, in
    gate order, one ``(gate, mask, out)`` entry per gate reading net ``n``,
    where ``mask`` holds the index bits that ``n`` sets (4 for ``a``, 2 for
    ``b``, 6 when the gate reads ``n`` on both, as every inverter does) and
    ``out`` is the gate's output net.  ``driver[n]`` is the gate driving net
    ``n``, whose ``cur`` bit (1) a change of ``n`` flips; the rails of input
    ports, the only nets no gate drives, all map to ``len(gates)``, one past
    the last gate.  Gates are indexed by position, which is their id.
    """

    __slots__ = ("fanout", "driver", "code")

    def __init__(self, netlist: Netlist):
        gates, init = netlist.gates, netlist.net_init
        fanout: list[list[tuple[int, int, int]]] = [[] for _ in range(netlist.net_count)]
        self.driver = [len(gates)] * netlist.net_count
        self.code = code = []
        for i, (kind, ins, o) in enumerate(gates):
            a, b = ins[0], ins[-1]
            if a == b:
                fanout[a].append((i, 6, o))
            else:
                fanout[a].append((i, 4, o))
                fanout[b].append((i, 2, o))
            self.driver[o] = i
            code.append(_gate_code(kind, init[a], init[b], init[o]))
        self.fanout = [tuple(f) for f in fanout]


def _port_findings(ports: Sequence[DualRailPort], net_init: Sequence[int]) -> list[Finding]:
    """The port checks of ``validate``: unique names, known directions, bit
    constants on input ports only, two distinct rails in range and, on an
    input port, rails that reset to one level (its one ``"init"`` in JSON)."""
    findings: list[Finding] = []
    n = len(net_init)
    names: set[str] = set()
    for p in ports:
        if p.name in names:
            findings.append(Finding("port-name", f"port name {p.name!r} is used twice"))
        names.add(p.name)
        if p.direction not in ("input", "output"):
            findings.append(Finding("port-dir", f"port {p.name} has direction {p.direction!r}"))
        elif p.direction == "output" and p.const_value is not None:
            findings.append(Finding("port-dir", f"output port {p.name} carries a constant"))
        if p.const_value is not None and not is_bit(p.const_value):
            findings.append(Finding("init-value", f"port {p.name} constant {p.const_value} is not a bit"))
        outside = [rail for rail in p.rails if not 0 <= rail < n]
        for rail in outside:
            findings.append(Finding("net-range", f"port {p.name} references net {rail} outside 0..{n - 1}"))
        if p.rail1 == p.rail0:
            findings.append(Finding("port-rails", f"port {p.name} uses one net for both rails"))
        elif p.direction == "input" and not outside and net_init[p.rail1] != net_init[p.rail0]:
            findings.append(Finding("init-value", f"port {p.name} rails reset to "
                                    f"{net_init[p.rail1]} and {net_init[p.rail0]}"))
    return findings


def validate(netlist: Netlist) -> tuple[Finding, ...]:
    """The findings, none if valid, of the structural checks: bit levels,
    arity, net ranges, ``_port_findings``, single drivers, init consistency,
    and acyclicity of the combinational subgraph (every feedback loop must
    pass through a C2).  Gates are named by position."""
    net_init, gates = netlist.net_init, netlist.gates
    n = len(net_init)
    findings = [Finding("init-value", f"net {net} resets to {level}, not a bit")
                for net, level in enumerate(net_init) if not is_bit(level)]
    bit_levels = not findings

    for gid, (kind, ins, out) in enumerate(gates):
        if len(ins) != kind.arity:
            findings.append(Finding("arity", f"gate {gid} ({kind.value}) has {len(ins)} inputs"))
        for net in (*ins, out):
            if not 0 <= net < n:
                findings.append(Finding("net-range", f"gate {gid} references net {net} outside 0..{n - 1}"))
    findings += _port_findings(netlist.ports, net_init)
    if not bit_levels or any(f.code == "net-range" for f in findings):
        return tuple(findings)  # later checks need in-range ids and bit levels

    # every net has one driver, a gate output or an input-port rail
    drivers: list[list[str]] = [[] for _ in range(n)]
    for gid, gate in enumerate(gates):
        drivers[gate.output].append(f"gate {gid}")
    for p in netlist.ports:
        if p.direction == "input":
            for rail in p.rails:
                drivers[rail].append(f"port {p.name}")
    for net, names in enumerate(drivers):
        if len(names) > 1:
            findings.append(Finding("multi-driver", f"net {net} driven by {', '.join(names)}"))
        elif not names:
            findings.append(Finding("undriven", f"net {net} has no driver"))

    # init consistency: no gate may be excited at its inputs' reset levels,
    # so a combinational gate resets to its function of them and a C2 whose
    # two inputs agree resets to their level (over disagreeing ones it holds
    # either init).  The same pass lists the non-C2 gates reading each net.
    c2 = GateKind.C2
    comb = []  # the non-C2 gates
    readers: list[list[int]] = [[] for _ in range(n)]
    for i, (kind, ins, out) in enumerate(gates):
        if len(ins) == kind.arity:
            init = net_init[out]
            expect = NEXT_STATE[_gate_code(kind, net_init[ins[0]], net_init[ins[-1]], init)]
            if init != expect:
                findings.append(Finding(
                    "init-inconsistent",
                    f"gate {i} ({kind.value}) init {init} but inputs reset to {expect}"))
        if kind is not c2:
            comb.append(i)
            for net in ins:
                readers[net].append(i)
    # combinational cycles, by Kahn's peel: a non-C2 gate waits once for
    # each non-C2 driver of each input it reads and is peeled off when none
    # is left; gates never peeled lie on or behind a loop.  A C2 neither
    # waits nor is waited for, so a loop broken by a C2 output is legal.
    waits = [0] * len(gates)
    for i in comb:
        for r in readers[gates[i].output]:
            waits[r] += 1
    ready = [i for i in comb if not waits[i]]
    for i in ready:  # grows while it is walked
        for r in readers[gates[i].output]:
            waits[r] -= 1
            if not waits[r]:
                ready.append(r)
    stuck = [i for i, w in enumerate(waits) if w]
    if stuck:
        findings.append(Finding("comb-cycle", f"gates {stuck} lie on or behind a combinational cycle"))
    return tuple(findings)


def _inputs_getter(inputs: tuple[NetId, ...]) -> Callable[[Sequence[NetId]], tuple[NetId, ...]]:
    """A function from a net table to the table's entries at ``inputs``, as a tuple."""
    if len(inputs) == 1:
        (a,) = inputs
        return lambda table: (table[a],)
    return itemgetter(*inputs)


class Cell:
    """A validated block in the layout ``NetlistBuilder.add_instance`` copies.

    The layout is checked once, here: the rails of the input ports (no
    constants) are nets ``0..2k-1`` in port order, gate ``i`` drives net
    ``2k + i``, and there is no other net.  A net table of the instance's
    ``2k`` driving rails followed by one fresh net per gate then renumbers
    every net, so each gate's copy template is its kind and a getter of its
    renumbered inputs from that table; ``inits`` holds the gates' reset
    levels, in gate order, which the fresh nets take.  Raises
    :class:`ValidationError` for a netlist that fails validation and
    :class:`NetlistError` for one in another layout.
    """

    __slots__ = ("name", "levels", "inits", "outputs", "_template")

    def __init__(self, netlist: Netlist):
        gates = netlist.validated().gates
        inputs = [p for p in netlist.ports if p.direction == "input"]
        k = 2 * len(inputs)
        if (any(p.is_const or p.rails != (2 * j, 2 * j + 1) for j, p in enumerate(inputs))
                or netlist.net_count != k + len(gates)
                or any(g.output != k + i for i, g in enumerate(gates))):
            raise NetlistError(f"cell {netlist.name!r} is not laid out as its input "
                               "rails, then one net per gate in gate order")
        self.name = netlist.name
        self.levels = netlist.net_init[:k]  # the reset level of each input rail
        self.inits = netlist.net_init[k:]  # each gate's init, in gate order
        self.outputs = tuple(p.rails for p in netlist.output_ports)
        self._template = tuple((g.kind, _inputs_getter(g.inputs)) for g in gates)


class NetlistBuilder:
    """Accumulates gates and ports, then emits a validated Netlist.

    The builder vouches for its netlist while every step checked, as it went,
    what ``validate`` would check of what it added: ``add_gate`` with a
    derived init, ``add_instance`` of a validated cell, ``new_net`` and the
    ``add_*_port`` methods with bit inits, and ``from_netlist`` of a valid
    base.  Each gate and input rail they add drives one fresh net from older
    nets (or, inside an instance, the instance's own), so no net has two
    drivers and every combinational cycle would lie inside a validated block.
    ``build()`` then checks only ``validate``'s port checks and that the net
    count is twice the input ports plus the gates (a stray ``new_net`` breaks
    it).  ``wire_gate``, an explicit gate init, a net init that is not a
    bit, and ``from_netlist`` of an invalid base drop the vouch, and
    ``build()`` runs ``validate`` instead, so an invalid netlist raises the
    same findings either way.
    """

    def __init__(self, name: str = "", metadata: dict | None = None):
        self.name = name
        self.metadata = dict(metadata or {})
        self._gates: list[Gate] = []
        self._ports: list[DualRailPort] = []
        self._net_init: list[int] = []
        self._vouched = True

    @classmethod
    def from_netlist(cls, base: Netlist, name: str | None = None) -> "NetlistBuilder":
        b = cls(name if name is not None else base.name, dict(base.metadata))
        b._gates = list(base.gates)
        b._ports = list(base.ports)
        b._net_init = list(base.net_init)
        b._vouched = not base.validation
        return b

    @property
    def net_count(self) -> int:
        return len(self._net_init)

    def new_net(self, init: int = 0) -> NetId:
        if not is_bit(init):
            self._vouched = False  # leave a net init that is not a bit to validate
        self._net_init.append(init)
        return len(self._net_init) - 1

    def add_gate(self, kind: GateKind, inputs: Sequence[NetId], init: int | None = None) -> NetId:
        """Append a gate on a fresh output net and return that net.

        ``init`` may be omitted: it is then read from ``NEXT_STATE`` at the
        inputs' reset levels, which must be bits, and is left open only for
        a C2 over disagreeing inputs.  An explicit init drops the builder's
        vouch.
        """
        kind = GateKind(kind)
        inputs = tuple(inputs)
        if len(inputs) != kind.arity:
            raise NetlistError(f"{kind.value} takes {kind.arity} inputs, got {len(inputs)}")
        net_init = self._net_init
        out = len(net_init)  # the fresh output net
        for net in inputs:
            if not 0 <= net < out:
                raise NetlistError(f"unknown net {net}")
            if init is None and not is_bit(net_init[net]):
                raise NetlistError(f"net {net} resets to {net_init[net]!r}, not a bit")
        if init is None:
            code = _gate_code(kind, net_init[inputs[0]], net_init[inputs[-1]], 0)
            init = NEXT_STATE[code]
            if NEXT_STATE[code | 1] != init:  # the gate holds either value
                raise NetlistError("C2 with disagreeing input resets needs an explicit init")
        else:
            self._vouched = False  # an explicit init goes to validate
        net_init.append(init)
        self._gates.append(Gate(kind, inputs, out))
        return out

    def add_instance(self, cell: Cell, inputs: Sequence[tuple[NetId, NetId]]
                     ) -> list[tuple[NetId, NetId]]:
        """Copy ``cell``'s gates onto existing rails and return the rails of
        its output ports, renumbered.

        ``inputs`` gives one ``(rail1, rail0)`` pair per input port of the
        cell, in port order; each gate gets one fresh output net, in gate
        order, which resets to the cell gate's level.  Those levels hold because
        every driving rail must reset to the level of the cell input it
        replaces, which is checked once per instance, so an instance keeps
        the builder's vouch.
        """
        table = [net for rails in inputs for net in rails]
        net_init = self._net_init
        base = len(net_init)  # the first gate's fresh output net
        if len(table) != len(cell.levels) or any(len(rails) != 2 for rails in inputs):
            raise NetlistError(f"cell {cell.name} takes {len(cell.levels) // 2} rail pairs, "
                               f"got {list(inputs)}")
        for net, level in zip(table, cell.levels):
            if not 0 <= net < base:
                raise NetlistError(f"unknown net {net}")
            if net_init[net] != level:
                raise NetlistError(f"cell {cell.name} needs inputs that reset to "
                                   f"{level}; net {net} resets to {net_init[net]}")
        outs = range(base, base + len(cell.inits))
        table.extend(outs)
        new = tuple.__new__  # a Gate without the Python-level NamedTuple constructor
        self._gates.extend([new(Gate, (kind, ins(table), out))
                            for out, (kind, ins) in zip(outs, cell._template)])
        net_init.extend(cell.inits)
        return [(table[r1], table[r0]) for r1, r0 in cell.outputs]

    def wire_gate(self, kind: GateKind, inputs: Sequence[NetId], output: NetId, init: int) -> None:
        """Low-level manual wiring onto an existing net.  Unlike ``add_gate``
        this can express structural violations, so it drops the builder's
        vouch and ``build()`` runs ``validate``."""
        self._vouched = False
        kind = GateKind(kind)
        self._gates.append(Gate(kind, tuple(inputs), output))
        if 0 <= output < self.net_count:
            self._net_init[output] = init

    def add_input_port(self, name: str, init: int = 0) -> DualRailPort:
        port = DualRailPort(name, "input", self.new_net(init), self.new_net(init))
        self._ports.append(port)
        return port

    def add_const_port(self, name: str, value: int, init: int = 0) -> DualRailPort:
        port = DualRailPort(name, "input", self.new_net(init), self.new_net(init), value)
        self._ports.append(port)
        return port

    def add_output_port(self, name: str, rail1: NetId, rail0: NetId) -> DualRailPort:
        port = DualRailPort(name, "output", rail1, rail0)
        self._ports.append(port)
        return port

    def reduce_tree(self, kind: GateKind, nets: Sequence[NetId]) -> NetId:
        """Balanced binary reduction of ``nets`` with 2-input gates of ``kind``.

        A single net is returned unchanged; k nets cost exactly k-1 gates at
        depth ceil(log2 k).  Operand order is fixed by the caller, which pins
        down latencies and keeps emission deterministic.
        """
        if not nets:
            raise NetlistError("reduce_tree needs at least one net")
        level = list(nets)
        while len(level) > 1:
            nxt = [self.add_gate(kind, (level[i], level[i + 1]))
                   for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def build(self) -> Netlist:
        """The netlist, or :class:`ValidationError` with ``validate``'s findings."""
        netlist = self.build_unchecked()
        ports, n = self._ports, len(self._net_init)
        inputs = sum(p.direction == "input" for p in ports)
        if (self._vouched and n == 2 * inputs + len(self._gates)  # no stray new_net
                and not _port_findings(ports, self._net_init)):
            netlist.validation = ()  # what validate would report
            return netlist
        return netlist.validated()

    def build_unchecked(self) -> Netlist:
        return Netlist(self.name, tuple(self._gates), tuple(self._ports),
                       tuple(self._net_init), dict(self.metadata))


def check_int(value: int, what: str, least: int = 0) -> int:
    """``value``, if it is an int (no bool) of at least ``least``; else
    ``ValueError``: the one rule for every width, seed, count and delay.
    A refused value is shown by ``reprlib.repr``, bounded however deep it nests."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {reprlib.repr(value)}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def check_weights(weights: Mapping[str, float]) -> Mapping[str, float]:
    """``weights``, if each names a gate kind and is an int or float that a
    float holds, at least 0, and not a bool; else ``ValueError``."""
    unknown = sorted(set(weights) - {k.value for k in GateKind})
    if unknown:
        raise ValueError(f"unknown gate kinds in weights: {unknown}")
    bad = {k: w for k, w in weights.items() if isinstance(w, bool)
           or not (isinstance(w, (int, float)) and 0 <= w <= sys.float_info.max)}
    if bad:
        raise ValueError(f"area weights must be finite numbers >= 0, got {bad}")
    return weights


def stats(netlist: Netlist, weights: dict[str, float] | None = None) -> NetlistStats:
    """Per-kind gate counts and a weighted area proxy (default weight 1.0)."""
    weights = check_weights(weights or {})
    counts = {k.value: sum(g.kind is k for g in netlist.gates) for k in GateKind}
    area = sum(counts[k] * float(weights.get(k, 1.0)) for k in counts)
    return NetlistStats(counts=counts, total_gates=len(netlist.gates), area_proxy=area)


def structurally_equal(a: Netlist, b: Netlist) -> bool:
    """Equality over gates, ports, and reset levels, ignoring name/metadata."""
    return a.gates == b.gates and a.ports == b.ports and a.net_init == b.net_init


_DUAL_KIND = {GateKind.AND2: GateKind.OR2, GateKind.OR2: GateKind.AND2,
              GateKind.INV: GateKind.INV, GateKind.C2: GateKind.C2}


def dual_of(netlist: Netlist) -> Netlist:
    """Protocol dual: swap AND2/OR2 and complement every reset level; the
    ports are the same."""
    gates = tuple(Gate(_DUAL_KIND[kind], ins, out) for kind, ins, out in netlist.gates)
    return Netlist(netlist.name, gates, netlist.ports, tuple(v ^ 1 for v in netlist.net_init),
                   dict(netlist.metadata))


# ---------------------------------------------------------------------------
# serialization

def to_json(netlist: Netlist) -> str:
    doc = {
        "name": netlist.name,
        "net_count": netlist.net_count,
        "gates": [
            {"id": gid, "kind": g.kind.value, "inputs": list(g.inputs),
             "output": g.output, "init": _level(netlist.net_init[g.output])}
            for gid, g in enumerate(netlist.gates)
        ],
        "ports": [_port_doc(p, netlist.net_init) for p in netlist.ports],
        "meta": netlist.metadata,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _port_doc(p: DualRailPort, net_init: Sequence[int]) -> dict:
    doc = {"name": p.name, "dir": p.direction, "rail1": p.rail1, "rail0": p.rail0}
    if p.const_value is not None:
        doc["const_value"] = _level(p.const_value)
    if p.direction == "input":
        doc["init"] = _level(net_init[p.rail1])
    return doc


def _level(value):
    """A bit as the JSON integer it equals (``True`` as 1), anything else as is."""
    return int(value) if is_bit(value) else value


def _int(value) -> int:
    """A JSON integer field: a float, string or boolean is not one."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {reprlib.repr(value)}")
    return value


def _str(value) -> str:
    """A JSON string field: a number, boolean or null is not one."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {reprlib.repr(value)}")
    return value


def _gate_from_doc(i: int, g: dict) -> tuple[Gate, int]:
    if not isinstance(g["inputs"], list):
        raise TypeError(f"inputs must be a list, got {reprlib.repr(g['inputs'])}")
    if "id" in g and _int(g["id"]) != i:
        raise ValueError(f"id {g['id']} is not its position {i}")
    return (Gate(GateKind(_str(g["kind"])), tuple(map(_int, g["inputs"])), _int(g["output"])),
            _int(g["init"]))


def _port_from_doc(_i: int, p: dict) -> tuple[DualRailPort, int]:
    return (DualRailPort(_str(p["name"]), _str(p["dir"]), _int(p["rail1"]), _int(p["rail0"]),
                         _int(p["const_value"]) if "const_value" in p else None),
            _int(p.get("init", 0)))


def _entries(docs, what: str, load: Callable[[int, dict], tuple]) -> list[tuple]:
    """Load a list of gate or port entries, each an object and the reset
    level its document gives, naming the entry that is malformed."""
    if not isinstance(docs, list):
        raise FormatError(f"{what}s must be a list")
    out = []
    for i, d in enumerate(docs):
        if not isinstance(d, dict):
            raise FormatError(f"{what} entry {i} is not an object")
        try:
            out.append(load(i, d))
        except KeyError as e:
            raise FormatError(f"{what} entry {i} lacks key {e}") from None
        except (TypeError, ValueError) as e:
            raise FormatError(f"{what} entry {i}: {e}") from None
    return out


def from_json(text: str) -> Netlist:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nested too deeply
        raise FormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError("top-level value must be an object")
    try:
        net_count = _int(doc["net_count"])
        name = _str(doc.get("name", ""))
        meta = doc.get("meta", {})
        gate_docs = doc["gates"]
        port_docs = doc["ports"]
    except KeyError as e:
        raise FormatError(f"missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise FormatError(f"bad top-level value: {e}") from e
    if not isinstance(meta, dict):
        raise FormatError(f"meta must be an object, got {reprlib.repr(meta)}")
    gates = _entries(gate_docs, "gate", _gate_from_doc)
    ports = _entries(port_docs, "port", _port_from_doc)
    # every net has exactly one driver: a gate output or an input-port rail
    drivers = len(gates) + 2 * sum(p.direction == "input" for p, _ in ports)
    if not 0 <= net_count <= drivers:
        raise FormatError(f"net_count {net_count} outside 0..{drivers}, the "
                          "number of gate outputs and input rails")

    # each driver's level; validate judges the nets out of range
    level = {rail: init for p, init in ports if p.direction == "input" for rail in p.rails}
    level.update((g.output, init) for g, init in gates)
    return Netlist(name, tuple(g for g, _ in gates), tuple(p for p, _ in ports),
                   tuple(level.get(net, 0) for net in range(net_count)), meta).validated()


def _quoted(text: str) -> str:
    """``text`` as a Graphviz quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(netlist: Netlist) -> str:
    """Graphviz rendering: one node per gate and per port, one edge per net
    consumer.  Ordering follows gate positions and port declaration order so
    the output is byte-stable.  A port node's ID is ``p_<name>``, quoted
    unless the name is all letters, digits and underscores."""
    def node(p: DualRailPort) -> str:
        return f"p_{p.name}" if re.fullmatch(r"[A-Za-z0-9_]+", p.name) else _quoted(f"p_{p.name}")

    driver_node = {g.output: f"g{gid}" for gid, g in enumerate(netlist.gates)}
    driver_node.update((rail, node(p)) for p in netlist.ports
                       if p.direction == "input" for rail in p.rails)

    lines = ["digraph netlist {", "  rankdir=LR;"]
    for p in netlist.ports:
        shape = "invhouse" if p.direction == "input" else "house"
        label = f"{p.name}={p.const_value}" if p.is_const else f"{p.name} [{p.direction}]"
        lines.append(f"  {node(p)} [shape={shape} label={_quoted(label)}];")
    for gid, g in enumerate(netlist.gates):
        lines.append(f'  g{gid} [shape=box label="{g.kind.value}#{gid}"];')
    for gid, g in enumerate(netlist.gates):
        for net in g.inputs:
            src = driver_node.get(net)
            if src is not None:
                lines.append(f'  {src} -> g{gid} [label="n{net}"];')
    for p in netlist.ports:
        if p.direction == "output":
            for net in (p.rail1, p.rail0):
                src = driver_node.get(net)
                if src is not None:
                    lines.append(f'  {src} -> {node(p)} [label="n{net}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
