"""Gate-level netlist core for dual-rail asynchronous circuits.

A netlist is a flat list of gates over densely numbered integer nets.  Only
four primitives exist: 2-input AND/OR, an inverter, and the Muller C-element
(C2), which is kept as a sequential primitive rather than being expanded into
combinational feedback.  Every net is driven by exactly one gate or one
environment-facing port rail.  Gate reset values are stored explicitly because
circuits using the return-to-one discipline reset to an all-ones spacer while
return-to-zero circuits reset to all-zeros.

Construction goes through :class:`NetlistBuilder`; ``build()`` refuses to hand
out a netlist that fails structural validation.  Built netlists are treated as
immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

NetId = int


class NetlistError(Exception):
    """Base error for netlist construction and I/O."""


class ValidationError(NetlistError):
    """Raised when a netlist fails structural validation."""

    def __init__(self, findings: Sequence["Finding"]):
        self.findings = list(findings)
        super().__init__("; ".join(f.message for f in self.findings))


class FormatError(NetlistError):
    """Raised for malformed or inconsistent serialized netlists."""


class GateKind(str, Enum):
    AND2 = "AND2"
    OR2 = "OR2"
    INV = "INV"
    C2 = "C2"

    @property
    def arity(self) -> int:
        return 1 if self is GateKind.INV else 2

    @property
    def is_combinational(self) -> bool:
        return self is not GateKind.C2


# Every gate kind's Boolean function, written once: the next output value of
# a gate, indexed by ``KIND_CODE[kind] << 3 | a << 2 | b << 1 | cur`` where
# ``a``/``b`` are its input values (an inverter reads ``a`` only) and ``cur``
# its present output (only the C-element, which holds on disagreement, uses it).
KIND_CODE = {GateKind.AND2: 0, GateKind.OR2: 1, GateKind.INV: 2, GateKind.C2: 3}
NEXT_STATE = (
    0, 0, 0, 0, 0, 0, 1, 1,  # AND2: a & b
    0, 0, 1, 1, 1, 1, 1, 1,  # OR2:  a | b
    1, 1, 1, 1, 0, 0, 0, 0,  # INV:  not a
    0, 0, 0, 1, 0, 1, 1, 1,  # C2:   a if a == b else cur
)


def eval_combinational(kind: GateKind, values: Sequence[int]) -> int:
    """Boolean function of a combinational kind; C2 has no combinational value."""
    if kind is GateKind.C2:
        raise ValueError(f"{kind.value} is not combinational")
    return NEXT_STATE[KIND_CODE[kind] << 3 | values[0] << 2 | values[-1] << 1]


@dataclass(frozen=True)
class Gate:
    id: int
    kind: GateKind
    inputs: tuple[NetId, ...]
    output: NetId
    init: int  # reset value of the output net


@dataclass(frozen=True)
class DualRailPort:
    """A named dual-rail bundle: rail1 carries logical 1, rail0 logical 0."""

    name: str
    direction: str  # "input" | "output"
    rail1: NetId
    rail0: NetId
    const_value: int | None = None  # set for environment-tied constants
    init: int = 0  # reset level of the rails (input/const ports only)

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
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass
class NetlistStats:
    counts: dict[str, int]
    total_gates: int
    area_proxy: float


@dataclass
class Netlist:
    """Immutable-after-build gate network.

    ``net_init`` records the reset value of every net: gate outputs from the
    gate's stored init, port-driven rails from the owning port's init level.
    """

    name: str
    net_count: int
    gates: tuple[Gate, ...]
    ports: tuple[DualRailPort, ...]
    net_init: tuple[int, ...]
    metadata: dict = field(default_factory=dict)

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
        """The flat form the simulator runs on, built on first use."""
        return CompiledNetlist(self)


class CompiledNetlist:
    """A netlist flattened into per-gate and per-net arrays.

    Gate ``g`` computes ``NEXT_STATE[kind[g] | v[in0[g]] << 2 | v[in1[g]] << 1
    | v[out[g]]]`` over net values ``v``; ``kind`` already holds the shifted
    kind code, and an inverter's ``in1`` repeats its ``in0``.  ``consumers[n]``
    lists the gates reading net ``n`` in gate order; ``env[n]`` is true for
    the rails of input ports.  Gates are indexed by position, which
    validation requires to equal ``Gate.id``.
    """

    __slots__ = ("kind", "in0", "in1", "out", "consumers", "env")

    def __init__(self, netlist: Netlist):
        gates = netlist.gates
        self.kind = [KIND_CODE[g.kind] << 3 for g in gates]
        self.in0 = [g.inputs[0] for g in gates]
        self.in1 = [g.inputs[-1] for g in gates]
        self.out = [g.output for g in gates]
        consumers: list[list[int]] = [[] for _ in range(netlist.net_count)]
        for i, g in enumerate(gates):
            for net in set(g.inputs):
                consumers[net].append(i)
        self.consumers = [tuple(c) for c in consumers]
        self.env = [False] * netlist.net_count
        for p in netlist.ports:
            if p.direction == "input":
                self.env[p.rail1] = self.env[p.rail0] = True


def _drivers(netlist: Netlist) -> dict[NetId, list[str]]:
    """Map each net to the labels of everything driving it."""
    drivers: dict[NetId, list[str]] = {n: [] for n in range(netlist.net_count)}
    for g in netlist.gates:
        if 0 <= g.output < netlist.net_count:
            drivers[g.output].append(f"gate {g.id}")
    for p in netlist.ports:
        if p.direction == "input":
            for rail in p.rails:
                if 0 <= rail < netlist.net_count:
                    drivers[rail].append(f"port {p.name}")
    return drivers


def validate(netlist: Netlist) -> ValidationReport:
    """Structural checks: gate ids equal to positions, arity, net ranges,
    port directions, bit-valued inits and constants, single drivers, init
    consistency, and acyclicity of the combinational subgraph (every
    feedback loop must pass through a C2)."""
    findings: list[Finding] = []
    n = netlist.net_count

    for i, g in enumerate(netlist.gates):
        if g.id != i:
            # delay tables key gates by id, the simulator by position
            findings.append(Finding("gate-id", f"gate at position {i} has id {g.id}"))
        if len(g.inputs) != g.kind.arity:
            findings.append(Finding("arity", f"gate {g.id} ({g.kind.value}) has {len(g.inputs)} inputs"))
        for net in (*g.inputs, g.output):
            if not 0 <= net < n:
                findings.append(Finding("net-range", f"gate {g.id} references net {net} outside 0..{n - 1}"))
        if g.init not in (0, 1):
            findings.append(Finding("init-value", f"gate {g.id} init {g.init} is not a bit"))
    for p in netlist.ports:
        if p.direction not in ("input", "output"):
            findings.append(Finding("port-dir", f"port {p.name} has direction {p.direction!r}"))
        if p.init not in (0, 1) or p.const_value not in (None, 0, 1):
            findings.append(Finding("init-value", f"port {p.name} init {p.init} or "
                                    f"constant {p.const_value} is not a bit"))
        for rail in p.rails:
            if not 0 <= rail < n:
                findings.append(Finding("net-range", f"port {p.name} references net {rail} outside 0..{n - 1}"))
        if p.rail1 == p.rail0:
            findings.append(Finding("port-rails", f"port {p.name} uses one net for both rails"))
    if any(f.code in ("net-range", "init-value") for f in findings):
        return ValidationReport(findings)  # later checks need in-range ids and bit inits

    drivers = _drivers(netlist)
    for net, who in drivers.items():
        if len(who) > 1:
            findings.append(Finding("multi-driver", f"net {net} driven by {', '.join(who)}"))
        elif not who:
            findings.append(Finding("undriven", f"net {net} has no driver"))

    # init consistency: combinational gates must reset to the value their
    # input reset levels imply.
    for g in netlist.gates:
        if g.kind.is_combinational and len(g.inputs) == g.kind.arity:
            expect = eval_combinational(g.kind, [netlist.net_init[i] for i in g.inputs])
            if g.init != expect:
                findings.append(Finding(
                    "init-inconsistent",
                    f"gate {g.id} ({g.kind.value}) init {g.init} but inputs reset to {expect}"))

    # combinational cycles: edges between combinational gates only, so any
    # loop broken by a C2 output is legal.
    comb = [g for g in netlist.gates if g.kind.is_combinational]
    by_output = {g.output: g.id for g in comb}
    succ: dict[int, list[int]] = {g.id: [] for g in comb}
    for g in comb:
        for net in g.inputs:
            src = by_output.get(net)
            if src is not None:
                succ[src].append(g.id)
    state: dict[int, int] = {}  # 0 visiting, 1 done
    for start in succ:
        if start in state:
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in state:
                    state[nxt] = 0
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
                if state[nxt] == 0:
                    findings.append(Finding("comb-cycle", f"combinational cycle through gate {nxt}"))
                    state[nxt] = 1
            if not advanced:
                state[node] = 1
                stack.pop()
    return ValidationReport(findings)


class NetlistBuilder:
    """Accumulates gates and ports, then emits a validated Netlist."""

    def __init__(self, name: str = "", metadata: dict | None = None):
        self.name = name
        self.metadata = dict(metadata or {})
        self._gates: list[Gate] = []
        self._ports: list[DualRailPort] = []
        self._net_init: list[int] = []

    @classmethod
    def from_netlist(cls, base: Netlist, name: str | None = None) -> "NetlistBuilder":
        b = cls(name if name is not None else base.name, dict(base.metadata))
        b._gates = list(base.gates)
        b._ports = list(base.ports)
        b._net_init = list(base.net_init)
        return b

    @property
    def net_count(self) -> int:
        return len(self._net_init)

    def new_net(self, init: int = 0) -> NetId:
        self._net_init.append(init)
        return len(self._net_init) - 1

    def add_gate(self, kind: GateKind, inputs: Sequence[NetId], init: int | None = None) -> NetId:
        """Append a gate on a fresh output net and return that net.

        ``init`` may be omitted: combinational kinds derive it from their
        input reset levels; a C2 derives it only when its inputs agree.
        """
        kind = GateKind(kind)
        if len(inputs) != kind.arity:
            raise NetlistError(f"{kind.value} takes {kind.arity} inputs, got {len(inputs)}")
        for net in inputs:
            if not 0 <= net < self.net_count:
                raise NetlistError(f"unknown net {net}")
        if init is None:
            ins = [self._net_init[i] for i in inputs]
            if kind.is_combinational:
                init = eval_combinational(kind, ins)
            elif ins[0] == ins[1]:
                init = ins[0]
            else:
                raise NetlistError("C2 with disagreeing input resets needs an explicit init")
        out = self.new_net(init)
        self._gates.append(Gate(len(self._gates), kind, tuple(inputs), out, init))
        return out

    def wire_gate(self, kind: GateKind, inputs: Sequence[NetId], output: NetId, init: int) -> None:
        """Low-level manual wiring onto an existing net.  Unlike ``add_gate``
        this can express structural violations; validation still gets the
        final say at ``build()`` time."""
        kind = GateKind(kind)
        self._gates.append(Gate(len(self._gates), kind, tuple(inputs), output, init))
        if 0 <= output < self.net_count:
            self._net_init[output] = init

    def add_input_port(self, name: str, init: int = 0) -> DualRailPort:
        port = DualRailPort(name, "input", self.new_net(init), self.new_net(init), None, init)
        self._ports.append(port)
        return port

    def add_const_port(self, name: str, value: int, init: int = 0) -> DualRailPort:
        port = DualRailPort(name, "input", self.new_net(init), self.new_net(init), value, init)
        self._ports.append(port)
        return port

    def add_output_port(self, name: str, rail1: NetId, rail0: NetId) -> DualRailPort:
        port = DualRailPort(name, "output", rail1, rail0)
        self._ports.append(port)
        return port

    def reduce_tree(self, kind: GateKind, nets: Sequence[NetId], init: int | None = None) -> NetId:
        """Balanced binary reduction of ``nets`` with 2-input gates of ``kind``.

        A single net is returned unchanged; k nets cost exactly k-1 gates at
        depth ceil(log2 k).  Operand order is fixed by the caller, which pins
        down latencies and keeps emission deterministic.
        """
        if not nets:
            raise NetlistError("reduce_tree needs at least one net")
        level = list(nets)
        while len(level) > 1:
            nxt = [self.add_gate(kind, (level[i], level[i + 1]), init)
                   for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def _freeze(self) -> Netlist:
        return Netlist(
            name=self.name,
            net_count=self.net_count,
            gates=tuple(self._gates),
            ports=tuple(self._ports),
            net_init=tuple(self._net_init),
            metadata=dict(self.metadata),
        )

    def build(self) -> Netlist:
        netlist = self._freeze()
        report = validate(netlist)
        if not report.ok:
            raise ValidationError(report.findings)
        return netlist

    def build_unchecked(self) -> Netlist:
        return self._freeze()


def stats(netlist: Netlist, weights: dict[str, float] | None = None) -> NetlistStats:
    """Per-kind gate counts and a weighted area proxy (default weight 1.0)."""
    counts = {k.value: 0 for k in GateKind}
    for g in netlist.gates:
        counts[g.kind.value] += 1
    weights = weights or {}
    area = sum(counts[k] * float(weights.get(k, 1.0)) for k in counts)
    return NetlistStats(counts=counts, total_gates=len(netlist.gates), area_proxy=area)


def structurally_equal(a: Netlist, b: Netlist) -> bool:
    """Equality over gates, ports, and reset levels, ignoring name/metadata."""
    return (a.net_count == b.net_count and a.gates == b.gates
            and a.ports == b.ports and a.net_init == b.net_init)


_DUAL_KIND = {GateKind.AND2: GateKind.OR2, GateKind.OR2: GateKind.AND2,
              GateKind.INV: GateKind.INV, GateKind.C2: GateKind.C2}


def dual_of(netlist: Netlist) -> Netlist:
    """Protocol dual: swap AND2/OR2 and complement every reset level."""
    gates = tuple(replace(g, kind=_DUAL_KIND[g.kind], init=g.init ^ 1) for g in netlist.gates)
    ports = tuple(p if p.direction == "output" else replace(p, init=p.init ^ 1)
                  for p in netlist.ports)
    return Netlist(
        name=netlist.name,
        net_count=netlist.net_count,
        gates=gates,
        ports=ports,
        net_init=tuple(v ^ 1 for v in netlist.net_init),
        metadata=dict(netlist.metadata),
    )


# ---------------------------------------------------------------------------
# serialization

def to_json(netlist: Netlist) -> str:
    doc = {
        "name": netlist.name,
        "net_count": netlist.net_count,
        "gates": [
            {"id": g.id, "kind": g.kind.value, "inputs": list(g.inputs),
             "output": g.output, "init": g.init}
            for g in netlist.gates
        ],
        "ports": [_port_doc(p) for p in netlist.ports],
        "meta": netlist.metadata,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _port_doc(p: DualRailPort) -> dict:
    doc = {"name": p.name, "dir": p.direction, "rail1": p.rail1, "rail0": p.rail0}
    if p.const_value is not None:
        doc["const_value"] = p.const_value
    if p.direction == "input":
        doc["init"] = p.init
    return doc


def _gate_from_doc(i: int, g: dict) -> Gate:
    return Gate(int(g.get("id", i)), GateKind(g["kind"]), tuple(int(x) for x in g["inputs"]),
                int(g["output"]), int(g["init"]))


def _port_from_doc(_i: int, p: dict) -> DualRailPort:
    return DualRailPort(
        name=str(p["name"]), direction=str(p["dir"]),
        rail1=int(p["rail1"]), rail0=int(p["rail0"]),
        const_value=(int(p["const_value"]) if "const_value" in p else None),
        init=int(p.get("init", 0)),
    )


def _entries(docs, what: str, load: Callable[[int, dict], object]) -> list:
    """Load a list of gate or port objects, naming the entry that is malformed."""
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
        except (TypeError, ValueError, OverflowError) as e:
            raise FormatError(f"{what} entry {i}: {e}") from None
    return out


def from_json(text: str) -> Netlist:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError("top-level value must be an object")
    try:
        net_count = int(doc["net_count"])
        name = str(doc.get("name", ""))
        meta = dict(doc.get("meta", {}))
        gate_docs = doc["gates"]
        port_docs = doc["ports"]
    except KeyError as e:
        raise FormatError(f"missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad top-level value: {e}") from e
    gates = _entries(gate_docs, "gate", _gate_from_doc)
    ports = _entries(port_docs, "port", _port_from_doc)
    # every net has exactly one driver: a gate output or an input-port rail
    drivers = len(gates) + 2 * sum(p.direction == "input" for p in ports)
    if not 0 <= net_count <= drivers:
        raise FormatError(f"net_count {net_count} outside 0..{drivers}, the "
                          "number of gate outputs and input rails")

    net_init = [0] * net_count
    for p in ports:
        if p.direction == "input":
            for rail in p.rails:
                if not 0 <= rail < net_count:
                    raise FormatError(f"port {p.name} references dangling net {rail}")
                net_init[rail] = p.init
    for g in gates:
        for net in (*g.inputs, g.output):
            if not 0 <= net < net_count:
                raise FormatError(f"gate {g.id} references dangling net {net}")
        net_init[g.output] = g.init

    netlist = Netlist(name, net_count, tuple(gates), tuple(ports), tuple(net_init), meta)
    report = validate(netlist)
    if not report.ok:
        raise ValidationError(report.findings)
    return netlist


def to_dot(netlist: Netlist) -> str:
    """Graphviz rendering: one node per gate and per port, one edge per net
    consumer.  Ordering follows gate ids and port declaration order so the
    output is byte-stable."""
    driver_node: dict[NetId, str] = {}
    for g in netlist.gates:
        driver_node[g.output] = f"g{g.id}"
    for p in netlist.ports:
        if p.direction == "input":
            driver_node[p.rail1] = f"p_{p.name}"
            driver_node[p.rail0] = f"p_{p.name}"

    lines = ["digraph netlist {", "  rankdir=LR;"]
    for p in netlist.ports:
        shape = "invhouse" if p.direction == "input" else "house"
        label = f"{p.name} [{p.direction}]"
        if p.is_const:
            label = f"{p.name}={p.const_value}"
        lines.append(f'  p_{p.name} [shape={shape} label="{label}"];')
    for g in netlist.gates:
        lines.append(f'  g{g.id} [shape=box label="{g.kind.value}#{g.id}"];')
    for g in netlist.gates:
        for net in g.inputs:
            src = driver_node.get(net)
            if src is not None:
                lines.append(f'  {src} -> g{g.id} [label="n{net}"];')
    for p in netlist.ports:
        if p.direction == "output":
            for net in (p.rail1, p.rail0):
                src = driver_node.get(net)
                if src is not None:
                    lines.append(f'  {src} -> p_{p.name} [label="n{net}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
