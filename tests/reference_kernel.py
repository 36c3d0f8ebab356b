"""A naive event kernel: the executable statement of ``qdilab.sim``'s semantics.

Test-only.  It shares nothing with the kernel it checks but the record and
error types: no compiled netlist, no ``NEXT_STATE`` table, no heap and no
per-step lists.  Pending events sit in a dict, one per net, and the next to
commit is found by a linear search for the earliest ``(time, net id)``.
Gate functions are restated as Boolean expressions on ``Gate.kind``, so a
wrong table entry or fanout mask in the kernel disagrees with them.

The inertial rule, as the ``sim.py`` docstring states it: a gate output
carries at most one pending event, and an input change that disagrees with a
pending event cancels it and records a hazard.
"""

from __future__ import annotations

from qdilab.encoding import Protocol
from qdilab.netlist import GateKind, Netlist
from qdilab.sim import HazardRecord, NonQuiescenceError, SettleReport


def next_value(kind: GateKind, a: int, b: int, cur: int) -> int:
    """A gate's next output from its inputs ``a``, ``b`` and present output."""
    if kind is GateKind.AND2:
        return a & b
    if kind is GateKind.OR2:
        return a | b
    if kind is GateKind.INV:
        return 1 - a
    return a if a == b else cur  # C2 holds on disagreement


class ReferenceKernel:
    """Reset state and settles over one netlist, mirroring ``SimState``:
    ``values``, ``now``, ``hazards`` and a ``trace`` of committed events."""

    def __init__(self, netlist: Netlist, protocol: Protocol, delays: list[int]):
        self.gates = netlist.gates
        self.delays = delays
        env = {r for p in netlist.ports if p.direction == "input" for r in p.rails}
        self.values = [protocol.spacer_level if net in env else init
                       for net, init in enumerate(netlist.net_init)]
        self.now = 0
        self.pending: dict[int, tuple[int, int]] = {}  # net -> (time, value)
        self.hazards: list[HazardRecord] = []
        self.trace: list[tuple[int, int, int]] = []

    def settle(self, assignments: dict[int, int], limit: int) -> SettleReport:
        """Queue each stimulus that changes its net at the present time, then
        commit the earliest pending event until none is left; the event past
        ``limit`` gate commits stays pending and the call raises."""
        t0 = self.now
        stimuli = 0
        for net, value in sorted(assignments.items()):
            if self.values[net] != value:
                self.pending[net] = (t0, value)
                stimuli += 1
        h0 = len(self.hazards)
        commits = 0
        while self.pending:
            net = min(self.pending, key=lambda n: (self.pending[n][0], n))
            if commits == limit + stimuli:
                raise NonQuiescenceError(f"no quiescence within {limit} events")
            t, value = self.pending.pop(net)
            commits += 1
            self.now = t
            self.values[net] = value
            self.trace.append((t, net, value))
            for gid, g in enumerate(self.gates):
                if net in g.inputs:
                    self._excite(gid, g, t)
        return SettleReport(elapsed=self.now - t0, transitions=commits,
                            hazards=self.hazards[h0:], steps=commits - stimuli)

    def _excite(self, gid: int, g, t: int) -> None:
        v = self.values
        target = next_value(g.kind, v[g.inputs[0]], v[g.inputs[-1]], v[g.output])
        pending = self.pending.get(g.output)
        if pending is not None and pending[1] != target:
            self.hazards.append(HazardRecord(t, gid, g.output, pending[1], target))
            del self.pending[g.output]
        if target != v[g.output] and g.output not in self.pending:
            self.pending[g.output] = (t + self.delays[gid], target)
