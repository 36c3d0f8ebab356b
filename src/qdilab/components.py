"""Dual-rail indicating logic blocks.

All blocks are built from 2-input AND/OR gates and C-elements only, with the
output rails expressed as disjoint sums of products: at most one product term
of any output rail can be active for a given input codeword, so every OR
(or AND, under return-to-one) sees a single moving input per phase.  The
tests check that rule on the built netlists of every block and multiplier.
Under RTZ the product terms are C2s merged by OR trees; the RTO variants swap
the OR trees for AND trees and complement every reset level.

Three blocks ship:

* ``strong_and2``: four C-elements, one per input minterm; no output rail
  moves before both inputs have arrived.
* ``dims_full_adder``: a shared first layer of four operand C2s, a second
  layer of eight minterm C2s against the carry rails, and one OR/AND tree per
  output rail.  Strongly indicating.
* ``weak_full_adder``: generate/kill C2s feed the carry rails directly, so
  the carry completes from the operands alone whenever they agree; the sum
  rails keep the full minterm structure and therefore still indicate every
  input.  Weakly indicating, which is what makes cascades fast: a carry hop
  costs two gate delays instead of three.

Each ``emit_*`` function is the only definition of its block.  The
standalone builders (``strong_and2``, ``dims_full_adder``,
``weak_full_adder``) call it once into a netlist of their own; ``cell(name,
protocol)`` turns that netlist into a :class:`~qdilab.netlist.Cell`, built
and validated once per process and protocol, and the ripple-carry adder and
the array multiplier copy it as one instance per block
(``NetlistBuilder.add_instance``), net for net what the ``emit_*`` call
would have added.  Every instance keeps its builder's vouch, so ``build()``
does not validate the assembled design gate by gate.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Mapping, Sequence

from .encoding import Protocol
from .netlist import Cell, GateKind, Netlist, NetlistBuilder, NetId

Rails = tuple[NetId, NetId]  # (rail1, rail0)

# minterms as logical (a, b, cin) triples; tuple order fixes OR-tree shape
SUM1_TERMS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
SUM0_TERMS = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
COUT1_TERMS = ((1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))
COUT0_TERMS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def _rail(pair: Rails, bit: int) -> NetId:
    return pair[0] if bit else pair[1]


def _merge_kind(protocol: Protocol) -> GateKind:
    return GateKind.OR2 if protocol is Protocol.RTZ else GateKind.AND2


def emit_strong_and2(b: NetlistBuilder, protocol: Protocol,
                     x: Rails, y: Rails) -> Rails:
    """Strongly indicating 2-input AND: one C2 per input minterm.

    Z1 is the lone both-true C2; Z0 merges the other three.  The both-false
    term sits at the shallow tree position, so either mixed codeword crosses
    two merge levels.
    """
    c2 = GateKind.C2
    z1 = b.add_gate(c2, (_rail(x, 1), _rail(y, 1)))
    c01 = b.add_gate(c2, (_rail(x, 0), _rail(y, 1)))
    c10 = b.add_gate(c2, (_rail(x, 1), _rail(y, 0)))
    c00 = b.add_gate(c2, (_rail(x, 0), _rail(y, 0)))
    z0 = b.reduce_tree(_merge_kind(protocol), (c01, c10, c00))
    return (z1, z0)


def emit_dims_full_adder(b: NetlistBuilder, protocol: Protocol,
                         a: Rails, bb: Rails, cin: Rails) -> tuple[Rails, Rails]:
    """Full adder with every output rail built from complete input minterms."""
    c2 = GateKind.C2
    merge = _merge_kind(protocol)
    pair = {(i, j): b.add_gate(c2, (_rail(a, i), _rail(bb, j)))
            for i in (1, 0) for j in (1, 0)}
    minterm = {(i, j, k): b.add_gate(c2, (pair[i, j], _rail(cin, k)))
               for i in (1, 0) for j in (1, 0) for k in (1, 0)}
    sum1 = b.reduce_tree(merge, [minterm[t] for t in SUM1_TERMS])
    sum0 = b.reduce_tree(merge, [minterm[t] for t in SUM0_TERMS])
    cout1 = b.reduce_tree(merge, [minterm[t] for t in COUT1_TERMS])
    cout0 = b.reduce_tree(merge, [minterm[t] for t in COUT0_TERMS])
    return (sum1, sum0), (cout1, cout0)


def emit_weak_full_adder(b: NetlistBuilder, protocol: Protocol,
                         a: Rails, bb: Rails, cin: Rails) -> tuple[Rails, Rails]:
    """Full adder whose carry completes early when the operands agree.

    The operand C2s double as generate (both 1), kill (both 0) and the two
    propagate halves; carry rails merge generate/kill with a propagate-and-
    carry C2, while the sum rails reuse the same first layer for the full
    minterm structure.
    """
    c2 = GateKind.C2
    merge = _merge_kind(protocol)
    gen = b.add_gate(c2, (_rail(a, 1), _rail(bb, 1)))
    kill = b.add_gate(c2, (_rail(a, 0), _rail(bb, 0)))
    p10 = b.add_gate(c2, (_rail(a, 1), _rail(bb, 0)))
    p01 = b.add_gate(c2, (_rail(a, 0), _rail(bb, 1)))
    prop = b.reduce_tree(merge, (p10, p01))
    pc1 = b.add_gate(c2, (prop, _rail(cin, 1)))
    pc0 = b.add_gate(c2, (prop, _rail(cin, 0)))
    cout1 = b.reduce_tree(merge, (gen, pc1))
    cout0 = b.reduce_tree(merge, (kill, pc0))
    pair = {(1, 1): gen, (0, 0): kill, (1, 0): p10, (0, 1): p01}
    minterm = {(i, j, k): b.add_gate(c2, (pair[i, j], _rail(cin, k)))
               for (i, j, k) in SUM1_TERMS + SUM0_TERMS}
    sum1 = b.reduce_tree(merge, [minterm[t] for t in SUM1_TERMS])
    sum0 = b.reduce_tree(merge, [minterm[t] for t in SUM0_TERMS])
    return (sum1, sum0), (cout1, cout0)


FA_VARIANTS = ("dims_fa", "weak_fa")  # the full-adder blocks of ``CELLS``


def _standalone(name: str, protocol: Protocol, in_names: Sequence[str],
                emit: Callable, out_names: Sequence[str]) -> Netlist:
    b = NetlistBuilder(f"{name}_{protocol.value}",
                       {"component": name, "protocol": protocol.value})
    s = protocol.spacer_level
    ins = [b.add_input_port(n, init=s) for n in in_names]
    outs = emit(b, protocol, *[p.rails for p in ins])
    if isinstance(outs[0], int):
        outs = (outs,)
    for port_name, rails in zip(out_names, outs):
        b.add_output_port(port_name, *rails)
    return b.build()


def strong_and2(protocol: Protocol) -> Netlist:
    return _standalone("strong_and2", protocol, ("X", "Y"), emit_strong_and2, ("Z",))


def dims_full_adder(protocol: Protocol) -> Netlist:
    return _standalone("dims_fa", protocol, ("A", "B", "Cin"),
                       emit_dims_full_adder, ("Sum", "Cout"))


def weak_full_adder(protocol: Protocol) -> Netlist:
    return _standalone("weak_fa", protocol, ("A", "B", "Cin"),
                       emit_weak_full_adder, ("Sum", "Cout"))


CELLS: dict[str, Callable[[Protocol], Netlist]] = {
    "strong_and2": strong_and2,
    "dims_fa": dims_full_adder,
    "weak_fa": weak_full_adder,
}


@cache
def cell(name: str, protocol: Protocol) -> Cell:
    """The block ``name`` of ``CELLS`` under ``protocol``, as a cell: its
    standalone netlist, built and validated on the first call and shared by
    every later one (at most one cell per block and protocol)."""
    return Cell(CELLS[name](protocol))


def ripple_carry_adder(protocol: Protocol, width: int,
                       fa_variant: str = "dims_fa") -> Netlist:
    """Chain of full adders, one instance of the ``fa_variant`` cell per bit;
    cascading two strongly indicating stages already degrades the whole to
    weak indication, since the low sum can complete before the high operands
    arrive."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if fa_variant not in FA_VARIANTS:
        raise ValueError(f"unknown full-adder variant {fa_variant!r}")
    fa = cell(fa_variant, protocol)
    b = NetlistBuilder(f"rca{width}_{fa_variant}_{protocol.value}",
                       {"component": f"rca{width}", "protocol": protocol.value,
                        "fa_variant": fa_variant})
    s = protocol.spacer_level
    a = [b.add_input_port(f"A{i}", init=s) for i in range(width)]
    bp = [b.add_input_port(f"B{i}", init=s) for i in range(width)]
    cin = b.add_input_port("Cin", init=s)
    carry = cin.rails
    for i in range(width):
        sum_rails, carry = b.add_instance(fa, (a[i].rails, bp[i].rails, carry))
        b.add_output_port(f"S{i}", *sum_rails)
    b.add_output_port("Cout", *carry)
    return b.build()


def _and2_oracle(vec: Mapping[str, int]) -> dict[str, int]:
    return {"Z": vec["X"] & vec["Y"]}


def _fa_oracle(vec: Mapping[str, int]) -> dict[str, int]:
    total = vec["A"] + vec["B"] + vec["Cin"]
    return {"Sum": total & 1, "Cout": total >> 1}


def rca_oracle(width: int) -> Callable[[Mapping[str, int]], dict[str, int]]:
    def oracle(vec: Mapping[str, int]) -> dict[str, int]:
        a = sum(vec[f"A{i}"] << i for i in range(width))
        b = sum(vec[f"B{i}"] << i for i in range(width))
        total = a + b + vec["Cin"]
        out = {f"S{i}": (total >> i) & 1 for i in range(width)}
        out["Cout"] = (total >> width) & 1
        return out
    return oracle


COMPONENTS: dict[str, Callable[[Protocol], Netlist]] = {
    **CELLS,
    "rca2_dims": lambda p: ripple_carry_adder(p, 2, "dims_fa"),
    "rca2_weak": lambda p: ripple_carry_adder(p, 2, "weak_fa"),
}

COMPONENT_ORACLES: dict[str, Callable[[Mapping[str, int]], dict[str, int]]] = {
    "strong_and2": _and2_oracle,
    "dims_fa": _fa_oracle,
    "weak_fa": _fa_oracle,
    "rca2": rca_oracle(2),
}
