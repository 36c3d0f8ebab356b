"""Parametric N x N dual-rail array multiplier generator.

The array follows the classic partial-product / ripple structure: n^2
strongly indicating AND blocks form the partial products, and n*(n-1) full
adders arranged in n-1 rows reduce them.  Row carries ripple left-to-right;
each row's low sum drops out as a product bit, and the last row spills the
remaining sums and final carry into the high product bits.  The n carry
inputs that the structure leaves open are tied to logical 0 through
dedicated constant ports, which the environment cycles between spacer and
data like any other input so the C-elements behind them keep handshaking.

Every block is one instance of a cached cell (``components.cell``): the
``strong_and2`` cell and the ``fa_variant`` full-adder cell of the protocol,
each built by its ``emit_*`` function and validated once per process, then
copied with ``NetlistBuilder.add_instance``.  The netlist is the one that
emitting every block's gates in the same order gives, and ``build()``
validates it whole, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .components import FA_VARIANTS, cell
from .encoding import Protocol
from .netlist import Netlist, NetlistBuilder


@dataclass(frozen=True)
class MultiplierSpec:
    n: int
    protocol: Protocol
    fa_variant: str = "weak_fa"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"multiplier width must be >= 2, got {self.n}")
        if self.fa_variant not in FA_VARIANTS:
            raise ValueError(f"unknown full-adder variant {self.fa_variant!r}")

    @property
    def name(self) -> str:
        return f"mult{self.n}x{self.n}_{self.fa_variant}_{self.protocol.value}"


def array_multiplier(spec: MultiplierSpec) -> Netlist:
    n = spec.n
    protocol = spec.protocol
    and2 = cell("strong_and2", protocol)
    fa = cell(spec.fa_variant, protocol)
    b = NetlistBuilder(spec.name, {
        "n": n,
        "protocol": protocol.value,
        "fa_variant": spec.fa_variant,
        "and_blocks": n * n,
        "fa_blocks": n * (n - 1),
        "const_carries": n,
    })
    s = protocol.spacer_level
    a = [b.add_input_port(f"A{j}", init=s) for j in range(n)]
    bp = [b.add_input_port(f"B{i}", init=s) for i in range(n)]
    cc_count = 0

    def zero():
        nonlocal cc_count
        port = b.add_const_port(f"CC{cc_count}", 0, init=s)
        cc_count += 1
        return port.rails

    # pp[i][j] = A_j AND B_i, weight 2^(i+j)
    pp = [[b.add_instance(and2, (a[j].rails, bp[i].rails))[0]
           for j in range(n)] for i in range(n)]

    products = [pp[0][0]]
    sums_above = None  # row i-1 sums s(i-1, 0..n-1)
    carry_above = None  # row i-1 final carry c(i-1, n-1)
    for i in range(1, n):
        sums = []
        carry = None
        for j in range(n):
            if i == 1:
                if j == 0:
                    x, y, cin = pp[0][1], pp[1][0], zero()
                elif j < n - 1:
                    x, y, cin = pp[0][j + 1], pp[1][j], carry
                else:
                    x, y, cin = pp[1][n - 1], carry, zero()
            else:
                if j == 0:
                    x, y, cin = sums_above[1], pp[i][0], zero()
                elif j < n - 1:
                    x, y, cin = sums_above[j + 1], pp[i][j], carry
                else:
                    x, y, cin = carry_above, pp[i][n - 1], carry
            s_rails, carry = b.add_instance(fa, (x, y, cin))
            sums.append(s_rails)
        products.append(sums[0])
        sums_above, carry_above = sums, carry
    products.extend(sums_above[1:])
    products.append(carry_above)

    for k, rails in enumerate(products):
        b.add_output_port(f"P{k}", *rails)
    return b.build()


def reference_product(n: int, a: int, b: int) -> int:
    """Independent arithmetic oracle for an n x n multiplier."""
    if not 0 <= a < (1 << n) or not 0 <= b < (1 << n):
        raise ValueError(f"operands must fit {n} bits: a={a}, b={b}")
    return a * b


def input_vector(n: int, a: int, b: int) -> dict[str, int]:
    vec = {f"A{j}": (a >> j) & 1 for j in range(n)}
    vec.update({f"B{i}": (b >> i) & 1 for i in range(n)})
    return vec


def product_bits(n: int, p: int) -> dict[str, int]:
    return {f"P{k}": (p >> k) & 1 for k in range(2 * n)}


def product_oracle(n: int) -> Callable[[Mapping[str, int]], dict[str, int]]:
    """Oracle mapping an input port vector to the expected product bits."""

    def oracle(values: Mapping[str, int]) -> dict[str, int]:
        a = sum(values[f"A{j}"] << j for j in range(n))
        b = sum(values[f"B{i}"] << i for i in range(n))
        return product_bits(n, reference_product(n, a, b))

    return oracle
