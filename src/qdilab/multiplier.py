"""Parametric N x N dual-rail array multiplier generator.

The array follows the classic partial-product / ripple structure: n^2
strongly indicating AND blocks form the partial products ``pp[i][j] = A_j
AND B_i``, and n-1 rows of n full adders add them up, one rule per row.
Row 0's sums are ``pp[0]`` itself.  Row i (1 <= i < n) starts from a fresh
constant-zero carry and ripples it through n-1 full adders over
``(above[j + 1], pp[i][j], carry)``, where ``above`` are the sums of row i-1;
its top cell then adds ``(pp[1][n-1], carry, 0)`` in row 1 and ``(carry out
of row i-1, pp[i][n-1], carry)`` after that.  The row's first sum is product
bit i (``pp[0][0]`` is bit 0), and the last row's other sums and carry are
the high product bits.  The n constant-zero carry inputs are dedicated
constant ports, which the environment cycles between spacer and data like
any other input so the C-elements behind them keep handshaking.

Every block is one instance of a cached cell (``components.cell``): the
``strong_and2`` cell and the ``fa_variant`` full-adder cell of the protocol,
each built by its ``emit_*`` function and validated once per process, then
copied with ``NetlistBuilder.add_instance``.  The netlist is the one that
emitting every block's gates in the same order gives.  Its builder vouches
for it, so ``build()`` checks its ports and net count instead of running
``validate`` over every gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Mapping

from .components import FA_VARIANTS, cell
from .encoding import Protocol
from .netlist import Netlist, NetlistBuilder, check_int


@dataclass(frozen=True)
class MultiplierSpec:
    n: int
    protocol: Protocol
    fa_variant: str = "weak_fa"

    def __post_init__(self):
        check_int(self.n, "multiplier width", 2)
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
    cc = count()

    def zero():
        return b.add_const_port(f"CC{next(cc)}", 0, init=s).rails

    # pp[i][j] = A_j AND B_i, weight 2^(i+j)
    pp = [[b.add_instance(and2, (a[j].rails, bp[i].rails))[0]
           for j in range(n)] for i in range(n)]

    products = []
    above = pp[0]  # row 0's sums; a later row's n sums are followed by its carry
    for i in range(1, n):
        products.append(above[0])  # product bit i-1
        sums = []
        carry = zero()
        for j in range(n - 1):
            rails, carry = b.add_instance(fa, (above[j + 1], pp[i][j], carry))
            sums.append(rails)
        top = (pp[1][n - 1], carry, zero()) if i == 1 else (above[n], pp[i][n - 1], carry)
        sums += b.add_instance(fa, top)  # the top sum, then the row's carry
        above = sums
    products += above

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
    check_int(n, "width", 1)

    def oracle(values: Mapping[str, int]) -> dict[str, int]:
        a = sum(values[f"A{j}"] << j for j in range(n))
        b = sum(values[f"B{i}"] << i for i in range(n))
        return product_bits(n, reference_product(n, a, b))

    return oracle
