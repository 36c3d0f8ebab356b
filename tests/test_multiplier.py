"""Array multiplier generation: structure, scaling, and arithmetic."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilab.encoding import Protocol
from qdilab.handshake import HandshakeHarness
from qdilab.multiplier import (MultiplierSpec, array_multiplier, input_vector,
                               product_bits, product_oracle, reference_product)
from qdilab.netlist import from_json, stats, to_dot, to_json, validate


FA_C2 = {"dims_fa": 12, "weak_fa": 14}
FA_MERGE = {"dims_fa": 12, "weak_fa": 9}


def test_spec_validation():
    with pytest.raises(ValueError):
        MultiplierSpec(1, Protocol.RTZ)
    with pytest.raises(ValueError):
        MultiplierSpec(4, Protocol.RTZ, "fancy_fa")
    assert MultiplierSpec(4, Protocol.RTO, "dims_fa").name == "mult4x4_dims_fa_rto"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", ["dims_fa", "weak_fa"])
def test_block_and_gate_budgets(n, variant):
    netlist = array_multiplier(MultiplierSpec(n, Protocol.RTZ, variant))
    meta = netlist.metadata
    assert meta["n"] == n
    assert meta["and_blocks"] == n * n
    assert meta["fa_blocks"] == n * (n - 1)
    assert meta["const_carries"] == n
    counts = stats(netlist).counts
    assert counts["C2"] == 4 * n * n + FA_C2[variant] * n * (n - 1)
    assert counts["OR2"] == 2 * n * n + FA_MERGE[variant] * n * (n - 1)
    assert counts["AND2"] == 0 and counts["INV"] == 0
    assert validate(netlist).ok


@pytest.mark.parametrize("n", [2, 3])
def test_port_roster(n):
    netlist = array_multiplier(MultiplierSpec(n, Protocol.RTZ))
    assert [p.name for p in netlist.input_ports] \
        == [f"A{i}" for i in range(n)] + [f"B{i}" for i in range(n)]
    assert [p.name for p in netlist.output_ports] \
        == [f"P{i}" for i in range(2 * n)]
    consts = netlist.const_ports
    assert len(consts) == n
    assert all(p.const_value == 0 for p in consts)


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("variant", ["dims_fa", "weak_fa"])
def test_exhaustive_2x2(protocol, variant):
    netlist = array_multiplier(MultiplierSpec(2, protocol, variant))
    harness = HandshakeHarness(netlist, protocol)
    state = harness.initialize()
    for a, b in itertools.product(range(4), repeat=2):
        res = harness.run_transaction(state, input_vector(2, a, b))
        assert res.outputs == product_bits(2, a * b), (a, b)


def test_exhaustive_3x3_weak_rtz():
    netlist = array_multiplier(MultiplierSpec(3, Protocol.RTZ, "weak_fa"))
    harness = HandshakeHarness(netlist, Protocol.RTZ)
    state = harness.initialize()
    for a, b in itertools.product(range(8), repeat=2):
        res = harness.run_transaction(state, input_vector(3, a, b))
        assert res.outputs == product_bits(3, a * b), (a, b)


def test_reference_product_and_helpers():
    assert reference_product(4, 13, 11) == 143
    with pytest.raises(ValueError):
        reference_product(2, 4, 0)
    with pytest.raises(ValueError):
        reference_product(2, 0, -1)
    vec = input_vector(2, 2, 3)
    assert vec == {"A0": 0, "A1": 1, "B0": 1, "B1": 1}
    assert product_bits(2, 6) == {"P0": 0, "P1": 1, "P2": 1, "P3": 0}
    oracle = product_oracle(2)
    assert oracle(vec) == product_bits(2, 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_oracle_matches_integer_multiplication(n, data):
    a = data.draw(st.integers(0, 2 ** n - 1))
    b = data.draw(st.integers(0, 2 ** n - 1))
    oracle = product_oracle(n)
    out = oracle(input_vector(n, a, b))
    assert sum(out[f"P{i}"] << i for i in range(2 * n)) == a * b


def test_multiplier_json_round_trip():
    netlist = array_multiplier(MultiplierSpec(3, Protocol.RTO, "dims_fa"))
    restored = from_json(to_json(netlist))
    assert restored == netlist
    assert restored.metadata["n"] == 3
    assert restored.metadata["fa_variant"] == "dims_fa"


# The first 16 hex digits of the SHA-256 of ``to_json`` and of ``to_dot`` of
# every multiplier from 2x2 to 8x8 (every width the scale sweep builds), both
# adder variants under both protocols: a change to how the array is assembled
# must give the same netlists, net for net.
NETLIST_DIGESTS = {
    "mult2x2_dims_fa_rto": ("258b65edfcdd2354", "bd8972c7cbc1bf7a"),
    "mult2x2_dims_fa_rtz": ("8d6e5b974773ba7d", "99dabedf8110aadf"),
    "mult2x2_weak_fa_rto": ("e460908a92cce568", "33dc779578a8acdb"),
    "mult2x2_weak_fa_rtz": ("23ae3d24cda6075b", "6da7904679036465"),
    "mult3x3_dims_fa_rto": ("d3da5fd9b8c00f65", "221fac2c85370fd3"),
    "mult3x3_dims_fa_rtz": ("f961200a6778b4b1", "1521acd7eb1a7918"),
    "mult3x3_weak_fa_rto": ("26579315e826d51c", "edb230e2e209d424"),
    "mult3x3_weak_fa_rtz": ("e44433ffab685a13", "9242268d35ca626f"),
    "mult4x4_dims_fa_rto": ("e61de4ec9095f40b", "cdf4ddd391abe379"),
    "mult4x4_dims_fa_rtz": ("19d182524f2ca72e", "f6a7f21cd0b39cb5"),
    "mult4x4_weak_fa_rto": ("4dd8bc44d4921b97", "86a193eee563ac59"),
    "mult4x4_weak_fa_rtz": ("893ed1bf33814862", "2266658eb81e74a2"),
    "mult5x5_dims_fa_rto": ("444241f03f7f240e", "e3219716157aa04d"),
    "mult5x5_dims_fa_rtz": ("e9055f1107dd5f33", "551dfecdf68a3ca7"),
    "mult5x5_weak_fa_rto": ("5cc429a8d929a7b0", "7f161c5b88728b56"),
    "mult5x5_weak_fa_rtz": ("f8c01aae59848396", "814e379fbd1dacdc"),
    "mult6x6_dims_fa_rto": ("294474367678ff2d", "8215c3df40089747"),
    "mult6x6_dims_fa_rtz": ("3aba169df5a72849", "6a0116387f6d223f"),
    "mult6x6_weak_fa_rto": ("2a44e8493ec3402c", "c4c6e0cdbde8f4c5"),
    "mult6x6_weak_fa_rtz": ("02c5aaeb8347a6b8", "9983880f0713e0f5"),
    "mult7x7_dims_fa_rto": ("3d8134250b604ade", "f8726af9b3cab2d2"),
    "mult7x7_dims_fa_rtz": ("e492c67f68cce52b", "b0bc78a699fa33e1"),
    "mult7x7_weak_fa_rto": ("bdace437cafbbe18", "6ee2005671384387"),
    "mult7x7_weak_fa_rtz": ("c573ae3a6c0f6ced", "ded9975fbadc722d"),
    "mult8x8_dims_fa_rto": ("96908b8f529ac992", "f547c9340f35758a"),
    "mult8x8_dims_fa_rtz": ("c5e53ef02abee8f9", "846db5818048bafe"),
    "mult8x8_weak_fa_rto": ("7a42036fca18ec38", "a47f35cbd88b7aec"),
    "mult8x8_weak_fa_rtz": ("77d6803ef6077f3f", "953da8fd389088d3"),
}

# The same two digests of the closed loop a harness runs a 3x3 multiplier in.
HARNESS_DIGESTS = {
    "mult3x3_dims_fa_rto": ("338b781c3b61d05c", "98287a1c5a559376"),
    "mult3x3_dims_fa_rtz": ("97245ecc6b9c1808", "c270211cf93bfb98"),
    "mult3x3_weak_fa_rto": ("5bba5731216b30f0", "fd9e0b1eaba0a950"),
    "mult3x3_weak_fa_rtz": ("1c033d4a0e0a0b38", "c38377b835fcbd1d"),
}


def pin(netlist):
    """The first 16 hex digits of the SHA-256 of ``to_json`` and ``to_dot``."""
    return tuple(hashlib.sha256(render(netlist).encode()).hexdigest()[:16]
                 for render in (to_json, to_dot))


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("variant", ["dims_fa", "weak_fa"])
@pytest.mark.parametrize("n", range(2, 9))
def test_generated_netlists_are_pinned(n, variant, protocol):
    netlist = array_multiplier(MultiplierSpec(n, protocol, variant))
    assert pin(netlist) == NETLIST_DIGESTS[netlist.name]
    if n == 3:
        closed = HandshakeHarness(netlist, protocol).netlist
        assert closed.metadata == netlist.metadata  # the harness adds gates, not tags
        assert pin(closed) == HARNESS_DIGESTS[netlist.name]
