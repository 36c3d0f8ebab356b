"""Dual-rail codeword tables for both return-to-spacer disciplines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdilab.encoding import Protocol, encode, spacer_rails
from qdilab.handshake import decode


def test_rtz_codeword_table():
    assert spacer_rails(Protocol.RTZ) == (0, 0)
    assert encode(Protocol.RTZ, 1) == (1, 0)
    assert encode(Protocol.RTZ, 0) == (0, 1)


def test_rto_codeword_table():
    assert spacer_rails(Protocol.RTO) == (1, 1)
    assert encode(Protocol.RTO, 1) == (0, 1)
    assert encode(Protocol.RTO, 0) == (1, 0)


@given(st.integers(0, 1))
def test_protocols_are_rail_complements(bit):
    """RTO codewords and spacer are the RTZ ones with both rails complemented."""
    def complement(rails):
        return tuple(r ^ 1 for r in rails)
    assert encode(Protocol.RTO, bit) == complement(encode(Protocol.RTZ, bit))
    assert spacer_rails(Protocol.RTO) == complement(spacer_rails(Protocol.RTZ))


@given(st.sampled_from(list(Protocol)), st.integers(0, 1))
def test_encode_decode_round_trip(protocol, bit):
    """The harness's pair-state table reads an encoded bit back as data."""
    assert decode(protocol, *encode(protocol, bit)) == f"data{bit}"


@pytest.mark.parametrize("protocol", list(Protocol))
def test_encode_takes_only_a_bit(protocol):
    """A bool is the int it equals; ``1.0`` is no bit."""
    assert encode(protocol, True) == encode(protocol, 1)
    for value in (2, -1, 1.0, "1", None):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            encode(protocol, value)
