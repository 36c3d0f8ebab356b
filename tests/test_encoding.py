"""Dual-rail codeword tables for both return-to-spacer disciplines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdilab.encoding import PairState, Protocol, decode, encode, spacer_rails


def test_rtz_codeword_table():
    assert spacer_rails(Protocol.RTZ) == (0, 0)
    assert encode(Protocol.RTZ, 1) == (1, 0)
    assert encode(Protocol.RTZ, 0) == (0, 1)
    assert decode(Protocol.RTZ, 0, 0) is PairState.SPACER
    assert decode(Protocol.RTZ, 1, 0) is PairState.DATA1
    assert decode(Protocol.RTZ, 0, 1) is PairState.DATA0
    assert decode(Protocol.RTZ, 1, 1) is PairState.ILLEGAL


def test_rto_codeword_table():
    assert spacer_rails(Protocol.RTO) == (1, 1)
    assert encode(Protocol.RTO, 1) == (0, 1)
    assert encode(Protocol.RTO, 0) == (1, 0)
    assert decode(Protocol.RTO, 1, 1) is PairState.SPACER
    assert decode(Protocol.RTO, 0, 1) is PairState.DATA1
    assert decode(Protocol.RTO, 1, 0) is PairState.DATA0
    assert decode(Protocol.RTO, 0, 0) is PairState.ILLEGAL


@given(st.integers(0, 1), st.integers(0, 1))
def test_protocols_are_rail_complements(r1, r0):
    """The two disciplines read complemented wires as the same state."""
    assert decode(Protocol.RTZ, r1, r0) is decode(Protocol.RTO, r1 ^ 1, r0 ^ 1)


@given(st.sampled_from(list(Protocol)), st.integers(0, 1))
def test_encode_decode_round_trip(protocol, bit):
    state = decode(protocol, *encode(protocol, bit))
    assert state.is_data and state.bit == bit


def test_pair_state_bit_only_defined_for_data():
    assert PairState.DATA1.bit == 1
    assert PairState.DATA0.bit == 0
    with pytest.raises(ValueError):
        _ = PairState.SPACER.bit
