"""Dual-rail codeword encoding under the two 4-phase handshake disciplines.

RTZ (return-to-zero) idles with both rails low and signals a bit by raising
one rail; RTO (return-to-one) idles with both rails high and signals by
lowering one rail.  The RTO valuations are exactly the bitwise complement of
the RTZ ones.
"""

from __future__ import annotations

from enum import Enum


class Protocol(str, Enum):
    RTZ = "rtz"
    RTO = "rto"

    @property
    def spacer_level(self) -> int:
        """Rail level of the all-spacer reset state."""
        return 0 if self is Protocol.RTZ else 1

    @property
    def active_level(self) -> int:
        return self.spacer_level ^ 1


class PairState(Enum):
    SPACER = "spacer"
    DATA0 = "data0"
    DATA1 = "data1"
    ILLEGAL = "illegal"

    @property
    def is_data(self) -> bool:
        return self in (PairState.DATA0, PairState.DATA1)

    @property
    def bit(self) -> int:
        if not self.is_data:
            raise ValueError(f"{self.value} carries no bit")
        return 1 if self is PairState.DATA1 else 0


def encode(protocol: Protocol, bit: int) -> tuple[int, int]:
    """Rail values (rail1, rail0) for a logical bit."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if protocol is Protocol.RTZ:
        return (bit, bit ^ 1)
    return (bit ^ 1, bit)


def spacer_rails(protocol: Protocol) -> tuple[int, int]:
    s = protocol.spacer_level
    return (s, s)


# pair states by (rail1, rail0) under RTZ; RTO rails read as complemented RTZ rails
_RTZ_STATES = ((PairState.SPACER, PairState.DATA0), (PairState.DATA1, PairState.ILLEGAL))


def decode(protocol: Protocol, rail1: int, rail0: int) -> PairState:
    s = protocol.spacer_level
    return _RTZ_STATES[rail1 ^ s][rail0 ^ s]
