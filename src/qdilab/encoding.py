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


def is_bit(value) -> bool:
    """Whether ``value`` is the int 0 or 1 (a bool is the int it equals)."""
    return isinstance(value, int) and value in (0, 1)


def encode(protocol: Protocol, bit: int) -> tuple[int, int]:
    """Rail values (rail1, rail0) for a logical bit."""
    if not is_bit(bit):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    s = protocol.spacer_level  # RTO rails are the complemented RTZ rails
    return (bit ^ s, bit ^ s ^ 1)


def spacer_rails(protocol: Protocol) -> tuple[int, int]:
    return (protocol.spacer_level,) * 2
