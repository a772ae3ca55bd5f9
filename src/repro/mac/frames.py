"""MAC-layer packets.

The light-weight data/ACK headers that stand in for RTS/CTS (§3.5,
Fig. 8) are not modelled as objects: :mod:`repro.mac.handshake` charges
their cost as OFDM symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import DEFAULT_PACKET_SIZE_BYTES

__all__ = ["Packet"]


@dataclass
class Packet:
    """A MAC-layer packet awaiting transmission.

    Attributes
    ----------
    source, destination:
        Node identifiers.
    size_bytes:
        Payload size.
    packet_id:
        Sequence number assigned by the traffic source.
    created_us:
        Creation time (for delay statistics).
    retries:
        Number of transmission attempts so far.
    """

    source: int
    destination: int
    size_bytes: int = DEFAULT_PACKET_SIZE_BYTES
    packet_id: int = 0
    created_us: float = 0.0
    retries: int = 0

    @property
    def size_bits(self) -> int:
        """Payload size in bits."""
        return self.size_bytes * 8
