"""Retransmission bookkeeping (§4, "Retransmissions").

An n+ node keeps a packet in its queue until it is acknowledged.  Because
a joiner must always end with the ongoing transmissions, the same packet
may be fragmented differently -- or aggregated with other packets for the
same receiver -- on its next attempt; the queue therefore tracks how many
bits of each packet remain unacknowledged rather than treating packets as
atomic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.constants import MAX_RETRIES
from repro.mac.frames import Packet

__all__ = ["RetransmissionQueue"]


@dataclass
class _PendingPacket:
    packet: Packet
    remaining_bits: int


@dataclass
class RetransmissionQueue:
    """A per-destination FIFO of packets with partial-delivery tracking.

    Attributes
    ----------
    max_retries:
        Attempts after which a packet is dropped.
    """

    max_retries: int = MAX_RETRIES
    _pending: List[_PendingPacket] = field(default_factory=list)
    dropped_packets: int = 0
    dropped_bits: int = 0
    delivered_packets: int = 0
    delivered_bits: int = 0

    # -- queue management ------------------------------------------------------

    def enqueue(self, packet: Packet) -> None:
        """Add a new packet to the tail of the queue."""
        self._pending.append(_PendingPacket(packet=packet, remaining_bits=packet.size_bits))

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def has_traffic(self) -> bool:
        """Whether any bits are waiting to be sent."""
        return bool(self._pending)

    @property
    def backlog_bits(self) -> int:
        """Total unacknowledged bits in the queue."""
        return sum(p.remaining_bits for p in self._pending)

    def head(self) -> Optional[Packet]:
        """The packet at the head of the queue (None if empty)."""
        return self._pending[0].packet if self._pending else None

    # -- transmission outcomes ----------------------------------------------------

    def take_bits(self, capacity_bits: int) -> int:
        """Reserve up to ``capacity_bits`` of queued data for a transmission.

        Returns the number of bits actually reserved (FIFO order, possibly
        spanning several packets -- aggregation -- or part of one packet --
        fragmentation).  The reservation is logical: the bits stay in the
        queue until :meth:`acknowledge` or :meth:`fail` is called.
        """
        reserved = 0
        for pending in self._pending:
            if reserved >= capacity_bits:
                break
            reserved += min(pending.remaining_bits, capacity_bits - reserved)
        return reserved

    def acknowledge(self, delivered_bits: int) -> int:
        """Mark ``delivered_bits`` (FIFO order) as acknowledged.

        Returns the number of whole packets completed and removed.  A
        partially-acknowledged head packet has made forward progress, so
        its retry count resets: retries only accumulate across attempts
        that delivered *nothing* of the packet, which is what keeps a
        slow-but-working link from spuriously dropping packets at the
        retry cap.
        """
        completed = 0
        remaining = delivered_bits
        while remaining > 0 and self._pending:
            head = self._pending[0]
            taken = min(head.remaining_bits, remaining)
            head.remaining_bits -= taken
            remaining -= taken
            self.delivered_bits += taken
            if head.remaining_bits == 0:
                self._pending.pop(0)
                self.delivered_packets += 1
                completed += 1
            else:
                head.packet.retries = 0
        return completed

    def fail(self, attempted_bits: Optional[int] = None) -> None:
        """Record a failed attempt; drop packets past the retry cap.

        ``attempted_bits`` is the size of the failed transmission (what
        :meth:`take_bits` reserved).  Every packet the attempt spanned is
        aged, so aggregated attempts cannot park all blame on the head
        packet while the rest of the FIFO stays forever young -- on a
        permanently faded link that would grow the pending queue without
        bound.  Packets past ``max_retries`` are dropped, with their
        unacknowledged bits counted in ``dropped_bits``.  ``None`` ages
        the head packet only (the pre-aggregation behaviour, kept for
        callers that fail one packet at a time).
        """
        if not self._pending:
            return
        if attempted_bits is None:
            span = 1
        else:
            span = 0
            covered = 0
            for pending in self._pending:
                if covered >= attempted_bits:
                    break
                covered += pending.remaining_bits
                span += 1
            span = max(span, 1)
        for pending in self._pending[:span]:
            pending.packet.retries += 1
        survivors = []
        for index, pending in enumerate(self._pending):
            if index < span and pending.packet.retries > self.max_retries:
                self.dropped_packets += 1
                self.dropped_bits += pending.remaining_bits
            else:
                survivors.append(pending)
        self._pending = survivors
