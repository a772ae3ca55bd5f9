"""The 802.11n baseline MAC.

This is the behaviour the paper compares against (§6): nodes contend with
plain carrier sense, and the contention winner uses all of its antennas
for single-user spatial multiplexing to *one* receiver.  Nobody transmits
while the medium is busy, regardless of how many antennas they have, and
an access point with several clients serves them one at a time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mac.agent import BaseMacAgent
from repro.sim.medium import Medium, ScheduledStream

__all__ = ["Dot11nMac"]


class Dot11nMac(BaseMacAgent):
    """Single-user spatial multiplexing over DCF (today's 802.11n)."""

    protocol_name = "802.11n"
    supports_joining = False
    #: Optional cap on concurrent spatial streams per attempt.  ``None``
    #: uses every usable antenna (802.11n); the plain-CSMA baseline
    #: subclass pins this to 1.
    max_streams: Optional[int] = None

    def _next_receiver_id(self) -> Optional[int]:
        """Round-robin over receivers that currently have traffic."""
        receiver_ids = [r.node_id for r in self.pair.receivers]
        for offset in range(len(receiver_ids)):
            candidate = receiver_ids[(self._round_robin + offset) % len(receiver_ids)]
            if self.queues[candidate].has_traffic:
                self._round_robin = (self._round_robin + offset + 1) % len(receiver_ids)
                return candidate
        return None

    def plan_initial(self, start_us: float, medium: Medium) -> List[ScheduledStream]:
        """One packet to one receiver, one stream per usable antenna
        (:meth:`~repro.mac.agent.BaseMacAgent._solo_plan`)."""
        receiver_id = self._next_receiver_id()
        if receiver_id is None:
            return []
        packet = self.queues[receiver_id].head()
        if packet is None:
            return []
        # One packet's worth of queued data; if the head packet was partially
        # delivered in an earlier (fragmented) attempt only the remainder is
        # on the air, so attempted bits never exceed queued bits.
        payload_bits = self.queues[receiver_id].take_bits(packet.size_bits)
        if payload_bits == 0:
            return []
        return self._solo_plan(start_us, medium, receiver_id, payload_bits, self.max_streams)
