"""The 802.11n baseline MAC.

This is the behaviour the paper compares against (§6): nodes contend with
plain carrier sense, and the contention winner uses all of its antennas
for single-user spatial multiplexing to *one* receiver.  Nobody transmits
while the medium is busy, regardless of how many antennas they have, and
an access point with several clients serves them one at a time.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mac.agent import BaseMacAgent
from repro.mac.aggregation import airtime_for_bits
from repro.phy.rates import MCS_TABLE
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
        """One packet to one receiver, one stream per usable antenna.

        On an idle medium the plan, its SNRs and its bitrate come from the
        network's solo-link table; a later collided winner (the medium
        already carries the earlier winners' streams) measures afresh.
        """
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
        if not medium.busy:
            return self._solo_plan(
                start_us, medium, receiver_id, payload_bits, self.max_streams
            )
        receiver = self.network.station(receiver_id)
        n_streams = min(self.n_antennas, receiver.n_antennas)
        if self.max_streams is not None:
            n_streams = min(n_streams, self.max_streams)
        join_order = medium.max_join_order() + 1

        streams: List[ScheduledStream] = []
        power = self._equal_power(n_streams)
        for index in range(n_streams):
            vector = np.zeros(self.n_antennas, dtype=complex)
            vector[index] = 1.0
            streams.append(
                ScheduledStream(
                    stream_id=medium.next_stream_id(),
                    transmitter_id=self.node_id,
                    receiver_id=receiver_id,
                    precoders=self._constant_precoders(vector),
                    power=power,
                    mcs=MCS_TABLE[0],
                    payload_bits=0,
                    start_us=start_us,
                    end_us=start_us,
                    join_order=join_order,
                )
            )
        streams[0].payload_bits = payload_bits

        # The receiver measures the effective SNR on the header, after
        # projecting out the earlier winners' streams, and feeds back the
        # best bitrate.
        mcs = self._select_mcs(receiver_id, streams, medium.active_streams)
        duration = airtime_for_bits(mcs, payload_bits, n_streams)
        for stream in streams:
            stream.mcs = mcs
            stream.end_us = start_us + duration
        return streams
