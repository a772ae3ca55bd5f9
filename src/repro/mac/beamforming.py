"""The multi-user beamforming baseline (Aryafar et al. [7]).

When a multi-antenna access point with several clients wins the
contention, it pre-codes concurrent streams to all of them at once
(zero-forcing between its own receivers), e.g. two streams to one
2-antenna client and one to the other for a 3-antenna AP.  Unlike n+,
nobody joins an ongoing transmission: the beamformer still requires all
concurrent streams to originate at a single transmitter, which is exactly
the limitation Fig. 13(b) quantifies.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exceptions import PrecodingError
from repro.mac.agent import BaseMacAgent
from repro.mac.aggregation import airtime_for_bits
from repro.mac.plan import PlannedReceiver, plan_initial_transmission
from repro.mimo.dof import InterferenceStrategy
from repro.phy.rates import MCS_TABLE
from repro.sim.medium import Medium, ScheduledStream

__all__ = ["BeamformingMac", "distribute_streams"]


def distribute_streams(n_tx_antennas: int, receiver_antennas: List[int]) -> List[int]:
    """Split ``n_tx_antennas`` streams across receivers.

    Every receiver gets at least one stream (as long as antennas remain);
    leftover streams go to the receivers with the most spare antennas --
    for a 3-antenna AP with two 2-antenna clients this yields the paper's
    "two to one client and one to the other".
    """
    allocation = [0] * len(receiver_antennas)
    remaining = n_tx_antennas
    # First pass: one stream each.
    for index in range(len(receiver_antennas)):
        if remaining == 0:
            break
        if receiver_antennas[index] > 0:
            allocation[index] = 1
            remaining -= 1
    # Second pass: fill up by spare receive antennas.
    changed = True
    while remaining > 0 and changed:
        changed = False
        for index in range(len(receiver_antennas)):
            if remaining == 0:
                break
            if allocation[index] < receiver_antennas[index]:
                allocation[index] += 1
                remaining -= 1
                changed = True
    return allocation


class BeamformingMac(BaseMacAgent):
    """Multi-user beamforming from a single transmitter, no joining."""

    protocol_name = "beamforming"
    supports_joining = False

    def _receivers_with_traffic(self) -> List[int]:
        return [r.node_id for r in self.pair.receivers if self.queues[r.node_id].has_traffic]

    def plan_initial(self, start_us: float, medium: Medium) -> List[ScheduledStream]:
        """Beamform to every backlogged receiver simultaneously."""
        candidates = self._receivers_with_traffic()
        receiver_ids = [r for r in candidates if not self.link_quarantined(r)]
        suppressed = len(receiver_ids) < len(candidates)
        if suppressed:
            self.quarantined_rounds += 1
        if not receiver_ids:
            return []
        antennas = [self.network.station(r).n_antennas for r in receiver_ids]
        allocation = distribute_streams(self.n_antennas, antennas)
        # Under the grouped draw contract, measure all of this
        # transmission's links in one stacked draw (no-op under v2).
        self.network.prefetch_estimates(
            (self.node_id, receiver_id, False)
            for receiver_id, n_streams in zip(receiver_ids, allocation)
            if n_streams > 0
        )
        receivers: List[PlannedReceiver] = []
        for receiver_id, n_streams in zip(receiver_ids, allocation):
            if n_streams == 0:
                continue
            receivers.append(
                PlannedReceiver(
                    receiver_id=receiver_id,
                    n_antennas=self.network.station(receiver_id).n_antennas,
                    n_streams=n_streams,
                    channel=self.network.estimated_channel(self.node_id, receiver_id),
                )
            )
        if not receivers:
            return []
        if len(receivers) == 1 and not medium.busy:
            # One receiver on an idle medium: plain spatial multiplexing,
            # read from the network's solo-link table.
            receiver_id = receivers[0].receiver_id
            packet = self.queues[receiver_id].head()
            payload_bits = self.queues[receiver_id].take_bits(packet.size_bits) if packet else 0
            return self._solo_plan(start_us, medium, receiver_id, payload_bits)

        # The pre-coder decomposition is a pure function of which
        # receivers take how many streams (channel estimates are memoized
        # per simulation), so it is memoized by that allocation.
        def _compute():
            try:
                return plan_initial_transmission(
                    self.node_id,
                    self.n_antennas,
                    receivers,
                    multi_user_beamforming=len(receivers) > 1,
                )
            except PrecodingError:
                return None

        involved = {self.node_id}
        involved.update(r.receiver_id for r in receivers)
        key = (
            "initial-plan",
            self.node_id,
            tuple((r.receiver_id, r.n_streams) for r in receivers),
            self.network.epoch_signature(involved),
        )
        plan = self._cached(key, _compute)
        if plan is None:
            return []
        if plan.degraded.any():
            # A guarded fallback fired inside the decomposition (the cached
            # plan keeps its mask, so a hit sees it too): the channel is
            # numerically degenerate, so never transmit with the fallback
            # precoders -- decline the plan and quarantine the links until
            # their channel epoch changes.
            for planned in receivers:
                self.quarantine_link(planned.receiver_id)
            if not suppressed:
                self.quarantined_rounds += 1
            return []

        join_order = medium.max_join_order() + 1
        power = plan.power_per_stream()
        own_receiver_ids = [r.receiver_id for r in receivers]
        streams: List[ScheduledStream] = []
        for stream_plan in plan.streams:
            protected: Dict[int, InterferenceStrategy] = {
                other: InterferenceStrategy.ALIGN
                for other in own_receiver_ids
                if other != stream_plan.receiver_id
            }
            streams.append(
                ScheduledStream(
                    stream_id=medium.next_stream_id(),
                    transmitter_id=self.node_id,
                    receiver_id=stream_plan.receiver_id,
                    precoders=stream_plan.precoders,
                    power=power,
                    mcs=MCS_TABLE[0],
                    payload_bits=0,
                    start_us=start_us,
                    end_us=start_us,
                    join_order=join_order,
                    protected_receivers=protected,
                )
            )

        # Bitrate and payload per receiver.  The *primary* receiver (first in
        # the plan) transmits one full packet and its airtime sets the body
        # duration; the remaining receivers fragment or aggregate their
        # queued data to end at exactly the same time, as n+ requires of
        # anything sharing the medium (§3.1).
        primary = receivers[0]
        primary_group = [s for s in streams if s.receiver_id == primary.receiver_id]
        primary_mcs = self._select_mcs(primary.receiver_id, streams, medium.active_streams)
        primary_packet = self.queues[primary.receiver_id].head()
        primary_bits = (
            self.queues[primary.receiver_id].take_bits(primary_packet.size_bits)
            if primary_packet
            else 0
        )
        primary_group[0].payload_bits = primary_bits
        duration = airtime_for_bits(primary_mcs, primary_bits, len(primary_group))
        for stream in primary_group:
            stream.mcs = primary_mcs
        end_us = start_us + duration
        for stream in streams:
            stream.end_us = end_us

        from repro.mac.aggregation import bits_in_airtime

        for receiver in receivers[1:]:
            group = [s for s in streams if s.receiver_id == receiver.receiver_id]
            mcs = self._select_mcs(receiver.receiver_id, streams, medium.active_streams)
            capacity = bits_in_airtime(mcs, duration, len(group))
            payload_bits = min(capacity, self.queues[receiver.receiver_id].backlog_bits)
            group[0].payload_bits = payload_bits
            for stream in group:
                stream.mcs = mcs
        return streams
