"""The 802.11n+ MAC protocol.

n+ behaves like 802.11 when the medium is idle (carrier sense, contention
window, random backoff).  The differences appear once somebody is
transmitting (§3.1):

* nodes with more antennas than the number of ongoing streams keep
  carrier sensing in the subspace orthogonal to those streams
  (multi-dimensional carrier sense, §3.2) and contend for the unused
  degrees of freedom;
* a secondary-contention winner joins the ongoing transmission, pre-coding
  its streams so they null at fully-loaded receivers and align inside the
  unwanted space of the others (§3.3), subject to the L-threshold power
  rule (§4);
* the joiner sizes its payload so its transmission ends together with the
  ongoing ones (fragmentation/aggregation), and its receiver picks the
  bitrate per packet from the post-projection effective SNR (§3.4).

Because the paper's heterogeneous scenario (Fig. 4) lets a single n+
transmitter serve several receivers at once, the idle-medium behaviour is
inherited from the multi-user beamforming planner; with a single receiver
it reduces to plain spatial multiplexing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.constants import (
    BITRATE_MARGIN_DB,
    NPLUS_ACK_HEADER_EXTRA_SYMBOLS,
    NPLUS_DATA_HEADER_EXTRA_SYMBOLS,
    OFDM_SYMBOL_DURATION_US_10MHZ,
    SIFS_US,
)
from repro.exceptions import PrecodingError
from repro.mac.aggregation import bits_in_airtime
from repro.mac.beamforming import BeamformingMac, distribute_streams
from repro.mac.plan import (
    PlannedReceiver,
    ProtectedReceiver,
    plan_transmission,
    stream_signature,
)
from repro.mimo.dof import InterferenceStrategy, choose_strategy
from repro.phy.esnr import esnr_db, mcs_for_esnr
from repro.phy.rates import MCS_TABLE
from repro.sim.link_abstraction import announced_decoding_subspace, interference_directions_at
from repro.sim.medium import Medium, ScheduledStream
from repro.utils.linalg import orthonormal_complement_batch

__all__ = ["NPlusMac"]


class NPlusMac(BeamformingMac):
    """The n+ protocol agent: contend for time *and* degrees of freedom."""

    protocol_name = "n+"
    #: Eligible for secondary contention; the runner's round loop decides
    #: eligibility from :class:`~repro.sim.traffic.TrafficStateArrays`
    #: (``repro.sim.runner._EventDrivenLoop._join_eligible``).
    supports_joining = True

    # -- timing -------------------------------------------------------------------

    def header_duration_us(self) -> float:
        """The n+ data header carries one extra OFDM symbol (§3.5)."""
        return super().header_duration_us() + (
            NPLUS_DATA_HEADER_EXTRA_SYMBOLS * OFDM_SYMBOL_DURATION_US_10MHZ
        )

    def ack_duration_us(self) -> float:
        """The n+ ACK header adds the alignment space and bitrate feedback
        (about four OFDM symbols) plus one extra SIFS of the light-weight
        handshake."""
        return (
            super().ack_duration_us()
            + NPLUS_ACK_HEADER_EXTRA_SYMBOLS * OFDM_SYMBOL_DURATION_US_10MHZ
            + SIFS_US
        )

    # -- secondary contention ------------------------------------------------------

    def _protected_receivers(self, medium: Medium) -> Optional[List[ProtectedReceiver]]:
        """Build the protection constraints from the overheard headers.

        ``None`` when a receiver's announced decoding subspace degraded
        (:mod:`repro.utils.guarded`): the joiner cannot protect that
        receiver, so it does not join.
        """
        protected: List[ProtectedReceiver] = []
        for receiver_id in medium.receiving_nodes():
            wanted = medium.streams_to(receiver_id)
            station = self.network.station(receiver_id)
            n_wanted = len(wanted)
            strategy = choose_strategy(station.n_antennas, n_wanted)
            if strategy is InterferenceStrategy.NULL:
                u_perp = None
            else:
                others = [
                    s
                    for s in medium.active_streams
                    if s.receiver_id != receiver_id and not s.protects(receiver_id)
                ]
                u_perp, degraded = announced_decoding_subspace(
                    self.network, receiver_id, wanted, others
                )
                if degraded.any():
                    return None
            protected.append(
                ProtectedReceiver(
                    receiver_id=receiver_id,
                    n_antennas=station.n_antennas,
                    n_wanted_streams=n_wanted,
                    channel=self.network.estimated_channel(
                        self.node_id, receiver_id, reciprocity=True
                    ),
                    u_perp=u_perp,
                )
            )
        return protected

    def _own_receivers(
        self, medium: Medium, max_streams: int
    ) -> Tuple[List[PlannedReceiver], List[int]]:
        """Choose which of our receivers take the new streams and build
        their planning records.

        Returns ``(planned, degraded)``: a receiver whose orthogonal
        subspace degraded (the guards fell back) is left out of the join
        and named in ``degraded``, for :meth:`plan_join` to quarantine.
        """
        used = medium.used_degrees_of_freedom
        candidates = []
        capacities = []
        for receiver in self.pair.receivers:
            if not self.queues[receiver.node_id].has_traffic:
                continue
            if self.link_quarantined(receiver.node_id):
                continue
            capacity = receiver.n_antennas - used
            if capacity <= 0:
                continue
            candidates.append(receiver)
            capacities.append(capacity)
        allocation = distribute_streams(max_streams, capacities)
        planned: List[PlannedReceiver] = []
        degraded: List[int] = []
        for receiver, n_streams in zip(candidates, allocation):
            if n_streams == 0:
                continue
            ongoing_at_receiver = interference_directions_at(
                self.network, receiver.node_id, medium.active_streams
            )
            u_perp, members = orthonormal_complement_batch(ongoing_at_receiver, n_streams)
            if members.any():
                degraded.append(receiver.node_id)
                continue
            planned.append(
                PlannedReceiver(
                    receiver_id=receiver.node_id,
                    n_antennas=receiver.n_antennas,
                    n_streams=n_streams,
                    channel=self.network.estimated_channel(self.node_id, receiver.node_id),
                    u_perp=u_perp,
                )
            )
        return planned, degraded

    def _join_plan_core(self, medium: Medium):
        """The expensive, pure part of a join: subspaces and pre-coders.

        Returns ``(plan, receivers, degraded)``: ``plan`` is ``None`` when
        no join is possible, and ``degraded`` names the own receivers
        whose planning math fell back.  Under the static-channel
        invariant this is a pure function of the streams on the air and
        of which of our receivers are backlogged, so :meth:`plan_join`
        memoizes it by that configuration and quarantines ``degraded``
        outside the memo, so a hit quarantines what the miss did -- the
        airtime- and backlog-dependent payload sizing stays outside the
        cache too.
        """
        used = medium.used_degrees_of_freedom
        max_new = self.n_antennas - used
        if max_new <= 0:
            return None, [], []
        # Measure every link this configuration can need in one batched
        # prefetch: the reciprocity estimates to all ongoing receivers
        # plus the forward estimates to our own candidate receivers.  A
        # no-op under the v2 draw contracts, which keep the lazy
        # one-link-at-a-time draw order (see Network.prefetch_estimates).
        self.network.prefetch_estimates(
            [(self.node_id, rid, True) for rid in medium.receiving_nodes()]
            + [
                (self.node_id, r.node_id, False)
                for r in self.pair.receivers
                if r.n_antennas > used and self.queues[r.node_id].has_traffic
            ]
        )
        protected = self._protected_receivers(medium)
        if protected is None:
            return None, [], []
        receivers, degraded = self._own_receivers(medium, max_new)
        if not receivers:
            return None, [], degraded
        try:
            plan = plan_transmission(
                transmitter_id=self.node_id,
                n_tx_antennas=self.n_antennas,
                protected=protected,
                receivers=receivers,
                noise_power=self.network.noise_power,
            )
        except PrecodingError:
            return None, [], degraded
        if plan.degraded.any():
            # The joint pre-coder solve degraded: never transmit with the
            # fallback pre-coders.  The shared constraint matrix does not
            # say which link is at fault, so quarantine every planned one
            # (each lifts as soon as its channel epoch changes).
            return None, [], degraded + [r.receiver_id for r in receivers]
        return plan, receivers, degraded

    def plan_join(
        self, start_us: float, medium: Medium
    ) -> Optional[List[ScheduledStream]]:
        """Join the ongoing transmissions without interfering with them."""
        if any(self.link_quarantined(r.node_id) for r in self.pair.receivers):
            self.quarantined_rounds += 1
        backlogged = tuple(
            r.node_id for r in self.pair.receivers if self.queues[r.node_id].has_traffic
        )
        # Epoch signature over every node whose channel the join plan can
        # read: the joiner, the active streams' endpoints (protected
        # receivers) and its own receivers.  () in a static network.
        involved = {self.node_id}
        for stream in medium.active_streams:
            involved.add(stream.transmitter_id)
            involved.add(stream.receiver_id)
        for receiver in self.pair.receivers:
            involved.add(receiver.node_id)
        key = (
            "join-plan",
            self.node_id,
            stream_signature(medium.active_streams),
            backlogged,
            # Quarantine state can change *within* one channel epoch (links
            # are quarantined after planning), so the memo key must carry
            # it or a pre-quarantine plan would be replayed from cache.
            self._quarantine_signature(),
            self.network.epoch_signature(involved),
        )
        plan, receivers, degraded = self._cached(key, lambda: self._join_plan_core(medium))
        for receiver_id in degraded:
            self.quarantine_link(receiver_id)
        if plan is None:
            return None

        end_us = medium.current_end_us
        if end_us <= start_us:
            return None
        streams = self._scheduled_streams(plan, receivers, start_us, end_us, medium)

        # Per-receiver bitrate (measured after projection, §3.4) and payload
        # sized to the remaining airtime (fragmentation/aggregation, §3.1).
        # A receiver whose post-projection effective SNR cannot sustain even
        # the most robust bitrate declines the join (it would only waste the
        # degree of freedom on a packet that cannot be decoded).
        airtime = end_us - start_us
        any_payload = False
        lowest = MCS_TABLE[0]
        for receiver in receivers:
            group = [s for s in streams if s.receiver_id == receiver.receiver_id]
            esnr = esnr_db(
                self._measured_snrs(receiver.receiver_id, streams, medium.active_streams)
            )
            if esnr < lowest.min_esnr_db + BITRATE_MARGIN_DB:
                group[0].payload_bits = 0
                continue
            mcs = mcs_for_esnr(esnr, BITRATE_MARGIN_DB)
            capacity = bits_in_airtime(mcs, airtime, len(group))
            backlog = self.queues[receiver.receiver_id].backlog_bits
            payload = min(capacity, backlog)
            group[0].payload_bits = payload
            for stream in group:
                stream.mcs = mcs
            if payload > 0:
                any_payload = True
        if not any_payload:
            return None
        return streams
