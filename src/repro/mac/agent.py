"""The base MAC agent shared by n+, 802.11n and the beamforming baseline.

An agent owns one traffic pair: it keeps per-receiver packet queues fed by
saturated (or Poisson) sources, carries the DCF contention state, knows
how to plan a transmission on an idle medium, and records the outcome of
every attempt.  The protocol-specific subclasses override how streams are
formed (single-user, multi-user beamforming) and whether/how the node
joins ongoing transmissions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constants import (
    BITRATE_MARGIN_DB,
    HEADER_OFDM_SYMBOLS,
    OFDM_SYMBOL_DURATION_US_10MHZ,
    SIFS_US,
)
from repro.exceptions import MediumAccessError
from repro.mac.aggregation import airtime_for_bits
from repro.mac.bitrate import choose_bitrate
from repro.mac.csma import DcfContender
from repro.mac.plan import PlanCache, involved_node_ids, stream_signature
from repro.mac.retransmission import RetransmissionQueue
from repro.mac.variants import default_params
from repro.phy.rates import MCS, MCS_TABLE
from repro.sim.link_abstraction import FLOOR_SNR_DB, receiver_stream_snrs, solo_link
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.node import TrafficPair
from repro.sim.traffic import SaturatedSource

__all__ = ["BaseMacAgent"]

#: Minimum queued packets kept per receiver so saturated sources never run dry.
_QUEUE_TARGET = 4


class BaseMacAgent:
    """Common machinery for all MAC protocol agents.

    Parameters
    ----------
    pair:
        The transmitter-receiver pair this agent drives.
    network:
        The :class:`repro.sim.network.Network` of the current run.
    rng:
        Random generator (backoff draws, delivery coin flips).
    arrival_seed:
        Seed prefix (any sequence :func:`numpy.random.default_rng`
        accepts) for the Poisson arrival processes: every (transmitter,
        receiver) flow draws its arrivals from its own stream seeded
        ``(*arrival_seed, transmitter_id, receiver_id)``, so the arrival
        sequence of a flow is a pure function of the seed and the flow's
        endpoints -- independent of the order agents are created or
        refilled in.  Saturated sources draw nothing from it.
    plan_cache:
        The per-simulation :class:`~repro.mac.plan.PlanCache` that
        memoizes the pure planning computations (pre-coder
        decompositions, measured post-projection SNRs) by contention
        configuration.
    spec:
        Optional :class:`~repro.mac.variants.ProtocolSpec` carrying the
        variant parameters (the recovery family: ``recovery``,
        ``retry_cap``, ``erasure_k``/``erasure_n``).  Omitting it uses
        every default, exactly like a default-parameter spec.
    """

    protocol_name = "base"
    supports_joining = False

    def __init__(
        self,
        pair: TrafficPair,
        network,
        rng: np.random.Generator,
        *,
        arrival_seed: Sequence[int],
        plan_cache: PlanCache,
        packet_rate_pps: Optional[float] = None,
        spec=None,
    ) -> None:
        self.pair = pair
        self.network = network
        self.rng = rng
        self.plan_cache = plan_cache
        self.spec = spec
        params = spec.resolved_params() if spec is not None else default_params()
        self.recovery: str = params["recovery"]
        self.retry_cap: int = params["retry_cap"]
        self.erasure_k: int = params["erasure_k"]
        self.erasure_n: int = params["erasure_n"]
        self.contender = DcfContender(node_id=pair.transmitter.node_id)
        self.queues: Dict[int, RetransmissionQueue] = {}
        self.sources: Dict[int, object] = {}
        self._traffic_listener = None
        self._receiver_antennas: Dict[int, int] = {
            receiver.node_id: receiver.n_antennas for receiver in pair.receivers
        }
        for receiver in pair.receivers:
            self.queues[receiver.node_id] = RetransmissionQueue(
                max_retries=self.retry_cap
            )
            if packet_rate_pps is None:
                self.sources[receiver.node_id] = SaturatedSource(
                    source_id=pair.transmitter.node_id,
                    destination_id=receiver.node_id,
                )
            else:
                from repro.sim.traffic import PoissonSource

                self.sources[receiver.node_id] = PoissonSource(
                    source_id=pair.transmitter.node_id,
                    destination_id=receiver.node_id,
                    rate_packets_per_second=packet_rate_pps,
                    rng=np.random.default_rng(
                        (*arrival_seed, pair.transmitter.node_id, receiver.node_id)
                    ),
                )
        self._round_robin = 0
        # receiver_id -> epoch signature of the link at quarantine time.
        # A link lands here when the numerical guards degraded one of its
        # planning decompositions; it sits out until the signature changes
        # (the channel moved to a new epoch), see quarantine_link().
        self._quarantine: Dict[int, tuple] = {}
        self.quarantined_rounds = 0

    # -- identity -----------------------------------------------------------------

    @property
    def node_id(self) -> int:
        """Id of the transmitting station."""
        return self.pair.transmitter.node_id

    @property
    def n_antennas(self) -> int:
        """Antenna count of the transmitting station."""
        return self.pair.transmitter.n_antennas

    @property
    def name(self) -> str:
        """Readable label of the pair."""
        return self.pair.name

    # -- traffic --------------------------------------------------------------------

    def attach_traffic_listener(self, listener) -> None:
        """Register the batched traffic-state arrays this agent reports to.

        ``listener`` is a :class:`~repro.sim.traffic.TrafficStateArrays`
        (or anything with its ``agent_refilled`` / ``agent_outcome``
        callbacks).  Once attached, every :meth:`refill` and
        :meth:`record_outcome` pushes the agent's new traffic state, which
        is what keeps the arrays incremental instead of rescanned.
        ``None`` detaches the agent again (the runner does so when a run
        ends, which breaks the agent <-> arrays reference cycle).
        """
        self._traffic_listener = listener

    def _queue_snapshot(self) -> tuple:
        """``(backlogged, join_rx_antennas, queue_space)`` of the queues.

        ``queue_space`` -- some queue is below the refill target, i.e. a
        future refill could actually move packets -- is what lets the
        batched pipeline skip the no-op refills of agents whose queues are
        full even though arrivals are pending.
        """
        backlogged = False
        join_rx_antennas = 0
        queue_space = False
        for receiver_id, queue in self.queues.items():
            if len(queue) < _QUEUE_TARGET:
                queue_space = True
            if queue.has_traffic:
                backlogged = True
                antennas = self._receiver_antennas[receiver_id]
                if antennas > join_rx_antennas:
                    join_rx_antennas = antennas
        return backlogged, join_rx_antennas, queue_space

    def _next_source_arrival_us(self, now_us: float) -> float:
        """Earliest pending arrival across sources (``inf`` for saturated).

        Always-backlogged sources report ``inf`` rather than ``now``: their
        agents are kept backlogged by every refill, so the arrival column
        is only ever consulted for sources that can run dry -- reporting
        ``inf`` keeps saturated agents out of the due-for-refill mask.
        """
        earliest = float("inf")
        for source in self.sources.values():
            if getattr(source, "always_backlogged", False):
                continue
            arrival = source.next_packet_time_us(now_us)
            if arrival < earliest:
                earliest = arrival
        return earliest

    def refill(self, now_us: float) -> None:
        """Top up the per-receiver queues from the traffic sources."""
        for receiver_id, queue in self.queues.items():
            source = self.sources[receiver_id]
            while len(queue) < _QUEUE_TARGET and source.has_packet(now_us):
                queue.enqueue(source.next_packet(now_us))
        if self._traffic_listener is not None:
            backlogged, join_rx_antennas, queue_space = self._queue_snapshot()
            self._traffic_listener.agent_refilled(
                self.node_id,
                backlogged,
                self._next_source_arrival_us(now_us),
                join_rx_antennas,
                queue_space,
            )

    # -- timing helpers ----------------------------------------------------------------

    def header_duration_us(self) -> float:
        """Airtime of the light-weight data header."""
        return HEADER_OFDM_SYMBOLS * OFDM_SYMBOL_DURATION_US_10MHZ

    def ack_duration_us(self) -> float:
        """Airtime of the ACK exchange that follows the data bodies."""
        return SIFS_US + HEADER_OFDM_SYMBOLS * OFDM_SYMBOL_DURATION_US_10MHZ

    # -- plan caching -------------------------------------------------------------------

    def _cached(self, key: tuple, compute):
        """Memoize a pure planning computation in the per-simulation cache."""
        return self.plan_cache.get(key, compute)

    # -- numerical quarantine -----------------------------------------------------------

    def quarantine_link(self, receiver_id: int) -> None:
        """Sit a link out after a guarded numerical fallback.

        Called by the planning layer when a guarded kernel's mask
        (:mod:`repro.utils.guarded`) flags a member of this link's plan
        (non-finite or near-singular channel, typically mid-fade).  The
        link's current epoch signature is pinned; the quarantine lifts
        automatically the moment the signature changes (the fault layer
        bumped the channel), so a restored link resumes without any
        explicit un-quarantine call.
        """
        signature = self.network.epoch_signature((self.node_id, receiver_id))
        self._quarantine[receiver_id] = signature

    def link_quarantined(self, receiver_id: int) -> bool:
        """Whether a link is currently quarantined (auto-lifts on epoch change)."""
        pinned = self._quarantine.get(receiver_id)
        if pinned is None:
            return False
        current = self.network.epoch_signature((self.node_id, receiver_id))
        if current != pinned:
            del self._quarantine[receiver_id]
            return False
        return True

    def _quarantine_signature(self) -> tuple:
        """Sorted ids of the still-quarantined receivers, as a cache-key
        component: quarantine state can flip within one channel epoch
        (links are quarantined as their plans come back degraded), so plan
        memo keys must carry it explicitly."""
        return tuple(
            sorted(
                receiver_id
                for receiver_id in list(self._quarantine)
                if self.link_quarantined(receiver_id)
            )
        )

    # -- bitrate -------------------------------------------------------------------------

    def _measured_snrs(
        self,
        receiver_id: int,
        planned: Sequence[ScheduledStream],
        concurrent: Sequence[ScheduledStream],
    ) -> np.ndarray:
        """Per-subcarrier post-projection SNRs the receiver would measure on
        the light-weight RTS of the planned streams (worst stream governs
        every subcarrier because one failed stream fails the packet).

        Pure given the contention configuration (static channels, memoized
        estimates, no generator involved), so the result is memoized by
        the structural signatures of the planned and concurrent streams
        plus the channel-epoch signature of every involved node (``()``
        in a static network; a fade bumping any involved link changes
        the signature and so retires exactly the affected entries).
        """
        involved = involved_node_ids(
            planned, concurrent, extra=(self.node_id, receiver_id)
        )
        key = (
            "measured-snrs",
            receiver_id,
            stream_signature(planned),
            stream_signature(concurrent),
            self.network.epoch_signature(involved),
        )
        return self._cached(
            key, lambda: self._measured_snrs_fresh(receiver_id, planned, concurrent)
        )

    def _measured_snrs_fresh(
        self,
        receiver_id: int,
        planned: Sequence[ScheduledStream],
        concurrent: Sequence[ScheduledStream],
    ) -> np.ndarray:
        wanted = [s for s in planned if s.receiver_id == receiver_id]
        snrs = receiver_stream_snrs(
            self.network, receiver_id, wanted, list(concurrent) + list(planned)
        )
        per_stream = [snrs[s.stream_id] for s in wanted]
        if not per_stream:
            return np.array([0.0])
        return np.concatenate(per_stream)

    def _select_mcs(
        self,
        receiver_id: int,
        planned: Sequence[ScheduledStream],
        concurrent: Sequence[ScheduledStream],
    ) -> MCS:
        """The bitrate the receiver would feed back for the planned streams.

        The receiver measures the post-projection SNR of each of its wanted
        streams on the (light-weight) RTS given the transmissions on the
        air at that moment, computes the effective SNR and picks the
        fastest adequate MCS; the most constrained stream governs.  A
        measurement at the floor on every subcarrier (streams the receiver
        cannot separate) gets MCS 0, which is what its ESNR selects.
        """
        measured = self._measured_snrs(receiver_id, planned, concurrent)
        if (measured == FLOOR_SNR_DB).all():
            return MCS_TABLE[0]
        return choose_bitrate(measured, BITRATE_MARGIN_DB)

    def _solo_plan(
        self,
        start_us: float,
        medium: Medium,
        receiver_id: int,
        payload_bits: int,
        max_streams: Optional[int] = None,
    ) -> List[ScheduledStream]:
        """An idle-medium transmission to one receiver, read from the
        network's solo-link table (:func:`~repro.sim.link_abstraction.solo_link`).

        One stream per usable antenna (at most ``max_streams``), stream
        ``j`` on antenna ``j`` at an equal share of the power, carrying
        ``payload_bits`` at the MCS the receiver measures with nothing
        else on the air.  Every stream records the table entry, so
        delivery reads the same SNRs while the transmitter stays alone.
        """
        solo = solo_link(self.network, self.node_id, receiver_id, max_streams)
        end_us = start_us + airtime_for_bits(solo.mcs, payload_bits, solo.n_streams)
        return [
            ScheduledStream(
                stream_id=medium.next_stream_id(),
                transmitter_id=self.node_id,
                receiver_id=receiver_id,
                precoders=precoders,
                power=solo.power,
                mcs=solo.mcs,
                payload_bits=payload_bits if index == 0 else 0,
                start_us=start_us,
                end_us=end_us,
                join_order=0,
                solo=solo,
            )
            for index, precoders in enumerate(solo.precoders)
        ]

    # -- outcomes -------------------------------------------------------------------------------

    def record_outcome(
        self, receiver_id: int, attempted_bits: int, delivered: bool,
        collided: bool = False,
    ) -> int:
        """Update queues and contention state after a transmission.

        ``collided`` distinguishes a contention collision from a channel
        loss (a NACKed frame): under the ``fast-retransmit`` recovery
        policy a channel loss arms a zero-backoff resend instead of
        doubling the contention window, while collisions always back off
        exponentially.  Returns the number of bits acknowledged.
        """
        if receiver_id not in self.queues:
            raise MediumAccessError(
                f"{self.name}: outcome for unknown receiver {receiver_id}"
            )
        queue = self.queues[receiver_id]
        if delivered:
            queue.acknowledge(attempted_bits)
            self.contender.record_success()
            acknowledged = attempted_bits
        else:
            queue.fail(attempted_bits)
            if self.recovery == "fast-retransmit" and not collided:
                self.contender.arm_fast_retransmit()
            else:
                self.contender.record_collision()
            acknowledged = 0
        if self._traffic_listener is not None:
            backlogged, join_rx_antennas, _ = self._queue_snapshot()
            self._traffic_listener.agent_outcome(self.node_id, backlogged, join_rx_antennas)
        return acknowledged

    # -- shared helpers for subclasses -------------------------------------------------------------

    def _equal_power(self, n_streams: int, power_scale: float = 1.0) -> float:
        """Per-stream transmit power with an equal split of the budget."""
        if n_streams <= 0:
            return 0.0
        return power_scale / n_streams

    def _constant_precoders(self, vector: np.ndarray) -> np.ndarray:
        """Tile a single pre-coding vector across all tracked subcarriers."""
        vector = np.asarray(vector, dtype=complex)
        return np.tile(vector, (self.network.n_subcarriers, 1))
