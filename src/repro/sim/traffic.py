"""Traffic sources and the batched per-agent traffic-state arrays.

The paper's evaluation uses saturated (always-backlogged) sources sending
1500-byte packets; the Poisson source is provided for the bursty-traffic
examples and for fairness experiments under partial load.

:class:`TrafficStateArrays` is the batching layer on top: it mirrors the
traffic state of every MAC agent (backlog, earliest pending arrival,
join-eligibility inputs) into NumPy arrays that are updated incrementally
-- an agent pushes its new state whenever a refill or a transmission
outcome changes it -- so the simulation runner can evaluate ``has_traffic``
/ ``next_traffic_time_us`` / ``can_join`` for *all* agents with a handful
of array operations per round instead of one Python call per agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.constants import DEFAULT_PACKET_SIZE_BYTES
from repro.exceptions import ConfigurationError
from repro.mac.frames import Packet

__all__ = ["SaturatedSource", "PoissonSource", "TrafficStateArrays"]


@dataclass
class SaturatedSource:
    """A source that always has another packet ready.

    Attributes
    ----------
    source_id, destination_id:
        Endpoints of the flow.
    """

    source_id: int
    destination_id: int
    _next_packet_id: int = field(default=0, repr=False)

    #: Saturated sources can always deliver another packet immediately, so
    #: the batched traffic arrays never need to poll them for a future
    #: arrival time (their agents are kept backlogged by every refill).
    always_backlogged = True

    def has_packet(self, now_us: float) -> bool:
        """Saturated sources always have traffic."""
        return True

    def next_packet(self, now_us: float) -> Packet:
        """Generate the next packet."""
        packet = Packet(
            source=self.source_id,
            destination=self.destination_id,
            size_bytes=DEFAULT_PACKET_SIZE_BYTES,
            packet_id=self._next_packet_id,
            created_us=now_us,
        )
        self._next_packet_id += 1
        return packet


@dataclass
class PoissonSource:
    """A Poisson packet-arrival process.

    Attributes
    ----------
    source_id, destination_id:
        Endpoints of the flow.
    rate_packets_per_second:
        Mean arrival rate.
    rng:
        Random generator for the arrival process.
    """

    source_id: int
    destination_id: int
    rate_packets_per_second: float
    rng: np.random.Generator
    _next_arrival_us: Optional[float] = field(default=None, repr=False)
    _next_packet_id: int = field(default=0, repr=False)

    #: Poisson sources run dry between arrivals; the batched traffic
    #: arrays track their next arrival time to know when to poll again.
    always_backlogged = False

    def __post_init__(self) -> None:
        if self.rate_packets_per_second <= 0:
            raise ConfigurationError(
                f"Poisson rate must be positive, got {self.rate_packets_per_second}"
                " (use a saturated source for always-backlogged traffic)"
            )

    def _ensure_arrival(self, now_us: float) -> None:
        if self._next_arrival_us is None:
            self._next_arrival_us = now_us + self._draw_gap()

    def _draw_gap(self) -> float:
        mean_gap_us = 1e6 / self.rate_packets_per_second
        return float(self.rng.exponential(mean_gap_us))

    def has_packet(self, now_us: float) -> bool:
        """Whether a packet has arrived by ``now_us``."""
        self._ensure_arrival(now_us)
        return now_us >= self._next_arrival_us

    def next_packet_time_us(self, now_us: float) -> float:
        """Absolute time of the next arrival.

        Used by the runner's round loop to jump over idle gaps in one
        step instead of polling slot by slot.  Reading this
        does not consume randomness beyond what :meth:`has_packet` at the
        same instant would, so seeded runs stay byte-identical to the
        slot-polling loop.
        """
        self._ensure_arrival(now_us)
        return float(self._next_arrival_us)

    def next_packet(self, now_us: float) -> Packet:
        """Pop the arrived packet and schedule the next arrival."""
        self._ensure_arrival(now_us)
        packet = Packet(
            source=self.source_id,
            destination=self.destination_id,
            size_bytes=DEFAULT_PACKET_SIZE_BYTES,
            packet_id=self._next_packet_id,
            created_us=self._next_arrival_us,
        )
        self._next_packet_id += 1
        self._next_arrival_us = max(now_us, self._next_arrival_us) + self._draw_gap()
        return packet


class TrafficStateArrays:
    """Traffic state of every MAC agent, mirrored into NumPy arrays.

    One row per agent, ordered by ascending ``node_id`` (so the layout --
    and everything computed from it -- is independent of the order the
    agents happened to be constructed in).  Static per-agent facts
    (``node_ids``, ``n_antennas``, ``supports_joining``) are captured at
    construction; the dynamic columns are pushed by the agents themselves
    through the listener callbacks :meth:`agent_refilled` /
    :meth:`agent_outcome`, which :class:`~repro.mac.agent.BaseMacAgent`
    invokes whenever a refill or a transmission outcome changes its queues.

    The point of the incremental updates is that a simulation round only
    pays Python-level work for the agents whose state *changed* (round
    participants and agents with a due Poisson arrival); everyone else is
    covered by the array reads.  :meth:`refill_due` is constructed so that
    skipped refills are provably no-ops: an agent's refill can only move
    packets when a transmission outcome touched its queues since the last
    refill (``refill_pending``) or a pending arrival has come due
    (``next_arrival_us <= now``), which are exactly the rows the mask
    selects.

    Dynamic columns
    ---------------
    backlogged:
        Whether any of the agent's queues holds unacknowledged bits (the
        batched form of ``has_traffic`` once due refills have run).
    next_arrival_us:
        Earliest pending source arrival, ``inf`` for always-backlogged
        (saturated) sources.
    join_rx_antennas:
        Largest antenna count among the agent's receivers that currently
        have queued traffic (0 when none do) -- the per-agent input of the
        n+ join-eligibility rule "some receiver has a spare dimension".
    queue_space:
        Whether some queue is below the refill target, i.e. a refill could
        actually accept a pending arrival.  Without it, a backlogged
        Poisson agent whose queues are full but whose next arrival lies in
        the past would be "due" -- and pointlessly refilled -- every round.
    refill_pending:
        Set when a transmission outcome changed the agent's queues;
        cleared by the next refill.
    """

    def __init__(self, agents: Sequence) -> None:
        self.agents = sorted(agents, key=lambda agent: agent.node_id)
        n = len(self.agents)
        self.node_ids = np.array([a.node_id for a in self.agents], dtype=np.int64)
        self.n_antennas = np.array([a.n_antennas for a in self.agents], dtype=np.int64)
        self.supports_joining = np.array(
            [bool(a.supports_joining) for a in self.agents], dtype=bool
        )
        self.backlogged = np.zeros(n, dtype=bool)
        self.next_arrival_us = np.full(n, np.inf, dtype=np.float64)
        self.join_rx_antennas = np.zeros(n, dtype=np.int64)
        self.queue_space = np.ones(n, dtype=bool)
        # Every agent starts dirty so the first round refills (and thereby
        # publishes) everyone, exactly like the per-agent loop's first
        # ``has_traffic`` sweep at time zero.
        self.refill_pending = np.ones(n, dtype=bool)
        self._row: Dict[int, int] = {
            int(node_id): index for index, node_id in enumerate(self.node_ids)
        }
        for agent in self.agents:
            agent.attach_traffic_listener(self)

    # -- listener callbacks (invoked by the agents) -----------------------------

    def agent_refilled(
        self,
        node_id: int,
        backlogged: bool,
        next_arrival_us: float,
        join_rx_antennas: int,
        queue_space: bool,
    ) -> None:
        """An agent finished a refill; record its complete new state."""
        row = self._row[node_id]
        self.backlogged[row] = backlogged
        self.next_arrival_us[row] = next_arrival_us
        self.join_rx_antennas[row] = join_rx_antennas
        self.queue_space[row] = queue_space
        self.refill_pending[row] = False

    def agent_outcome(self, node_id: int, backlogged: bool, join_rx_antennas: int) -> None:
        """A transmission outcome changed an agent's queues.

        Arrival times are untouched (outcomes never pop sources); the row
        is marked dirty so the next round refills this agent.
        """
        row = self._row[node_id]
        self.backlogged[row] = backlogged
        self.join_rx_antennas[row] = join_rx_antennas
        self.refill_pending[row] = True

    # -- batched queries (used by the runner) -----------------------------------

    def refill_due(self, now_us: float) -> np.ndarray:
        """Mask of agents whose refill could actually move packets.

        An agent is due when an outcome dirtied its queues
        (``refill_pending``) or a pending arrival has come due *and* some
        queue can accept it.  Refills of agents outside the mask are
        provably no-ops, which is why the batched pipeline may skip them
        and still match the refill-everyone reference bit for bit.
        """
        return self.refill_pending | (
            self.queue_space & (self.next_arrival_us <= now_us)
        )

    def refill(self, now_us: float, mask: np.ndarray) -> None:
        """Refill the masked agents (each publishes its state back here)."""
        agents = self.agents
        for index in np.nonzero(mask)[0]:
            agents[index].refill(now_us)

    def next_traffic_time_us(self, now_us: float) -> float:
        """Batched ``min`` over every agent's ``next_traffic_time_us``."""
        if not self.agents:
            return float("inf")
        return float(np.where(self.backlogged, now_us, self.next_arrival_us).min())
