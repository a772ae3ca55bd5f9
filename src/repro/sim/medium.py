"""The shared wireless medium: which streams are on the air right now.

The medium is pure bookkeeping -- signal combination and SNR evaluation
live in :mod:`repro.sim.link_abstraction`.  Every stream on the air is a
:class:`ScheduledStream` carrying the information that, in the real
protocol, other nodes learn from the light-weight headers: transmitter,
receiver, bitrate, duration, number of streams, and which receivers the
stream was pre-coded to protect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.mimo.dof import InterferenceStrategy
from repro.phy.rates import MCS

__all__ = ["ScheduledStream", "Medium"]


@dataclass
class ScheduledStream:
    """One spatial stream scheduled on the medium.

    Attributes
    ----------
    stream_id:
        Unique id within the simulation run.
    transmitter_id, receiver_id:
        Endpoints of the stream.
    precoders:
        ``(n_subcarriers, M)`` pre-coding vectors (unit norm).
    power:
        Transmit power of this stream (linear, noise-normalised units).
    mcs:
        The bitrate selected for the stream.
    payload_bits:
        Payload bits carried (after fragmentation/aggregation).
    start_us, end_us:
        Transmission interval of the data body.
    join_order:
        0 for the first contention winner's streams, 1 for the second
        winner's, and so on; collisions share a join order.
    protected_receivers:
        Receivers this stream was pre-coded to protect, with the strategy
        used at each (nulling or alignment).
    """

    stream_id: int
    transmitter_id: int
    receiver_id: int
    precoders: np.ndarray
    power: float
    mcs: MCS
    payload_bits: int
    start_us: float
    end_us: float
    join_order: int = 0
    protected_receivers: Dict[int, InterferenceStrategy] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        """Length of the data body, microseconds."""
        return self.end_us - self.start_us

    def protects(self, receiver_id: int) -> bool:
        """Whether this stream was pre-coded to protect ``receiver_id``."""
        return receiver_id in self.protected_receivers


class Medium:
    """Tracks the streams currently on the air."""

    def __init__(self) -> None:
        self._streams: List[ScheduledStream] = []
        self._next_stream_id = 0

    # -- ids -------------------------------------------------------------------

    def next_stream_id(self) -> int:
        """Allocate a fresh stream id."""
        value = self._next_stream_id
        self._next_stream_id += 1
        return value

    # -- state -----------------------------------------------------------------

    @property
    def active_streams(self) -> List[ScheduledStream]:
        """Streams currently on the air (a copy)."""
        return list(self._streams)

    @property
    def used_degrees_of_freedom(self) -> int:
        """Number of concurrent streams on the air."""
        return len(self._streams)

    @property
    def busy(self) -> bool:
        """Whether anything is transmitting."""
        return bool(self._streams)

    @property
    def current_end_us(self) -> float:
        """When the current joint transmission ends (-inf when idle)."""
        if not self._streams:
            return float("-inf")
        return max(s.end_us for s in self._streams)

    def transmitting_nodes(self) -> List[int]:
        """Ids of nodes currently transmitting."""
        seen: List[int] = []
        for stream in self._streams:
            if stream.transmitter_id not in seen:
                seen.append(stream.transmitter_id)
        return seen

    def receiving_nodes(self) -> List[int]:
        """Ids of nodes currently receiving."""
        seen: List[int] = []
        for stream in self._streams:
            if stream.receiver_id not in seen:
                seen.append(stream.receiver_id)
        return seen

    def streams_to(self, receiver_id: int) -> List[ScheduledStream]:
        """Streams destined to a given receiver."""
        return [s for s in self._streams if s.receiver_id == receiver_id]

    def max_join_order(self) -> int:
        """Largest join order currently on the air (-1 when idle)."""
        if not self._streams:
            return -1
        return max(s.join_order for s in self._streams)

    # -- mutation -----------------------------------------------------------------

    def add_streams(self, streams: List[ScheduledStream]) -> None:
        """Put new streams on the air."""
        self._streams.extend(streams)

    def clear(self) -> None:
        """Remove every stream (end of a joint transmission)."""
        self._streams.clear()
