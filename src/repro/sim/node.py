"""Stations and traffic pairs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.exceptions import ConfigurationError

__all__ = ["Station", "TrafficPair"]


@dataclass
class Station:
    """A wireless node.

    Attributes
    ----------
    node_id:
        Unique identifier.
    n_antennas:
        Number of antennas (1-4 in the paper's scenarios).
    name:
        Optional human-readable label ("tx1", "AP2", ...).
    location:
        Index into the testbed's location list, assigned per run.
    """

    node_id: int
    n_antennas: int
    name: str = ""
    location: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise ConfigurationError(
                f"station {self.node_id} must have at least one antenna"
            )
        if not self.name:
            self.name = f"node{self.node_id}"


@dataclass
class TrafficPair:
    """A transmitter-receiver pair with traffic demand.

    Attributes
    ----------
    transmitter:
        The sending station.
    receivers:
        Destination stations.  Usually one; an access point transmitting
        to several clients at once (Fig. 4) lists them all.
    streams_per_receiver:
        Spatial streams destined to each receiver when this pair wins an
        uncontended medium; the MAC may use fewer when joining.
    """

    transmitter: Station
    receivers: List[Station]
    streams_per_receiver: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.receivers:
            raise ConfigurationError("a traffic pair needs at least one receiver")
        if not self.streams_per_receiver:
            # Default: use as many streams as both ends can support, split
            # evenly across receivers.
            per_receiver = max(1, self.transmitter.n_antennas // len(self.receivers))
            self.streams_per_receiver = [
                min(per_receiver, receiver.n_antennas) for receiver in self.receivers
            ]
        if len(self.streams_per_receiver) != len(self.receivers):
            raise ConfigurationError(
                "streams_per_receiver must align with receivers "
                f"({len(self.streams_per_receiver)} vs {len(self.receivers)})"
            )
        total = sum(self.streams_per_receiver)
        if total > self.transmitter.n_antennas:
            raise ConfigurationError(
                f"pair {self.transmitter.name}: {total} streams exceed "
                f"{self.transmitter.n_antennas} antennas"
            )

    @property
    def name(self) -> str:
        """Readable pair label, e.g. ``"tx1->rx1"``."""
        receivers = "+".join(r.name for r in self.receivers)
        return f"{self.transmitter.name}->{receivers}"
