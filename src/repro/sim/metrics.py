"""Throughput and fairness accounting.

Metrics round-trip losslessly through plain dicts
(:meth:`NetworkMetrics.to_dict` / :meth:`NetworkMetrics.from_dict`),
which is what the sweep results cache serialises to JSON and what worker
processes ship back to the orchestrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

__all__ = ["LinkMetrics", "NetworkMetrics", "empirical_cdf", "jain_fairness_index"]


@dataclass
class LinkMetrics:
    """Counters for one transmitter-receiver pair.

    Every counter starts at 0 when the runner opens the link's entry.

    Attributes
    ----------
    pair_name:
        Human-readable label of the pair.
    delivered_bits:
        Payload bits acknowledged.
    attempted_bits:
        Payload bits put on the air.
    packets_delivered, packets_failed:
        Transmission outcomes at packet granularity.
    airtime_us:
        Time this pair spent transmitting data bodies.
    transmissions, joins, collisions:
        Protocol-level event counts.
    packets_dropped:
        Packets abandoned at the retry cap (see
        :meth:`repro.mac.retransmission.RetransmissionQueue.fail`),
        summed over the pair's queues when the run closes.
    recovered_bits:
        Payload bits that would have been lost to a fault episode but
        were reconstructed receiver-side by the ``erasure`` recovery
        policy (fragments erased, yet at least ``erasure_k`` of
        ``erasure_n`` survived).  Recovered bits are always a subset of
        the attempt's delivered bits -- a frame is either decoded (its
        erased fragments counted here) or lost (nothing recovered), so no
        bit is both recovered and dropped.  Stays 0 under every other
        policy.
    quarantined_rounds:
        Planning calls in which this pair's transmitter declined (or
        trimmed) a transmission because the link was quarantined by the
        numerical guards (:mod:`repro.utils.guarded`): a degenerate
        decomposition fell back deterministically instead of raising, and
        the link sits out until its channel epoch changes.  Copied from
        the agent when the run closes.
    """

    pair_name: str
    delivered_bits: int = 0
    attempted_bits: int = 0
    packets_delivered: int = 0
    packets_failed: int = 0
    airtime_us: float = 0.0
    transmissions: int = 0
    joins: int = 0
    collisions: int = 0
    packets_dropped: int = 0
    recovered_bits: int = 0
    quarantined_rounds: int = 0

    def throughput_mbps(self, elapsed_us: float) -> float:
        """Delivered throughput over an observation window."""
        if elapsed_us <= 0:
            return 0.0
        return self.delivered_bits / elapsed_us

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe), inverse of :meth:`from_dict`.

        Built field by field, in declaration order: every field is a
        scalar, so :func:`dataclasses.asdict`'s recursion and deep copy
        would only cost time (a sweep stores one dict per pair per run).
        """
        return {
            "pair_name": self.pair_name,
            "delivered_bits": self.delivered_bits,
            "attempted_bits": self.attempted_bits,
            "packets_delivered": self.packets_delivered,
            "packets_failed": self.packets_failed,
            "airtime_us": self.airtime_us,
            "transmissions": self.transmissions,
            "joins": self.joins,
            "collisions": self.collisions,
            "packets_dropped": self.packets_dropped,
            "recovered_bits": self.recovered_bits,
            "quarantined_rounds": self.quarantined_rounds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkMetrics":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**data)


@dataclass
class NetworkMetrics:
    """Aggregated counters for one simulation run.

    Attributes
    ----------
    elapsed_us:
        Length of the observation window.
    links:
        Per-pair metrics keyed by pair name.
    """

    elapsed_us: float = 0.0
    links: Dict[str, LinkMetrics] = field(default_factory=dict)

    def link(self, pair_name: str) -> LinkMetrics:
        """Get (or create) the metrics of a pair.

        This is the *recording* accessor used by the simulation loops;
        looking up a pair that has no entry yet creates one.  Read paths
        (:meth:`throughput_mbps`, :meth:`fairness_index`, ...) must never
        use it: creating a zero-valued ``LinkMetrics`` as a side effect of
        a query would silently change aggregates such as the Jain-index
        denominator.
        """
        if pair_name not in self.links:
            self.links[pair_name] = LinkMetrics(pair_name=pair_name)
        return self.links[pair_name]

    # -- aggregates -------------------------------------------------------------

    def total_throughput_mbps(self) -> float:
        """Sum of per-link throughputs, Mb/s."""
        return sum(m.throughput_mbps(self.elapsed_us) for m in self.links.values())

    def throughput_mbps(self, pair_name: str) -> float:
        """Throughput of one pair, Mb/s.

        A pure query: asking about a pair that never transmitted returns
        0.0 without creating a metrics entry for it (so repeated queries
        cannot shift :meth:`fairness_index` or the serialised form).
        """
        metrics = self.links.get(pair_name)
        if metrics is None:
            return 0.0
        return metrics.throughput_mbps(self.elapsed_us)

    def per_link_throughputs(self) -> Dict[str, float]:
        """Throughput of every pair, Mb/s."""
        return {
            name: metrics.throughput_mbps(self.elapsed_us)
            for name, metrics in self.links.items()
        }

    def fairness_index(self) -> float:
        """Jain fairness index of the per-link throughputs."""
        return jain_fairness_index(self.per_link_throughputs().values())

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe), inverse of :meth:`from_dict`.

        All counters are ints/floats, so the round trip is lossless --
        the sweep cache relies on ``from_dict(to_dict(m))`` being equal to
        ``m`` field for field.
        """
        return {
            "elapsed_us": self.elapsed_us,
            "links": {name: link.to_dict() for name, link in self.links.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkMetrics":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            elapsed_us=data["elapsed_us"],
            links={
                name: LinkMetrics.from_dict(link)
                for name, link in data.get("links", {}).items()
            },
        )


def empirical_cdf(values: Sequence[float]) -> tuple:
    """Return ``(sorted_values, cumulative_probabilities)`` for CDF plots.

    This is the form used by every CDF figure in the paper's evaluation.
    """
    data = np.sort(np.asarray(list(values), dtype=float))
    if data.size == 0:
        return np.array([]), np.array([])
    probabilities = np.arange(1, data.size + 1) / data.size
    return data, probabilities


def jain_fairness_index(values: Iterable[float]) -> float:
    """Jain's fairness index: 1.0 means perfectly equal shares."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0 or np.all(data == 0):
        return 1.0
    return float(np.sum(data) ** 2 / (data.size * np.sum(data**2)))
