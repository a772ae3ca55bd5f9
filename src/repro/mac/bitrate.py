"""Per-packet bitrate selection (§3.4).

Because the set of concurrent transmitters changes from packet to packet,
the post-projection SNR -- and therefore the best bitrate -- changes too,
even when the channels themselves are static (Fig. 7).  n+ therefore
selects the bitrate of *each* packet from the effective SNR measured on
the light-weight RTS after projection, and feeds the decision back in the
light-weight CTS.

That per-packet selector is :func:`repro.phy.esnr.select_mcs`.  This
module provides the conventional historical-rate controller it is
compared against in an ablation (``benchmarks/bench_ablation_bitrate.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.phy.rates import MCS, MCS_TABLE

__all__ = ["HistoricalRateController"]


@dataclass
class HistoricalRateController:
    """A conventional rate controller that adapts from past outcomes.

    Used only as a baseline to show why per-packet selection matters when
    concurrent transmitters change between packets: the controller keeps an
    exponentially-weighted delivery estimate per MCS and picks the rate
    with the best expected throughput, like SampleRate-style algorithms.
    """

    ewma_weight: float = 0.25
    _delivery: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mcs in MCS_TABLE:
            # Start optimistic so every rate gets sampled.
            self._delivery.setdefault(mcs.index, 1.0)

    def select(self) -> MCS:
        """Return the MCS with the highest expected throughput."""
        best = MCS_TABLE[0]
        best_score = -1.0
        for mcs in MCS_TABLE:
            score = self._delivery[mcs.index] * mcs.data_rate_mbps()
            if score > best_score:
                best_score = score
                best = mcs
        return best

    def record(self, mcs: MCS, delivered: bool) -> None:
        """Update the delivery estimate of ``mcs`` with one outcome."""
        old = self._delivery[mcs.index]
        sample = 1.0 if delivered else 0.0
        self._delivery[mcs.index] = (1 - self.ewma_weight) * old + self.ewma_weight * sample
