"""The 802.11 modulation-and-coding-scheme (MCS) table.

The paper's prototype runs the 802.11a/g rate set on a 10 MHz channel, so
every data rate is half of the nominal 20 MHz value (an OFDM symbol lasts
8 us instead of 4 us).  The same table drives both the n+ and the
802.11n-baseline simulations; a node transmitting ``k`` spatial streams
gets ``k`` times the per-stream rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.constants import NUM_DATA_SUBCARRIERS, OFDM_SYMBOL_DURATION_US_10MHZ
from repro.phy.modulation import Modulation, get_modulation

__all__ = ["MCS", "MCS_TABLE"]


@dataclass(frozen=True)
class MCS:
    """A modulation-and-coding scheme.

    Attributes
    ----------
    index:
        Position in the rate table (0 = most robust).
    modulation_name:
        One of ``bpsk``, ``qpsk``, ``16qam``, ``64qam``.
    coding_rate:
        Convolutional code rate as a fraction (numerator, denominator).
    min_esnr_db:
        Minimum effective SNR at which the scheme delivers packets with
        high probability (from the ESNR-rate mapping of Halperin et al.,
        which n+ uses for bitrate selection).
    """

    index: int
    modulation_name: str
    coding_rate: Tuple[int, int]
    min_esnr_db: float

    @property
    def modulation(self) -> Modulation:
        """The :class:`~repro.phy.modulation.Modulation` object."""
        return get_modulation(self.modulation_name)

    @property
    def coding_rate_fraction(self) -> float:
        """Coding rate as a float (e.g. 0.75 for rate 3/4)."""
        num, den = self.coding_rate
        return num / den

    @property
    def coded_bits_per_ofdm_symbol(self) -> int:
        """Coded bits carried by one OFDM symbol of one spatial stream."""
        return self.modulation.bits_per_symbol * NUM_DATA_SUBCARRIERS

    @property
    def data_bits_per_ofdm_symbol(self) -> float:
        """Information bits carried by one OFDM symbol of one spatial stream."""
        return self.coded_bits_per_ofdm_symbol * self.coding_rate_fraction

    def data_rate_mbps(self, n_streams: int = 1) -> float:
        """Data rate in Mb/s for ``n_streams`` spatial streams (10 MHz)."""
        return n_streams * self.data_bits_per_ofdm_symbol / OFDM_SYMBOL_DURATION_US_10MHZ

    def airtime_us(self, payload_bits: int, n_streams: int = 1) -> float:
        """Time to transmit ``payload_bits`` (excluding headers) on the
        10 MHz channel, microseconds."""
        if payload_bits <= 0:
            return 0.0
        bits_per_symbol = self.data_bits_per_ofdm_symbol * n_streams
        return math.ceil(payload_bits / bits_per_symbol) * OFDM_SYMBOL_DURATION_US_10MHZ


#: The 802.11a/g rate set with the ESNR thresholds (in dB) used for
#: per-packet bitrate selection.  The thresholds follow the effective-SNR
#: to delivery-rate mapping reported by Halperin et al. [16].
MCS_TABLE: List[MCS] = [
    MCS(0, "bpsk", (1, 2), 3.0),
    MCS(1, "bpsk", (3, 4), 5.5),
    MCS(2, "qpsk", (1, 2), 7.0),
    MCS(3, "qpsk", (3, 4), 9.5),
    MCS(4, "16qam", (1, 2), 12.5),
    MCS(5, "16qam", (3, 4), 16.0),
    MCS(6, "64qam", (2, 3), 20.5),
    MCS(7, "64qam", (3, 4), 22.5),
]

