"""The 802.11 modulation-and-coding-scheme (MCS) table.

The paper's prototype runs the 802.11a/g rate set on a 10 MHz channel, so
every data rate is half of the nominal 20 MHz value (an OFDM symbol lasts
8 us instead of 4 us).  The same table drives both the n+ and the
802.11n-baseline simulations; a node transmitting ``k`` spatial streams
gets ``k`` times the per-stream rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.constants import (
    NUM_DATA_SUBCARRIERS,
    OFDM_SYMBOL_DURATION_US_10MHZ,
    OFDM_SYMBOL_DURATION_US_20MHZ,
)
from repro.exceptions import ConfigurationError
from repro.phy.modulation import Modulation, get_modulation

__all__ = ["MCS", "MCS_TABLE", "mcs_by_index", "data_rate_mbps"]


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

    def data_rate_mbps(self, bandwidth_mhz: float = 10.0, n_streams: int = 1) -> float:
        """Data rate in Mb/s for ``n_streams`` spatial streams."""
        if bandwidth_mhz == 10.0:
            symbol_us = OFDM_SYMBOL_DURATION_US_10MHZ
        elif bandwidth_mhz == 20.0:
            symbol_us = OFDM_SYMBOL_DURATION_US_20MHZ
        else:
            symbol_us = 80.0 / bandwidth_mhz
        return n_streams * self.data_bits_per_ofdm_symbol / symbol_us

    def airtime_us(self, payload_bits: int, bandwidth_mhz: float = 10.0, n_streams: int = 1) -> float:
        """Time to transmit ``payload_bits`` (excluding headers), microseconds."""
        if payload_bits <= 0:
            return 0.0
        bits_per_symbol = self.data_bits_per_ofdm_symbol * n_streams
        import math

        n_symbols = math.ceil(payload_bits / bits_per_symbol)
        if bandwidth_mhz == 10.0:
            symbol_us = OFDM_SYMBOL_DURATION_US_10MHZ
        elif bandwidth_mhz == 20.0:
            symbol_us = OFDM_SYMBOL_DURATION_US_20MHZ
        else:
            symbol_us = 80.0 / bandwidth_mhz
        return n_symbols * symbol_us


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


def mcs_by_index(index: int) -> MCS:
    """Return the MCS with the given table index."""
    if not 0 <= index < len(MCS_TABLE):
        raise ConfigurationError(f"MCS index must be in [0, {len(MCS_TABLE) - 1}], got {index}")
    return MCS_TABLE[index]


def data_rate_mbps(index: int, bandwidth_mhz: float = 10.0, n_streams: int = 1) -> float:
    """Convenience wrapper: data rate of MCS ``index`` in Mb/s."""
    return mcs_by_index(index).data_rate_mbps(bandwidth_mhz, n_streams)
