"""Fragmentation and aggregation so joiners end with the first winner.

n+ requires every transmission that joins the medium to finish at the
same time as the transmissions already on the air (§3.1); this keeps the
medium periodically idle so single-antenna nodes are not starved.  The
joiner therefore sizes its payload to the *remaining* airtime, in whole
OFDM symbols -- fragmenting or aggregating queued packets as 802.11n
A-MPDU aggregation and ATM fragmentation do.  These helpers convert
between that airtime and the payload bits it carries.
"""

from __future__ import annotations

from repro.constants import OFDM_SYMBOL_DURATION_US_10MHZ
from repro.phy.rates import MCS

__all__ = ["bits_in_airtime", "airtime_for_bits"]


def bits_in_airtime(mcs: MCS, airtime_us: float, n_streams: int = 1, bandwidth_mhz: float = 10.0) -> int:
    """Payload bits that fit in ``airtime_us`` at the given MCS.

    The airtime is rounded down to whole OFDM symbols.
    """
    if airtime_us <= 0:
        return 0
    if bandwidth_mhz == 10.0:
        symbol_us = OFDM_SYMBOL_DURATION_US_10MHZ
    else:
        symbol_us = 80.0 / bandwidth_mhz
    n_symbols = int(airtime_us // symbol_us)
    return int(n_symbols * mcs.data_bits_per_ofdm_symbol * n_streams)


def airtime_for_bits(mcs: MCS, bits: int, n_streams: int = 1, bandwidth_mhz: float = 10.0) -> float:
    """Airtime needed for ``bits`` of payload (whole OFDM symbols)."""
    return mcs.airtime_us(bits, bandwidth_mhz, n_streams)
