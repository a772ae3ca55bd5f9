"""The light-weight RTS/CTS handshake (§3.5).

Instead of dedicated RTS/CTS control frames, n+ splits every data and ACK
frame into a *header* and a *body* and sends both headers before both
bodies (Fig. 8).  The extra cost over plain 802.11 is two SIFS intervals
plus a few OFDM symbols: the ACK header additionally carries the selected
bitrate and the receiver's alignment space, the latter differentially
encoded across OFDM subcarriers because the channel (and therefore the
alignment space) changes slowly with frequency.

This module implements the differential encoding/decoding of the
alignment space, the quantisation used to fit it into OFDM symbols, and
the overall overhead accounting reproduced in
``benchmarks/bench_handshake_overhead.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import (
    NPLUS_DATA_HEADER_EXTRA_SYMBOLS,
    NUM_DATA_SUBCARRIERS,
    OFDM_SYMBOL_DURATION_US_10MHZ,
    SIFS_US,
)
from repro.exceptions import DimensionError
from repro.phy.rates import MCS

__all__ = [
    "differential_encode_subspaces",
    "quantized_alignment_bits",
    "alignment_feedback_symbols",
    "HandshakeOverhead",
    "handshake_overhead",
]

#: Bits used to quantise the real and imaginary part of each subspace entry.
BITS_PER_COMPONENT = 8

#: Bits used for each *differential* entry (smaller range, fewer bits).
BITS_PER_DIFFERENTIAL_COMPONENT = 3

#: Coded bits carried by one feedback OFDM symbol (16-QAM, rate 1/2 -- the
#: ACK header is sent at a robust mid-range rate).
FEEDBACK_BITS_PER_SYMBOL = NUM_DATA_SUBCARRIERS * 4 // 2


def differential_encode_subspaces(subspaces: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Differentially encode per-subcarrier alignment spaces.

    Parameters
    ----------
    subspaces:
        Complex array of shape ``(n_subcarriers, N, n)``: the alignment
        space (U or U-perp) of each OFDM subcarrier.

    Returns
    -------
    (first, differences):
        ``first`` is the subspace of the first subcarrier; ``differences``
        has shape ``(n_subcarriers - 1, N, n)`` and holds
        ``U_i - U_{i-1}``.
    """
    subspaces = np.asarray(subspaces, dtype=complex)
    if subspaces.ndim != 3:
        raise DimensionError(
            f"subspaces must have shape (n_subcarriers, N, n), got {subspaces.shape}"
        )
    first = subspaces[0]
    differences = np.diff(subspaces, axis=0)
    return first, differences


def quantized_alignment_bits(subspaces: np.ndarray) -> int:
    """Number of feedback bits needed for the alignment space of a packet.

    The first subcarrier's subspace is sent at full precision
    (:data:`BITS_PER_COMPONENT` bits per real component); every later
    subcarrier only sends the difference from its predecessor, whose
    entries are small because the channel changes slowly with frequency
    and therefore need only :data:`BITS_PER_DIFFERENTIAL_COMPONENT` bits.
    Differences that round to zero cost nothing (run-length skipped).
    """
    first, differences = differential_encode_subspaces(subspaces)
    bits = 2 * BITS_PER_COMPONENT * first.size
    if differences.size:
        # A difference entry is "significant" when it exceeds the
        # differential quantisation step; only those are transmitted.
        scale = max(float(np.max(np.abs(first))), 1e-12)
        step = scale / (2 ** (BITS_PER_DIFFERENTIAL_COMPONENT - 1))
        significant = np.abs(differences) > step
        bits += 2 * BITS_PER_DIFFERENTIAL_COMPONENT * int(np.sum(significant))
        # One flag bit per entry to mark it significant or skipped.
        bits += differences.size
    return int(bits)


def alignment_feedback_symbols(subspaces: np.ndarray) -> int:
    """OFDM symbols needed to carry the differentially-encoded alignment
    space (the paper measures about three on testbed channels)."""
    bits = quantized_alignment_bits(subspaces)
    return int(np.ceil(bits / FEEDBACK_BITS_PER_SYMBOL))


@dataclass(frozen=True)
class HandshakeOverhead:
    """Breakdown of the light-weight handshake overhead for one exchange.

    Attributes
    ----------
    extra_sifs_us:
        The two extra SIFS intervals of Fig. 8(b).
    extra_symbols:
        Extra OFDM symbols added to the data and ACK headers.
    overhead_us:
        Total extra time versus a plain 802.11 DATA/ACK exchange.
    data_exchange_us:
        Duration of the data body at the chosen bitrate.
    fraction:
        ``overhead_us / (overhead_us + data_exchange_us)``.
    """

    extra_sifs_us: float
    extra_symbols: int
    overhead_us: float
    data_exchange_us: float
    fraction: float
    symbol_fraction: float


def handshake_overhead(
    mcs: MCS,
    payload_bytes: int = 1500,
    alignment_symbols: int = 3,
) -> HandshakeOverhead:
    """Compute the light-weight handshake overhead (§3.5).

    With the default three OFDM symbols of alignment feedback plus one
    symbol for bitrate and CRC, the overhead for a 1500-byte packet at
    18 Mb/s comes out to roughly 4 %, matching the paper's estimate.
    """
    extra_sifs = 2 * SIFS_US
    extra_symbols = alignment_symbols + 1 + NPLUS_DATA_HEADER_EXTRA_SYMBOLS
    extra_symbol_time = extra_symbols * OFDM_SYMBOL_DURATION_US_10MHZ
    data_time = mcs.airtime_us(payload_bytes * 8)
    overhead = extra_sifs + extra_symbol_time
    return HandshakeOverhead(
        extra_sifs_us=extra_sifs,
        extra_symbols=extra_symbols,
        overhead_us=overhead,
        data_exchange_us=data_time,
        fraction=overhead / (overhead + data_time),
        symbol_fraction=extra_symbol_time / (extra_symbol_time + data_time),
    )
