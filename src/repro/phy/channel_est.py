"""Least-squares channel estimation from the long training fields.

A receiver that hears a MIMO preamble (time-orthogonal LTFs, see
:mod:`repro.phy.preamble`) estimates, per OFDM subcarrier, the channel
from each transmit antenna to each of its own antennas.  These estimates
are what n+ uses everywhere: to compute the pre-coding vectors via
reciprocity, to build the orthogonal projection for multi-dimensional
carrier sense, and to decode MIMO streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import DimensionError
from repro.phy.ofdm import OfdmConfig, OfdmModem
from repro.phy.preamble import Preamble, ltf_frequency_sequence

__all__ = ["ChannelEstimate", "estimate_channel_from_ltf", "estimate_mimo_channel"]


@dataclass
class ChannelEstimate:
    """Per-subcarrier MIMO channel estimate.

    Attributes
    ----------
    matrices:
        Complex array of shape ``(n_subcarriers, n_rx, n_tx)``; entry
        ``[k, j, i]`` is the channel from transmit antenna ``i`` to receive
        antenna ``j`` on subcarrier ``k``.  Only the bins listed in
        ``valid_bins`` are meaningful.
    valid_bins:
        FFT bins for which the estimate is valid (the LTF occupies bins
        -26..26 excluding DC).
    """

    matrices: np.ndarray
    valid_bins: np.ndarray

    @property
    def n_rx(self) -> int:
        """Number of receive antennas."""
        return self.matrices.shape[1]

    @property
    def n_tx(self) -> int:
        """Number of transmit antennas."""
        return self.matrices.shape[2]

    def at(self, subcarrier: int) -> np.ndarray:
        """Return the ``(n_rx, n_tx)`` channel matrix of one subcarrier."""
        return self.matrices[subcarrier]

    def average_matrix(self) -> np.ndarray:
        """Return the channel averaged over the valid subcarriers.

        Useful for narrowband reasoning and for the geometric examples of
        §2 where a single matrix per link suffices.
        """
        return self.matrices[self.valid_bins].mean(axis=0)


def estimate_channel_from_ltf(
    received_slot: np.ndarray,
    config: Optional[OfdmConfig] = None,
) -> np.ndarray:
    """Estimate the single-antenna channel from one received LTF slot.

    Parameters
    ----------
    received_slot:
        Time-domain samples of one antenna covering exactly the LTF slot
        (``NUM_LONG_TRAINING_SYMBOLS`` OFDM symbols).
    config:
        OFDM numerology.

    Returns
    -------
    numpy.ndarray
        Complex array of length ``fft_size`` with the least-squares channel
        estimate per subcarrier (zero on bins the LTF does not occupy).
    """
    config = config or OfdmConfig()
    modem = OfdmModem(config)
    grid = modem.demodulate_grid(np.asarray(received_slot, dtype=complex))
    reference = ltf_frequency_sequence(config)
    occupied = np.abs(reference) > 0
    averaged = grid.mean(axis=0)
    estimate = np.zeros(config.fft_size, dtype=complex)
    estimate[occupied] = averaged[occupied] / reference[occupied]
    return estimate


def estimate_mimo_channel(
    received: np.ndarray,
    preamble: Preamble,
    preamble_start: int = 0,
) -> ChannelEstimate:
    """Estimate the full MIMO channel from a received MIMO preamble.

    All ``(tx, rx)`` antenna pairs are estimated at once: the LTF slots of
    every pair are gathered into one ``(n_rx, n_tx, n_symbols, fft)``
    stack, demodulated with a single batched FFT and solved against the
    known LTF sequence in one vectorised least-squares division, instead
    of looping over antenna pairs.  The per-pair loop is kept as a test
    oracle (``tests/oracles/phy.py``) that asserts both produce
    bit-identical estimates.

    Parameters
    ----------
    received:
        Complex array of shape ``(n_rx, n_samples)`` with the samples of
        each receive antenna, containing the preamble starting at
        ``preamble_start``.
    preamble:
        The transmitted preamble structure (defines the LTF slots).
    preamble_start:
        Sample index where the preamble begins in ``received``.

    Returns
    -------
    ChannelEstimate
        Per-subcarrier channel matrices of shape
        ``(fft_size, n_rx, n_tx)``.
    """
    received = np.asarray(received, dtype=complex)
    if received.ndim == 1:
        received = received.reshape(1, -1)
    n_rx = received.shape[0]
    n_tx = preamble.n_antennas
    config = preamble.config
    if preamble_start + preamble.length > received.shape[1]:
        raise DimensionError(
            "received samples are shorter than the preamble: "
            f"{received.shape[1]} < {preamble_start + preamble.length}"
        )

    # Gather every (rx, tx) LTF slot: slot t of antenna t starts right
    # after the STF at a fixed stride, so one index grid pulls the whole
    # (n_rx, n_tx, slot_len) stack out of the received samples.
    slot_len = preamble.ltf_slot_length
    first_slot, _ = preamble.ltf_slot_bounds(0)
    starts = preamble_start + first_slot + slot_len * np.arange(n_tx)
    slots = received[:, starts[:, None] + np.arange(slot_len)[None, :]]

    # Batched OFDM demodulation (drop each symbol's cyclic prefix, FFT
    # over the last axis) and LTF averaging, mirroring
    # OfdmModem.demodulate_grid / estimate_channel_from_ltf exactly.
    sps = config.samples_per_symbol
    symbols = slots.reshape(n_rx, n_tx, slot_len // sps, sps)[..., config.cp_length :]
    grids = np.fft.fft(symbols, axis=-1) / np.sqrt(config.fft_size)
    averaged = grids.mean(axis=2)  # (n_rx, n_tx, fft_size)

    reference = ltf_frequency_sequence(config)
    occupied = np.abs(reference) > 0
    matrices = np.zeros((config.fft_size, n_rx, n_tx), dtype=complex)
    matrices[occupied] = np.moveaxis(
        averaged[..., occupied] / reference[occupied], -1, 0
    )
    return ChannelEstimate(matrices=matrices, valid_bins=np.where(occupied)[0])
