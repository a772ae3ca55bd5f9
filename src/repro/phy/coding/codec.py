"""End-to-end FEC codec tying together scrambling, coding, puncturing and
interleaving for a given modulation-and-coding scheme."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import NUM_DATA_SUBCARRIERS
from repro.exceptions import DimensionError
from repro.phy.coding.convolutional import default_encoder
from repro.phy.coding.interleaver import deinterleave, interleave
from repro.phy.coding.puncturing import depuncture, puncture, punctured_length
from repro.phy.coding.scrambler import descramble, scramble
from repro.phy.coding.viterbi import viterbi_decode
from repro.phy.rates import MCS

__all__ = ["Codec"]


@dataclass
class Codec:
    """Encode/decode a frame's bits for a given :class:`~repro.phy.rates.MCS`.

    The codec pads the input so the coded, punctured and interleaved stream
    fills an integer number of OFDM symbols, exactly as the 802.11 PHY pads
    a PSDU with tail and pad bits.
    """

    mcs: MCS

    def __post_init__(self) -> None:
        # The encoder is stateless; share the default instance instead of
        # rebuilding its tap arrays for every codec (one per stream per frame).
        self._encoder = default_encoder()

    # -- sizing -------------------------------------------------------------

    @property
    def coded_bits_per_symbol(self) -> int:
        """Coded bits per OFDM symbol (one spatial stream)."""
        return self.mcs.modulation.bits_per_symbol * NUM_DATA_SUBCARRIERS

    def n_ofdm_symbols(self, n_data_bits: int) -> int:
        """OFDM symbols needed to carry ``n_data_bits`` information bits."""
        total_data = n_data_bits + self._encoder.tail_bits
        mother_len = 2 * total_data
        coded_len = punctured_length(mother_len, self.mcs.coding_rate)
        return int(np.ceil(coded_len / self.coded_bits_per_symbol))

    def padded_data_bits(self, n_data_bits: int) -> int:
        """Number of information bits (incl. padding) after frame padding."""
        n_symbols = self.n_ofdm_symbols(n_data_bits)
        capacity_coded = n_symbols * self.coded_bits_per_symbol
        num, den = self.mcs.coding_rate
        capacity_data = capacity_coded * num // den
        return capacity_data - self._encoder.tail_bits

    # -- encode -------------------------------------------------------------

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Return the interleaved coded bit stream for ``bits``.

        The output length is a multiple of the coded bits per OFDM symbol.
        """
        bits = np.asarray(bits, dtype=np.int8)
        padded_len = self.padded_data_bits(bits.size)
        padded = np.concatenate([bits, np.zeros(padded_len - bits.size, dtype=np.int8)])
        scrambled = scramble(padded)
        mother = self._encoder.encode(scrambled, terminate=True)
        punctured = puncture(mother, self.mcs.coding_rate)
        n_bpsc = self.mcs.modulation.bits_per_symbol
        return interleave(punctured.astype(np.int8), n_bpsc, self.coded_bits_per_symbol)

    # -- decode -------------------------------------------------------------

    def decode(self, coded: np.ndarray, n_data_bits: int) -> np.ndarray:
        """Recover ``n_data_bits`` information bits from a coded stream.

        Parameters
        ----------
        coded:
            Hard bits (0/1), of the same length produced by :meth:`encode`
            for a frame of ``n_data_bits`` bits.
        n_data_bits:
            The original (unpadded) information bit count.
        """
        coded = np.asarray(coded, dtype=float)
        expected = self.n_ofdm_symbols(n_data_bits) * self.coded_bits_per_symbol
        if coded.size != expected:
            raise DimensionError(
                f"coded stream has {coded.size} values, expected {expected} "
                f"for {n_data_bits} data bits at MCS {self.mcs.index}"
            )
        n_bpsc = self.mcs.modulation.bits_per_symbol
        deinterleaved = deinterleave(
            coded.astype(np.int8), n_bpsc, self.coded_bits_per_symbol
        ).astype(float)
        padded_len = self.padded_data_bits(n_data_bits)
        mother_len = 2 * (padded_len + self._encoder.tail_bits)
        unpunctured = depuncture(deinterleaved, self.mcs.coding_rate, mother_len)
        decoded = viterbi_decode(unpunctured, padded_len, encoder=self._encoder)
        descrambled = descramble(decoded)
        return descrambled[:n_data_bits].astype(np.int8)
