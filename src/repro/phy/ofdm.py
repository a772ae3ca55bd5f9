"""OFDM modulation and demodulation.

n+ performs nulling and alignment independently per OFDM subcarrier
(§4, "Multipath"), so the OFDM layer is the natural boundary between the
MIMO pre-coding math (which operates on per-subcarrier channel matrices)
and the time-domain samples that travel through the channel model.

The numerology follows 802.11a/g: a 64-point FFT, 48 data subcarriers,
4 pilots and a 16-sample cyclic prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.constants import (
    CYCLIC_PREFIX_LENGTH,
    NULL_SUBCARRIER_INDICES,
    NUM_SUBCARRIERS,
    PILOT_SUBCARRIER_INDICES,
)
from repro.exceptions import DimensionError

__all__ = ["OfdmConfig", "OfdmModem"]

@dataclass(frozen=True)
class OfdmConfig:
    """Static OFDM numerology.

    Attributes
    ----------
    fft_size:
        Number of subcarriers (FFT length).
    cp_length:
        Cyclic-prefix length in samples.
    pilot_indices:
        FFT bins carrying pilots.
    null_indices:
        FFT bins left empty (DC and guard band).
    """

    fft_size: int = NUM_SUBCARRIERS
    cp_length: int = CYCLIC_PREFIX_LENGTH
    pilot_indices: Tuple[int, ...] = PILOT_SUBCARRIER_INDICES
    null_indices: Tuple[int, ...] = NULL_SUBCARRIER_INDICES

    @cached_property
    def data_indices(self) -> Tuple[int, ...]:
        """FFT bins carrying data symbols (computed once per config)."""
        reserved = set(self.pilot_indices) | set(self.null_indices)
        return tuple(i for i in range(self.fft_size) if i not in reserved)

    @cached_property
    def n_data_subcarriers(self) -> int:
        """Number of data subcarriers per OFDM symbol."""
        return len(self.data_indices)

    @cached_property
    def data_index_array(self) -> np.ndarray:
        """:attr:`data_indices` as a read-only index array for hot paths."""
        array = np.array(self.data_indices, dtype=np.intp)
        array.setflags(write=False)
        return array

    @cached_property
    def pilot_index_array(self) -> np.ndarray:
        """:attr:`pilot_indices` as a read-only index array for hot paths."""
        array = np.array(self.pilot_indices, dtype=np.intp)
        array.setflags(write=False)
        return array

    @property
    def samples_per_symbol(self) -> int:
        """Time-domain samples per OFDM symbol including the cyclic prefix."""
        return self.fft_size + self.cp_length


@dataclass
class OfdmModem:
    """OFDM modulator/demodulator for one antenna's sample stream."""

    config: OfdmConfig = field(default_factory=OfdmConfig)

    # -- transmit -----------------------------------------------------------

    def modulate_grid(self, grid: np.ndarray) -> np.ndarray:
        """Modulate a full frequency-domain grid (``n_symbols x fft_size``).

        The caller controls every bin, which the MIMO transceiver uses to
        apply per-subcarrier pre-coding vectors.
        """
        cfg = self.config
        grid = np.asarray(grid, dtype=complex)
        if grid.ndim == 1:
            grid = grid.reshape(1, -1)
        if grid.shape[1] != cfg.fft_size:
            raise DimensionError(
                f"grid must have {cfg.fft_size} columns, got {grid.shape[1]}"
            )
        time_symbols = np.fft.ifft(grid, axis=1) * np.sqrt(cfg.fft_size)
        with_cp = np.concatenate([time_symbols[:, -cfg.cp_length :], time_symbols], axis=1)
        return with_cp.reshape(-1)

    # -- receive ------------------------------------------------------------

    def demodulate_grid(self, samples: np.ndarray) -> np.ndarray:
        """Turn time-domain samples back into the frequency-domain grid.

        The sample count must be a multiple of the symbol length; the
        cyclic prefix of each symbol is discarded.
        """
        cfg = self.config
        samples = np.asarray(samples, dtype=complex)
        sps = cfg.samples_per_symbol
        if samples.size % sps != 0:
            raise DimensionError(
                f"sample count {samples.size} is not a multiple of the symbol length {sps}"
            )
        n_symbols = samples.size // sps
        shaped = samples.reshape(n_symbols, sps)[:, cfg.cp_length :]
        return np.fft.fft(shaped, axis=1) / np.sqrt(cfg.fft_size)
