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

#: The 802.11a pilot polarity sequence (first few entries; it repeats).
_PILOT_VALUES = np.array([1.0, 1.0, 1.0, -1.0])


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

    def modulate(self, data_symbols: np.ndarray) -> np.ndarray:
        """Turn frequency-domain data symbols into time-domain samples.

        Parameters
        ----------
        data_symbols:
            Complex array whose length is a multiple of the number of data
            subcarriers; each group of ``n_data_subcarriers`` values forms
            one OFDM symbol.

        Returns
        -------
        numpy.ndarray
            Time-domain samples of length
            ``n_symbols * (fft_size + cp_length)``.
        """
        cfg = self.config
        data_symbols = np.asarray(data_symbols, dtype=complex)
        n_data = cfg.n_data_subcarriers
        if data_symbols.size % n_data != 0:
            raise DimensionError(
                f"number of data symbols {data_symbols.size} is not a multiple of {n_data}"
            )
        n_symbols = data_symbols.size // n_data
        grid = np.zeros((n_symbols, cfg.fft_size), dtype=complex)
        grid[:, cfg.data_index_array] = data_symbols.reshape(n_symbols, n_data)
        grid[:, cfg.pilot_index_array] = _PILOT_VALUES[: len(cfg.pilot_indices)]
        return self.modulate_grid(grid)

    def modulate_grid(self, grid: np.ndarray) -> np.ndarray:
        """Modulate a full frequency-domain grid (``n_symbols x fft_size``).

        Unlike :meth:`modulate`, the caller controls every bin, which the
        MIMO transceiver uses to apply per-subcarrier pre-coding vectors.
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

    # -- helpers -------------------------------------------------------------

    def n_symbols(self, n_samples: int) -> int:
        """Number of complete OFDM symbols contained in ``n_samples``."""
        return n_samples // self.config.samples_per_symbol
