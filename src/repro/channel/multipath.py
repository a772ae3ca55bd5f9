"""Tapped-delay-line multipath channels and their frequency responses.

The paper handles multipath by running nulling and alignment per OFDM
subcarrier (§4, "Multipath").  This module provides the corresponding
channel substrate: a per-antenna-pair FIR channel whose 64-point frequency
response gives the per-subcarrier MIMO matrices the MIMO layer consumes,
and a time-domain ``apply`` for the sample-level experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import CYCLIC_PREFIX_LENGTH, NUM_SUBCARRIERS
from repro.exceptions import ConfigurationError, DimensionError
from repro.channel.models import complex_gaussian

__all__ = [
    "exponential_power_delay_profile",
    "MultipathChannel",
    "frequency_response_batch",
    "frequency_response_at_bins_batch",
]


def exponential_power_delay_profile(n_taps: int, decay_samples: float = 3.0) -> np.ndarray:
    """Return a normalised exponential power-delay profile.

    Parameters
    ----------
    n_taps:
        Number of channel taps (must not exceed the cyclic prefix).
    decay_samples:
        Exponential decay constant in samples; larger means a longer,
        more frequency-selective channel.
    """
    if n_taps < 1:
        raise ConfigurationError("a channel needs at least one tap")
    profile = np.exp(-np.arange(n_taps) / max(decay_samples, 1e-9))
    return profile / profile.sum()


@dataclass
class MultipathChannel:
    """A static frequency-selective MIMO channel.

    Attributes
    ----------
    taps:
        Complex array of shape ``(n_taps, n_rx, n_tx)``; ``taps[d]`` is the
        channel matrix of delay ``d`` samples.
    """

    taps: np.ndarray

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=complex)
        if self.taps.ndim != 3:
            raise DimensionError(
                f"taps must have shape (n_taps, n_rx, n_tx), got {self.taps.shape}"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def random(
        cls,
        n_rx: int,
        n_tx: int,
        rng: np.random.Generator,
        n_taps: int = 4,
        decay_samples: float = 3.0,
        average_gain: float = 1.0,
    ) -> "MultipathChannel":
        """Draw a random Rayleigh multipath channel.

        ``average_gain`` scales the total power of the channel (linear).
        The number of taps must stay within the cyclic prefix so that OFDM
        sees no inter-symbol interference, matching the design assumption
        of §4.
        """
        if n_taps > CYCLIC_PREFIX_LENGTH:
            raise ConfigurationError(
                f"n_taps ({n_taps}) must not exceed the cyclic prefix "
                f"({CYCLIC_PREFIX_LENGTH})"
            )
        profile = exponential_power_delay_profile(n_taps, decay_samples)
        taps = np.zeros((n_taps, n_rx, n_tx), dtype=complex)
        for d in range(n_taps):
            taps[d] = complex_gaussian((n_rx, n_tx), rng, profile[d] * average_gain)
        return cls(taps=taps)

    @classmethod
    def random_batch(
        cls,
        n_rx: int,
        n_tx: int,
        rng: Optional[np.random.Generator],
        n_channels: int,
        n_taps: int = 4,
        decay_samples=3.0,
        average_gain=1.0,
        raw: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw the taps of ``n_channels`` Rayleigh channels at once.

        Returns a complex array of shape ``(n_channels, n_taps, n_rx,
        n_tx)``; slice ``c`` is bit-identical to the taps of the ``c``-th
        of ``n_channels`` sequential :meth:`random` calls on the same
        generator (one ``standard_normal`` call fills array elements in
        the same order the per-channel, per-tap draws consume them).
        ``decay_samples`` and ``average_gain`` may be scalars or
        per-channel arrays of length ``n_channels``.

        ``raw`` lets a caller that must interleave other draws between
        channels (e.g. per-link shadowing) pre-draw the standard normals
        itself: shape ``(n_channels, n_taps, 2, n_rx, n_tx)``, where the
        ``2`` axis is (real, imaginary) -- exactly what
        ``rng.standard_normal`` consumes per tap.  When ``raw`` is given,
        ``rng`` is unused and may be ``None``.
        """
        if n_channels < 0:
            raise ConfigurationError(f"n_channels must be non-negative, got {n_channels}")
        if n_taps > CYCLIC_PREFIX_LENGTH:
            raise ConfigurationError(
                f"n_taps ({n_taps}) must not exceed the cyclic prefix "
                f"({CYCLIC_PREFIX_LENGTH})"
            )
        if raw is None:
            if rng is None:
                raise ConfigurationError("random_batch needs an rng when raw is not given")
            raw = rng.standard_normal((n_channels, n_taps, 2, n_rx, n_tx))
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (n_channels, n_taps, 2, n_rx, n_tx):
            raise DimensionError(
                f"raw must have shape {(n_channels, n_taps, 2, n_rx, n_tx)}, "
                f"got {raw.shape}"
            )
        decays = np.broadcast_to(np.asarray(decay_samples, dtype=float), (n_channels,))
        gains = np.broadcast_to(np.asarray(average_gain, dtype=float), (n_channels,))
        # The profile is a pure function of (n_taps, decay); computing it
        # once per distinct decay through the scalar helper keeps every
        # float identical to what the per-channel constructor produces.
        profiles = np.empty((n_channels, n_taps))
        for value in np.unique(decays):
            profiles[decays == value] = exponential_power_delay_profile(n_taps, float(value))
        variance = profiles * gains[:, None]  # (n_channels, n_taps)
        scale = np.sqrt(variance / 2.0)[:, :, None, None]
        # Scaling each part separately is the same float multiply per
        # element as scaling the complex sum, without its temporaries.
        taps = np.empty((n_channels, n_taps, n_rx, n_tx), dtype=complex)
        np.multiply(scale, raw[:, :, 0], out=taps.real)
        np.multiply(scale, raw[:, :, 1], out=taps.imag)
        return taps

    # -- properties -----------------------------------------------------------

    @property
    def n_taps(self) -> int:
        """Number of delay taps."""
        return self.taps.shape[0]

    @property
    def n_rx(self) -> int:
        """Number of receive antennas."""
        return self.taps.shape[1]

    @property
    def n_tx(self) -> int:
        """Number of transmit antennas."""
        return self.taps.shape[2]

    # -- conversions -----------------------------------------------------------

    def frequency_response(self, fft_size: int = NUM_SUBCARRIERS) -> np.ndarray:
        """Per-subcarrier channel matrices.

        Returns a complex array of shape ``(fft_size, n_rx, n_tx)`` where
        slice ``k`` is the channel matrix seen on subcarrier ``k``.
        """
        padded = np.zeros((fft_size, self.n_rx, self.n_tx), dtype=complex)
        padded[: self.n_taps] = self.taps
        return np.fft.fft(padded, axis=0)


def frequency_response_batch(taps: np.ndarray, fft_size: int = NUM_SUBCARRIERS) -> np.ndarray:
    """Per-subcarrier matrices of a whole stack of channels in one FFT.

    ``taps`` has shape ``(n_channels, n_taps, n_rx, n_tx)`` (what
    :meth:`MultipathChannel.random_batch` returns); the result has shape
    ``(n_channels, fft_size, n_rx, n_tx)`` and slice ``c`` is bit-identical
    to ``MultipathChannel(taps[c]).frequency_response(fft_size)``.
    """
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 4:
        raise DimensionError(
            f"taps must have shape (n_channels, n_taps, n_rx, n_tx), got {taps.shape}"
        )
    n_channels, n_taps, n_rx, n_tx = taps.shape
    padded = np.zeros((n_channels, fft_size, n_rx, n_tx), dtype=complex)
    padded[:, :n_taps] = taps
    return np.fft.fft(padded, axis=1)


def frequency_response_at_bins_batch(
    taps: np.ndarray, bins: np.ndarray, fft_size: int = NUM_SUBCARRIERS
) -> np.ndarray:
    """Frequency responses of a stack of channels, at selected bins only.

    Evaluates the DFT of the zero-padded taps directly at the requested
    ``bins``: one BLAS matmul of the ``(n_bins, n_taps)`` twiddle matrix
    against the taps viewed as ``(n_channels, n_taps, n_rx * n_tx)``,
    instead of a full ``fft_size``-point FFT followed by bin selection.
    For the testbed's few-tap channels this is cheaper, and (more
    importantly at the 500-station tier) it never materialises the
    ``(n_channels, fft_size, n_rx, n_tx)`` padded intermediate.  The
    result equals ``frequency_response_batch(taps, fft_size)[:, bins]``
    up to floating-point rounding; the grouped (v3) draw contract of
    :meth:`repro.sim.network.Network._draw_channels_grouped` pins *this*
    formulation (schema 8).

    ``taps`` has shape ``(n_channels, n_taps, n_rx, n_tx)``; the result
    is a C-contiguous array of shape ``(n_channels, len(bins), n_rx,
    n_tx)``.
    """
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 4:
        raise DimensionError(
            f"taps must have shape (n_channels, n_taps, n_rx, n_tx), got {taps.shape}"
        )
    bins = np.asarray(bins, dtype=int)
    if bins.ndim != 1:
        raise DimensionError(f"bins must be 1-D, got shape {bins.shape}")
    n_channels, n_taps, n_rx, n_tx = taps.shape
    twiddle = np.exp((-2j * np.pi / fft_size) * np.outer(bins, np.arange(n_taps)))
    stacked = twiddle @ taps.reshape(n_channels, n_taps, n_rx * n_tx)
    return stacked.reshape(n_channels, bins.size, n_rx, n_tx)
