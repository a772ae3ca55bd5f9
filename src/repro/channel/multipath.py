"""Tapped-delay-line multipath channels and their frequency responses.

The paper handles multipath by running nulling and alignment per OFDM
subcarrier (§4, "Multipath").  This module provides the corresponding
channel substrate for whole stacks of links at once: per-antenna-pair FIR
taps scaled from one block of standard normals, and their frequency
responses -- the per-subcarrier MIMO matrices the MIMO layer consumes --
by a 64-point FFT or, at a few tracked bins, by a DFT matmul.
"""

from __future__ import annotations

import numpy as np

from repro.constants import CYCLIC_PREFIX_LENGTH, NUM_SUBCARRIERS
from repro.exceptions import ConfigurationError, DimensionError

__all__ = [
    "exponential_power_delay_profile",
    "tap_scales",
    "taps_from_normals",
    "frequency_response_batch",
    "dft_twiddle",
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


def tap_scales(
    n_taps: int, decay_samples: np.ndarray, average_gain: np.ndarray
) -> np.ndarray:
    """Per-part standard deviation of every tap of a stack of channels.

    ``decay_samples`` and ``average_gain`` are per-channel arrays of
    length ``n_channels``; the result has shape ``(n_channels, n_taps)``
    and entry ``[c, d]`` is ``sqrt(profile[d] * gain / 2)``, the
    standard deviation of each part (real, imaginary) of tap ``d`` of a
    Rayleigh channel of average power ``gain``.
    """
    if n_taps > CYCLIC_PREFIX_LENGTH:
        raise ConfigurationError(
            f"n_taps ({n_taps}) must not exceed the cyclic prefix "
            f"({CYCLIC_PREFIX_LENGTH})"
        )
    decays = np.asarray(decay_samples, dtype=float)
    gains = np.asarray(average_gain, dtype=float)
    # The profile is a pure function of (n_taps, decay); computing it
    # once per distinct decay through the scalar helper keeps every
    # float identical to what the per-channel constructor produces.
    profiles = np.empty((decays.size, n_taps))
    for value in np.unique(decays):
        profiles[decays == value] = exponential_power_delay_profile(n_taps, float(value))
    variance = profiles * gains[:, None]  # (n_channels, n_taps)
    return np.sqrt(variance / 2.0)


def taps_from_normals(normals: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Complex taps of a stack of channels from their standard normals.

    ``normals`` has shape ``(n_channels, n_taps, 2, n_rx, n_tx)``, where
    the ``2`` axis is (real, imaginary) -- exactly the order in which
    ``rng.standard_normal`` fills one channel's taps -- and ``scales``
    shape ``(n_channels, n_taps)`` (:func:`tap_scales`).  Returns the
    ``(n_channels, n_taps, n_rx, n_tx)`` taps.  Channel ``c`` depends on
    row ``c`` alone, so any subset of channels gives the same bits as
    the whole stack.
    """
    n_channels, n_taps, _, n_rx, n_tx = normals.shape
    scale = scales[:, :, None, None]
    # Scaling each part separately is the same float multiply per
    # element as scaling the complex sum, without its temporaries.
    taps = np.empty((n_channels, n_taps, n_rx, n_tx), dtype=complex)
    np.multiply(scale, normals[:, :, 0], out=taps.real)
    np.multiply(scale, normals[:, :, 1], out=taps.imag)
    return taps


def frequency_response_batch(taps: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Per-subcarrier matrices of a whole stack of channels, by FFT.

    ``taps`` has shape ``(n_channels, n_taps, n_rx, n_tx)`` (what
    :func:`taps_from_normals` returns); the result has shape
    ``(n_channels, len(bins), n_rx, n_tx)``: slice ``c`` is the 64-point
    (``NUM_SUBCARRIERS``) FFT of channel ``c``'s zero-padded taps along
    the delay axis, at ``bins``.  Pocketfft transforms one antenna pair
    at a time, so a stack of one gives the same bits as the whole group.

    The zero-padded taps are laid out ``(n_channels, n_rx, n_tx, 64)``
    so that pocketfft runs the same 64-point transform of every antenna
    pair on the contiguous last axis (no strided gathers), in place.
    The selected bins are returned laid out bins-major in memory -- the
    layout ``fft(..., axis=1)[:, bins]`` produces, which the v2 draw
    contract of :class:`repro.sim.network.Network` has always stored.
    """
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 4:
        raise DimensionError(
            f"taps must have shape (n_channels, n_taps, n_rx, n_tx), got {taps.shape}"
        )
    n_channels, n_taps, n_rx, n_tx = taps.shape
    padded = np.zeros((n_channels, n_rx, n_tx, NUM_SUBCARRIERS), dtype=complex)
    padded[..., :n_taps] = taps.transpose(0, 2, 3, 1)
    spectrum = np.fft.fft(padded, axis=-1, out=padded)
    return spectrum.transpose(3, 0, 1, 2)[bins].transpose(1, 0, 2, 3)


def dft_twiddle(bins: np.ndarray, n_taps: int) -> np.ndarray:
    """The ``(n_bins, n_taps)`` rows of the 64-point DFT matrix at
    ``bins``, restricted to the first ``n_taps`` samples: what
    :func:`frequency_response_at_bins_batch` multiplies the taps by."""
    bins = np.asarray(bins, dtype=int)
    if bins.ndim != 1:
        raise DimensionError(f"bins must be 1-D, got shape {bins.shape}")
    return np.exp((-2j * np.pi / NUM_SUBCARRIERS) * np.outer(bins, np.arange(n_taps)))


def frequency_response_at_bins_batch(taps: np.ndarray, twiddle: np.ndarray) -> np.ndarray:
    """Frequency responses of a stack of channels, at selected bins only.

    Evaluates the DFT of the zero-padded taps directly at the bins of
    ``twiddle`` (:func:`dft_twiddle`, computed once per bin set): one
    BLAS matmul of the ``(n_bins, n_taps)`` twiddle matrix against the
    taps viewed as ``(n_channels, n_taps, n_rx * n_tx)``, instead of a
    full 64-point FFT followed by bin selection.  For the
    testbed's few-tap channels this is cheaper, and it never
    materialises the ``(n_channels, 64, n_rx, n_tx)`` padded
    intermediate.  The result equals ``frequency_response_batch(taps,
    bins)`` up to floating-point rounding; the grouped (v3)
    draw contract of :class:`repro.sim.network.Network` pins *this*
    formulation (schema 8).  Channel ``c`` of the result depends on
    channel ``c`` of ``taps`` alone (BLAS runs one matmul per channel),
    so a stack of one gives the same bits as the whole group.

    ``taps`` has shape ``(n_channels, n_taps, n_rx, n_tx)``; the result
    is a C-contiguous array of shape ``(n_channels, n_bins, n_rx,
    n_tx)``.
    """
    if taps.ndim != 4:
        raise DimensionError(
            f"taps must have shape (n_channels, n_taps, n_rx, n_tx), got {taps.shape}"
        )
    n_channels, n_taps, n_rx, n_tx = taps.shape
    stacked = twiddle @ taps.reshape(n_channels, n_taps, n_rx * n_tx)
    return stacked.reshape(n_channels, twiddle.shape[0], n_rx, n_tx)
