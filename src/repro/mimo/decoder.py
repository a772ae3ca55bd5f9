"""Projection and zero-forcing decoding, and post-projection SNR.

A receiver in n+ decodes a wanted stream by projecting the received
signal onto a direction orthogonal to everything else (ongoing
interference plus its own other streams) and scaling -- the standard
zero-forcing decoder (§3.4, Fig. 7).  The post-projection SNR depends on
the angle between the wanted stream and the interference, which is why
n+ must pick bitrates per packet; the helpers here compute exactly that
quantity for the link-abstraction simulator and the bitrate selector.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import DecodingError, DimensionError
from repro.utils import guarded
from repro.utils.db import linear_to_db
from repro.utils.linalg import orthonormal_complement, singular_value_ranks

__all__ = [
    "zero_forcing_decode",
    "project_and_decode",
    "post_projection_snr",
    "post_projection_snr_db",
    "post_projection_snr_batch",
    "post_projection_snr_db_batch",
]


def zero_forcing_decode(received: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Zero-forcing estimate of the transmitted symbols.

    Parameters
    ----------
    received:
        ``(N,)`` or ``(N, T)`` received samples.
    channel:
        ``(N, S)`` effective channel of the S streams.

    Returns
    -------
    numpy.ndarray
        ``(S,)`` or ``(S, T)`` symbol estimates.
    """
    h = np.asarray(channel, dtype=complex)
    if h.ndim == 1:
        h = h.reshape(-1, 1)
    y = np.asarray(received, dtype=complex)
    squeeze = y.ndim == 1
    if squeeze:
        y = y.reshape(-1, 1)
    if y.shape[0] != h.shape[0]:
        raise DimensionError(
            f"received dimension {y.shape[0]} does not match channel rows {h.shape[0]}"
        )
    if np.linalg.matrix_rank(h) < h.shape[1]:
        raise DecodingError("wanted streams are not separable (rank-deficient channel)")
    estimate = np.linalg.pinv(h) @ y
    return estimate[:, 0] if squeeze else estimate


def project_and_decode(
    received: np.ndarray,
    wanted_channel: np.ndarray,
    interference_directions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Decode wanted streams after projecting out known interference.

    Parameters
    ----------
    received:
        ``(N,)`` or ``(N, T)`` received samples.
    wanted_channel:
        ``(N, n)`` effective channel of the wanted streams.
    interference_directions:
        ``(N, k)`` effective channel vectors of interference (ongoing
        transmissions and/or residual streams).  ``None`` or empty means
        plain zero-forcing.
    """
    y = np.asarray(received, dtype=complex)
    squeeze = y.ndim == 1
    if squeeze:
        y = y.reshape(-1, 1)
    hw = np.asarray(wanted_channel, dtype=complex)
    if hw.ndim == 1:
        hw = hw.reshape(-1, 1)

    if interference_directions is None or np.asarray(interference_directions).size == 0:
        out = zero_forcing_decode(y, hw)
        return out[:, 0] if squeeze else out

    hi = np.asarray(interference_directions, dtype=complex)
    if hi.ndim == 1:
        hi = hi.reshape(-1, 1)
    projector = orthonormal_complement(hi)  # (N, N-k)
    if projector.shape[1] < hw.shape[1]:
        raise DecodingError(
            "after removing interference there are fewer dimensions than wanted streams"
        )
    y_proj = projector.conj().T @ y
    h_proj = projector.conj().T @ hw
    out = zero_forcing_decode(y_proj, h_proj)
    return out[:, 0] if squeeze else out


def post_projection_snr(
    wanted_channel: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power: float = 0.0,
) -> np.ndarray:
    """Per-stream post-projection SNR of the zero-forcing receiver (linear).

    One subcarrier of :func:`post_projection_snr_batch`.

    Parameters
    ----------
    wanted_channel:
        ``(N, n)`` effective channels of the wanted streams.
    interference_directions:
        ``(N, k)`` channel vectors of interference to project out (or
        ``None``).
    noise_power:
        Thermal noise power per receive antenna (linear).
    signal_power:
        Transmit power per stream (linear).
    residual_interference_power:
        Extra interference power that survives nulling/alignment at this
        receiver (hardware imperfections, §6.2); it is treated as
        additional white noise.

    Returns
    -------
    numpy.ndarray
        Length-``n`` array of linear SNRs.
    """
    hw = np.asarray(wanted_channel, dtype=complex)
    if hw.ndim == 1:
        hw = hw.reshape(-1, 1)
    hi = None
    if interference_directions is not None and np.asarray(interference_directions).size:
        hi = np.asarray(interference_directions, dtype=complex)
        if hi.ndim == 1:
            hi = hi.reshape(-1, 1)
        hi = hi[None]
    return post_projection_snr_batch(
        hw[None], hi, noise_power, signal_power, residual_interference_power
    )[0]


def _zero_forcing_snr(
    h_eff: np.ndarray, noise_total: np.ndarray, signal_power: float
) -> np.ndarray:
    """Zero-forcing SNRs ``(n_sub, n)`` of a stack of projected channels."""
    n_sub, rows, n_streams = h_eff.shape
    if rows < n_streams:
        return np.zeros((n_sub, n_streams))
    effective_rank = np.linalg.matrix_rank(h_eff)
    # numpy's default rcond, so the guarded happy path stays bit-identical
    # to a plain ``np.linalg.pinv`` call.
    w, _ = guarded.pinv_stack(h_eff, rcond=1e-15)  # (n_sub, n, rows)
    enhancement = np.sum(np.abs(w) ** 2, axis=2)
    snr = signal_power / (noise_total[:, None] * np.maximum(enhancement, 1e-30))
    snr[effective_rank < n_streams] = 0.0
    if not np.isfinite(snr).all():
        guarded.note_degradation("nonfinite-snr")
        snr = np.where(np.isfinite(snr), snr, 0.0)
    return snr


def _project_out(u: np.ndarray, rank: int, hw: np.ndarray) -> np.ndarray:
    """``hw`` in the complement of the first ``rank`` columns of ``u``."""
    return u[:, :, rank:].conj().transpose(0, 2, 1) @ hw


def post_projection_snr_batch(
    wanted_channels: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power=0.0,
) -> np.ndarray:
    """Per-subcarrier, per-stream post-projection SNR in one batched pass.

    The receiver projects the wanted channels orthogonal to the
    interference and zero-forces among the wanted streams (§3.4); a
    stream the projection leaves inseparable gets SNR 0.

    Parameters
    ----------
    wanted_channels:
        ``(n_sub, N, n)`` effective channels of the wanted streams.
    interference_directions:
        ``(n_sub, N, k)`` interference directions to project out, or
        ``None``.
    noise_power:
        Thermal noise power per receive antenna (linear).
    signal_power:
        Transmit power per stream (linear).
    residual_interference_power:
        Scalar or ``(n_sub,)`` residual interference treated as extra
        white noise.

    Returns
    -------
    numpy.ndarray
        ``(n_sub, n)`` linear SNRs.
    """
    hw = np.asarray(wanted_channels, dtype=complex)
    if hw.ndim != 3:
        raise DimensionError(f"wanted channels must have shape (n_sub, N, n), got {hw.shape}")
    n_sub, _, n_streams = hw.shape
    residual = np.broadcast_to(np.asarray(residual_interference_power, dtype=float), (n_sub,))
    noise_total = noise_power + residual

    # NaN/Inf-poisoned subcarriers decode nothing: zero the poisoned
    # matrices (their SNR comes out 0) instead of letting LAPACK raise or
    # NaN propagate into the metrics.  No-op on finite stacks.
    hw, _ = guarded.sanitize_stack(hw)
    if interference_directions is None or not np.asarray(interference_directions).size:
        return _zero_forcing_snr(hw, noise_total, signal_power)
    hi, _ = guarded.sanitize_stack(np.asarray(interference_directions, dtype=complex))

    # The complement of the interference has width N - rank; a rank that
    # varies across subcarriers (degenerate channels) gets one batched
    # pass per distinct rank.
    u, s, _ = guarded.svd_stack(hi, full_matrices=True)
    ranks = singular_value_ranks(s)
    rank = int(ranks[0])
    if np.all(ranks == rank):
        return _zero_forcing_snr(_project_out(u, rank, hw), noise_total, signal_power)
    snr = np.zeros((n_sub, n_streams))
    for rank in np.unique(ranks):
        members = ranks == rank
        snr[members] = _zero_forcing_snr(
            _project_out(u[members], rank, hw[members]), noise_total[members], signal_power
        )
    return snr


def post_projection_snr_db_batch(
    wanted_channels: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power=0.0,
) -> np.ndarray:
    """dB version of :func:`post_projection_snr_batch`."""
    return linear_to_db(
        post_projection_snr_batch(
            wanted_channels,
            interference_directions,
            noise_power,
            signal_power,
            residual_interference_power,
        )
    )


def post_projection_snr_db(
    wanted_channel: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power: float = 0.0,
) -> np.ndarray:
    """dB version of :func:`post_projection_snr`."""
    return linear_to_db(
        post_projection_snr(
            wanted_channel,
            interference_directions,
            noise_power,
            signal_power,
            residual_interference_power,
        )
    )
