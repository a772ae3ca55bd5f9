"""Post-projection SNR of the projection + zero-forcing decoder.

A receiver in n+ decodes a wanted stream by projecting the received
signal onto a direction orthogonal to everything else (ongoing
interference plus its own other streams) and scaling -- the standard
zero-forcing decoder (§3.4, Fig. 7).  The post-projection SNR depends on
the angle between the wanted stream and the interference, which is why
n+ must pick bitrates per packet; :func:`post_projection_snr_batch`
computes exactly that quantity, on a stack of subcarriers, for the
link-abstraction simulator and the bitrate selector.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import DimensionError
from repro.utils import guarded
from repro.utils.linalg import singular_value_ranks

__all__ = ["post_projection_snr_batch"]


def _separable_pinv(u, s, vt, shape):
    """``(full column rank?, pseudo-inverse)`` of a stack of matrices from
    the thin SVD ``u, s, vt`` of its *conjugate*.

    One SVD yields both answers bit-identically to the two-SVD form
    ``matrix_rank(h) == n`` and ``np.linalg.pinv(h, rcond=1e-15)``: the
    rank test is ``matrix_rank``'s tolerance rule and the inverse is
    ``pinv``'s own formula on the same factors.
    """
    rows, n = shape[-2:]
    smax = s.max(-1, keepdims=True, initial=0)
    separable = np.count_nonzero(s > smax * (max(rows, n) * np.finfo(float).eps), axis=-1) >= n
    large = s > 1e-15 * smax
    inv = np.divide(1, s, where=large, out=s)
    inv[~large] = 0
    return separable, np.matmul(vt.swapaxes(-1, -2), inv[..., None] * u.swapaxes(-1, -2))


def _zero_forcing_gains(h_eff: np.ndarray):
    """``(enhancement (n_sub, n), inseparable (n_sub,))`` of a stack of
    projected channels: the zero-forcing noise enhancement of every
    stream and the subcarriers whose streams cannot be separated."""
    n_sub, rows, n_streams = h_eff.shape
    if rows < n_streams:
        return np.ones((n_sub, n_streams)), np.ones(n_sub, dtype=bool)
    separable, w = _separable_pinv(
        *guarded.svd_stack(h_eff.conj(), full_matrices=False), h_eff.shape
    )  # w: (n_sub, n, rows)
    if not np.isfinite(w).all():  # pragma: no cover - defensive
        guarded.note_degradation("nonfinite-pinv")
        w = np.where(np.isfinite(w), w, 0.0)
    return np.sum(np.abs(w) ** 2, axis=2), ~separable


def _project_out(u: np.ndarray, rank: int, hw: np.ndarray) -> np.ndarray:
    """``hw`` in the complement of the first ``rank`` columns of ``u``."""
    return u[:, :, rank:].conj().transpose(0, 2, 1) @ hw


def _projection_gains(hw: np.ndarray, hi: Optional[np.ndarray]):
    """The expensive half of :func:`post_projection_snr_batch`: project
    the (sanitized) wanted channels ``hw`` orthogonal to the (sanitized)
    interference ``hi`` and zero-force, returning
    ``(enhancement, inseparable)`` -- which depend on nothing else."""
    if hi is None:
        return _zero_forcing_gains(hw)
    # The complement of the interference has width N - rank; a rank that
    # varies across subcarriers (degenerate channels) gets one batched
    # pass per distinct rank.
    u, s, _ = guarded.svd_stack(hi, full_matrices=True)
    ranks = singular_value_ranks(s)
    rank = int(ranks[0])
    if np.all(ranks == rank):
        return _zero_forcing_gains(_project_out(u, rank, hw))
    n_sub, _, n_streams = hw.shape
    enhancement = np.ones((n_sub, n_streams))
    inseparable = np.zeros(n_sub, dtype=bool)
    for rank in np.unique(ranks):
        members = ranks == rank
        enhancement[members], inseparable[members] = _zero_forcing_gains(
            _project_out(u[members], rank, hw[members])
        )
    return enhancement, inseparable


#: Entries a zero-forcing memo holds before it is cleared and refilled.
ZERO_FORCING_MEMO_CAP = 1024


def post_projection_snr_batch(
    wanted_channels: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power=0.0,
    memo: Optional[dict] = None,
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
    memo:
        Optional dict reused across calls (a
        :class:`~repro.sim.network.Network` owns one per run).  The
        projection and zero-forcing -- all the SVD work -- depend only
        on the two channel stacks, so they are stored under the stacks'
        exact bytes and shapes and a repeated configuration skips them;
        the noise terms are applied on every call.  A computation that
        noted a guarded degradation is not stored, so it is noted again
        next time.  Results are bit-identical with or without a memo.

    Returns
    -------
    numpy.ndarray
        ``(n_sub, n)`` linear SNRs.
    """
    hw = np.asarray(wanted_channels, dtype=complex)
    if hw.ndim != 3:
        raise DimensionError(f"wanted channels must have shape (n_sub, N, n), got {hw.shape}")
    n_sub = hw.shape[0]
    residual = np.broadcast_to(np.asarray(residual_interference_power, dtype=float), (n_sub,))
    noise_total = noise_power + residual

    # NaN/Inf-poisoned subcarriers decode nothing: zero the poisoned
    # matrices (their SNR comes out 0) instead of letting LAPACK raise or
    # NaN propagate into the metrics.  No-op on finite stacks.
    hw, _ = guarded.sanitize_stack(hw)
    hi = None
    if interference_directions is not None and np.asarray(interference_directions).size:
        hi, _ = guarded.sanitize_stack(np.asarray(interference_directions, dtype=complex))

    if memo is None:
        enhancement, inseparable = _projection_gains(hw, hi)
    else:
        key = (hw.shape, hw.tobytes(), None if hi is None else (hi.shape, hi.tobytes()))
        gains = memo.get(key)
        if gains is None:
            with guarded.capture_degradations() as capture:
                gains = _projection_gains(hw, hi)
            if not capture.triggered:
                if len(memo) >= ZERO_FORCING_MEMO_CAP:
                    memo.clear()
                memo[key] = gains
        enhancement, inseparable = gains

    snr = signal_power / (noise_total[:, None] * np.maximum(enhancement, 1e-30))
    snr[inseparable] = 0.0
    if not np.isfinite(snr).all():
        guarded.note_degradation("nonfinite-snr")
        snr = np.where(np.isfinite(snr), snr, 0.0)
    return snr

