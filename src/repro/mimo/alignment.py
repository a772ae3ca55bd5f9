"""Interference alignment (Claim 3.4).

A transmitter aligns its signal in the *unwanted space* U of a receiver by
making the received interference ``H v`` lie inside U, i.e. by zeroing its
component along U-perp: ``U_perp^H H v = 0``.  Compared with nulling this
costs only ``n`` constraint rows (the number of wanted streams at that
receiver) instead of ``N`` (its antenna count), which is what lets a
third transmitter join two ongoing transmissions in §2.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError

__all__ = ["alignment_constraint_rows"]


def alignment_constraint_rows(channel: np.ndarray, u_perp: np.ndarray) -> np.ndarray:
    """The constraint rows for aligning inside a receiver's unwanted space.

    Parameters
    ----------
    channel:
        ``(N, M)`` channel matrix from the joiner to the receiver.
    u_perp:
        ``(N, n)`` orthonormal basis of the receiver's decoding subspace
        (the complement of its unwanted space U).

    Returns
    -------
    numpy.ndarray
        ``(n, M)`` rows; requiring them to annihilate ``v`` is Eq. 6.
    """
    h = np.asarray(channel, dtype=complex)
    if h.ndim == 1:
        h = h.reshape(1, -1)
    u = np.asarray(u_perp, dtype=complex)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if u.shape[0] != h.shape[0]:
        raise DimensionError(
            f"U-perp lives in dimension {u.shape[0]} but the channel has {h.shape[0]} rows"
        )
    return u.conj().T @ h
