"""Interference nulling (Claim 3.3).

A transmitter nulls its signal at a receiver by choosing pre-coding
vectors in the null space of the channel matrix to that receiver:
``H v = 0`` makes the superposition of its antennas cancel at every one
of the receiver's antennas, regardless of the transmitted symbol.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import DimensionError, PrecodingError
from repro.utils.linalg import null_space

__all__ = [
    "nulling_constraint_rows",
    "nulling_precoders",
]


def nulling_constraint_rows(channel: np.ndarray) -> np.ndarray:
    """The linear constraint rows imposed by nulling at one receiver.

    Nulling at an N-antenna receiver whose channel from the transmitter is
    ``H`` (shape ``(N, M)``) requires ``H v = 0``; the constraint matrix is
    simply ``H`` itself (Claim 3.3 / Eq. 5).
    """
    h = np.asarray(channel, dtype=complex)
    if h.ndim == 1:
        h = h.reshape(1, -1)
    if h.ndim != 2:
        raise DimensionError(f"channel must be a matrix, got shape {h.shape}")
    return h


def nulling_precoders(
    channels_to_null: Sequence[np.ndarray],
    n_tx_antennas: int,
    n_streams: int | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Pre-coding vectors that null at every listed receiver.

    Parameters
    ----------
    channels_to_null:
        Channel matrices from the transmitter to each receiver that must
        see zero signal; each has shape ``(N_j, M)``.
    n_tx_antennas:
        M, the transmitter's antenna count.
    n_streams:
        How many pre-coding vectors to return; defaults to every vector in
        the null space (``M - K`` for K total constraint rows, Claim 3.2).
    normalize:
        Scale each returned vector to unit norm.

    Returns
    -------
    numpy.ndarray
        Shape ``(M, n_streams)``; columns are the pre-coding vectors.

    Raises
    ------
    PrecodingError
        If the requested number of streams exceeds the dimension of the
        null space (e.g. nulling at three antennas with a three-antenna
        transmitter, the situation Eq. 2 shows is impossible).
    """
    rows = []
    for channel in channels_to_null:
        h = nulling_constraint_rows(channel)
        if h.shape[1] != n_tx_antennas:
            raise DimensionError(
                f"channel has {h.shape[1]} transmit antennas, expected {n_tx_antennas}"
            )
        rows.append(h)
    if rows:
        constraints = np.concatenate(rows, axis=0)
    else:
        constraints = np.zeros((0, n_tx_antennas), dtype=complex)
    basis = null_space(constraints)
    available = basis.shape[1]
    wanted = available if n_streams is None else n_streams
    if wanted > available:
        raise PrecodingError(
            f"cannot form {wanted} streams: nulling constraints leave only "
            f"{available} free degrees of freedom"
        )
    if wanted == 0:
        raise PrecodingError(
            "nulling at the requested receivers consumes every transmit antenna; "
            "no stream can be sent (use alignment at multi-antenna receivers instead)"
        )
    precoders = basis[:, :wanted]
    if normalize:
        norms = np.linalg.norm(precoders, axis=0, keepdims=True)
        precoders = precoders / np.where(norms > 0, norms, 1.0)
    return precoders
