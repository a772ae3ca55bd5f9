"""MIMO oracle: per-subcarrier alignment subspaces, one SVD at a time."""

from __future__ import annotations

import numpy as np

from repro.utils.linalg import orthonormal_complement


def alignment_subspaces_reference(response: np.ndarray) -> np.ndarray:
    """The first orthonormal-complement direction of every subcarrier's
    ``(n_rx, 1)`` channel -- the batched handshake experiment's subspace
    computation, one subcarrier at a time."""
    n_sub, n_rx, _ = response.shape
    subspaces = np.zeros((n_sub, n_rx, 1), dtype=complex)
    for k in range(n_sub):
        subspaces[k] = orthonormal_complement(response[k])[:, :1]
    return subspaces
