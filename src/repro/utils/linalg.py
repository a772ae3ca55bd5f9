"""Linear-algebra primitives for subspace manipulation.

Interference nulling, interference alignment and multi-dimensional carrier
sense all reduce to a handful of subspace operations on complex matrices:
computing null spaces (Claim 3.3 / 3.5 of the paper), orthonormal
complements (the "unwanted space" U and its complement U-perp, and the
projection plane used by carrier sense in Fig. 6), and projections of
received samples onto those subspaces.

All functions operate on *stacks* of complex matrices (one per OFDM
subcarrier, say); a single matrix is a one-element stack ``a[None]``.
Subspaces are always represented by matrices whose *columns* form an
orthonormal basis.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import DimensionError
from repro.utils import guarded

__all__ = [
    "null_space_batch",
    "orthonormal_complement_batch",
    "singular_value_ranks",
]

#: Default relative tolerance used to decide which singular values are zero.
DEFAULT_RCOND = 1e-10


def singular_value_ranks(singular_values: np.ndarray) -> np.ndarray:
    """Numerical ranks of a stack of matrices from their singular values.

    ``singular_values`` has shape ``(batch, n_sv)`` (as returned by a
    batched SVD); the tolerance is ``DEFAULT_RCOND * s_max`` per matrix,
    so every kernel of the package agrees on rank.
    """
    s = np.asarray(singular_values)
    tol = DEFAULT_RCOND * s[:, :1]
    return np.sum(s > tol, axis=1)


def null_space_batch(matrices: np.ndarray, n_vectors: int) -> np.ndarray:
    """Null-space bases of a stack of matrices in one batched SVD.

    The null space of the stacked nulling/alignment constraint matrix is
    exactly the set of admissible pre-coding vectors (Claims 3.3-3.5).

    Parameters
    ----------
    matrices:
        Complex array of shape ``(batch, rows, cols)``.
    n_vectors:
        How many null-space directions to return per matrix.  Each matrix
        must have a null space of at least this dimension.  Singular
        values below ``DEFAULT_RCOND * max(singular values)`` count as
        zero.

    Returns
    -------
    tuple
        ``(basis, degraded)``.  ``basis`` has shape ``(batch, cols,
        n_vectors)``: per matrix, orthonormal columns ``v`` with
        ``A @ v ~= 0`` -- the right-singular vectors that follow the
        matrix's numerical rank.  A matrix with no rows constrains
        nothing: its null space is the whole space.  ``degraded`` is the
        ``(batch,)`` mask of the members whose basis cannot be trusted
        (see below).

    A matrix whose null space is thinner than ``n_vectors`` does not
    raise: it falls back to the ``n_vectors`` *smallest*-singular-value
    directions (the deterministic pinned-rcond choice) and is flagged in
    ``degraded``, as is a non-finite or ill-conditioned matrix
    (:mod:`repro.utils.guarded`), so the MAC layer can quarantine the
    link.
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim != 3:
        raise DimensionError(f"expected a stack of matrices, got shape {a.shape}")
    batch, rows, cols = a.shape
    if n_vectors < 0 or n_vectors > cols:
        raise DimensionError(f"cannot take {n_vectors} null-space vectors in dimension {cols}")
    if rows == 0:
        eye = np.eye(cols, dtype=complex)[:, :n_vectors]
        return np.broadcast_to(eye, (batch, cols, n_vectors)).copy(), np.zeros(batch, dtype=bool)
    _, s, vh, degraded = guarded.svd_stack(a, full_matrices=True)
    ranks = singular_value_ranks(s)
    deficient = ranks + n_vectors > cols
    degraded = degraded | guarded.ill_conditioned(s) | deficient
    if deficient.any():
        ranks = np.where(deficient, cols - n_vectors, ranks)
    # Gather rows ``rank .. rank + n_vectors`` of each V^H, even when the
    # ranks differ across the stack.
    row_idx = ranks[:, None] + np.arange(n_vectors)[None, :]
    selected = vh[np.arange(batch)[:, None], row_idx, :]  # (batch, n_vectors, cols)
    return selected.conj().transpose(0, 2, 1), degraded


def orthonormal_complement_batch(
    matrices: np.ndarray, n_vectors: Optional[int] = None
) -> np.ndarray:
    """Orthonormal-complement bases of a stack of matrices at once.

    The complement of a matrix's column space is the subspace a
    multi-antenna node projects onto to carrier sense "as if the medium
    were idle" (§3.2), and the U-perp of Claim 3.4 when the matrix spans
    the unwanted space U.

    Parameters
    ----------
    matrices:
        Complex array of shape ``(batch, n, k)``.
    n_vectors:
        Number of complement directions to return per matrix.  ``None``
        returns all ``n - rank`` of them, which needs every matrix of the
        stack to have the same rank (a one-element stack always does).

    Returns
    -------
    tuple
        ``(basis, degraded)``.  ``basis`` has shape ``(batch, n,
        n_vectors)``: per matrix, orthonormal columns orthogonal to its
        column space -- the left-singular vectors that follow its
        numerical rank.  ``degraded`` is the ``(batch,)`` mask of the
        members whose basis cannot be trusted (see below).

    A matrix whose complement has fewer than ``n_vectors`` dimensions
    does not raise: it falls back to the ``n_vectors`` weakest
    left-singular directions and is flagged in ``degraded``, as is a
    non-finite or ill-conditioned matrix (:mod:`repro.utils.guarded`).
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim != 3:
        raise DimensionError(f"expected a stack of matrices, got shape {a.shape}")
    batch, n, k = a.shape
    if n_vectors is not None and not 0 <= n_vectors <= n:
        raise DimensionError(f"cannot take {n_vectors} complement vectors in dimension {n}")
    if k == 0:
        eye = np.eye(n, dtype=complex)[:, :n_vectors]
        return np.broadcast_to(eye, (batch,) + eye.shape).copy(), np.zeros(batch, dtype=bool)
    u, s, _, degraded = guarded.svd_stack(a, full_matrices=True)
    ranks = singular_value_ranks(s)
    degraded = degraded | guarded.ill_conditioned(s)
    if n_vectors is None:
        rank = int(ranks[0])
        if batch > 1 and np.any(ranks != rank):
            raise DimensionError("the complements differ in width across the stack")
        return u[:, :, rank:], degraded
    deficient = ranks + n_vectors > n
    degraded |= deficient
    if deficient.any():
        ranks = np.where(deficient, n - n_vectors, ranks)
    col_idx = ranks[:, None] + np.arange(n_vectors)[None, :]
    selected = u[np.arange(batch)[:, None], :, col_idx]  # (batch, n_vectors, n)
    return selected.transpose(0, 2, 1), degraded
