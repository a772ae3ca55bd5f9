"""Linear-algebra primitives for subspace manipulation.

Interference nulling, interference alignment and multi-dimensional carrier
sense all reduce to a handful of subspace operations on complex matrices:
computing null spaces (Claim 3.3 / 3.5 of the paper), orthonormal
complements (the "unwanted space" U and its complement U-perp, and the
projection plane used by carrier sense in Fig. 6), and projections of
received samples onto those subspaces.

All functions operate on complex ``numpy`` arrays.  Subspaces are always
represented by matrices whose *columns* form an orthonormal basis.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.utils import guarded

__all__ = [
    "null_space",
    "null_space_batch",
    "orthonormal_basis",
    "orthonormal_complement",
    "orthonormal_complement_batch",
    "singular_value_ranks",
]

#: Default relative tolerance used to decide which singular values are zero.
DEFAULT_RCOND = 1e-10


def _as_complex_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a 2-D complex array, raising :class:`DimensionError`
    if it cannot be interpreted as a matrix."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def null_space(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Return an orthonormal basis of the (right) null space of ``matrix``.

    The null space of the stacked nulling/alignment constraint matrix is
    exactly the set of admissible pre-coding vectors (Claims 3.3-3.5).

    Parameters
    ----------
    matrix:
        A ``(rows, cols)`` complex matrix ``A``.
    rcond:
        Singular values below ``rcond * max(singular values)`` are treated
        as zero.

    Returns
    -------
    numpy.ndarray
        A ``(cols, k)`` matrix whose columns are orthonormal and satisfy
        ``A @ v ~= 0``.  ``k`` may be zero, in which case the returned
        array has shape ``(cols, 0)``.
    """
    a = _as_complex_matrix(matrix)
    if a.shape[0] == 0:
        # No constraints: the whole space is the null space.
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = rcond * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T


def singular_value_ranks(
    singular_values: np.ndarray, rcond: float = DEFAULT_RCOND
) -> np.ndarray:
    """Numerical ranks of a stack of matrices from their singular values.

    ``singular_values`` has shape ``(batch, n_sv)`` (as returned by a
    batched SVD); the tolerance is ``rcond * s_max`` per matrix, matching
    the single-matrix functions above so batched fast paths and their
    per-matrix fallbacks always agree on rank.
    """
    s = np.asarray(singular_values)
    tol = rcond * s[:, :1]
    return np.sum(s > tol, axis=1)


def null_space_batch(
    matrices: np.ndarray, n_vectors: int, rcond: float = DEFAULT_RCOND
) -> np.ndarray:
    """Null-space bases of a stack of matrices in one batched SVD.

    The per-subcarrier pre-coding math repeats :func:`null_space` once per
    OFDM subcarrier; this helper performs the whole stack at once.

    Parameters
    ----------
    matrices:
        Complex array of shape ``(batch, rows, cols)``.
    n_vectors:
        How many null-space directions to return per matrix.  Each matrix
        must have a null space of at least this dimension.
    rcond:
        Rank tolerance, as in :func:`null_space`.

    Returns
    -------
    numpy.ndarray
        Shape ``(batch, cols, n_vectors)``: per matrix, the first
        ``n_vectors`` columns that :func:`null_space` would return.

    A matrix whose null space is thinner than ``n_vectors`` does not
    raise: it falls back to the ``n_vectors`` *smallest*-singular-value
    directions (the deterministic pinned-rcond choice) and a degradation
    is noted (:mod:`repro.utils.guarded`) so the MAC layer can
    quarantine the link.
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim != 3:
        raise DimensionError(f"expected a stack of matrices, got shape {a.shape}")
    batch, rows, cols = a.shape
    if n_vectors < 0 or n_vectors > cols:
        raise DimensionError(f"cannot take {n_vectors} null-space vectors in dimension {cols}")
    if rows == 0:
        eye = np.eye(cols, dtype=complex)[:, :n_vectors]
        return np.broadcast_to(eye, (batch, cols, n_vectors)).copy()
    _, s, vh = guarded.svd_stack(a, full_matrices=True)
    ranks = singular_value_ranks(s, rcond)
    if np.any(guarded.ill_conditioned(s)):
        guarded.note_degradation("ill-conditioned-null-space")
    deficient = ranks + n_vectors > cols
    if np.any(deficient):
        guarded.note_degradation("null-space-deficit")
        ranks = np.where(deficient, cols - n_vectors, ranks)
    # Gather rows ``rank .. rank + n_vectors`` of each V^H, even when the
    # ranks differ across the stack.
    row_idx = ranks[:, None] + np.arange(n_vectors)[None, :]
    selected = vh[np.arange(batch)[:, None], row_idx, :]  # (batch, n_vectors, cols)
    return selected.conj().transpose(0, 2, 1)


def orthonormal_complement_batch(
    matrices: np.ndarray, n_vectors: int, rcond: float = DEFAULT_RCOND
) -> np.ndarray:
    """Orthonormal-complement bases of a stack of matrices at once.

    Parameters
    ----------
    matrices:
        Complex array of shape ``(batch, n, k)``.
    n_vectors:
        Number of complement directions to return per matrix.

    Returns
    -------
    numpy.ndarray
        Shape ``(batch, n, n_vectors)``: per matrix, the first
        ``n_vectors`` columns that :func:`orthonormal_complement` would
        return.

    A matrix whose complement has fewer than ``n_vectors`` dimensions
    does not raise: it falls back to the ``n_vectors`` weakest
    left-singular directions and a degradation is noted
    (:mod:`repro.utils.guarded`).
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim != 3:
        raise DimensionError(f"expected a stack of matrices, got shape {a.shape}")
    batch, n, k = a.shape
    if n_vectors < 0 or n_vectors > n:
        raise DimensionError(f"cannot take {n_vectors} complement vectors in dimension {n}")
    if k == 0:
        eye = np.eye(n, dtype=complex)[:, :n_vectors]
        return np.broadcast_to(eye, (batch, n, n_vectors)).copy()
    u, s, _ = guarded.svd_stack(a, full_matrices=True)
    ranks = singular_value_ranks(s, rcond)
    if np.any(guarded.ill_conditioned(s)):
        guarded.note_degradation("ill-conditioned-complement")
    deficient = ranks + n_vectors > n
    if np.any(deficient):
        guarded.note_degradation("complement-deficit")
        ranks = np.where(deficient, n - n_vectors, ranks)
    col_idx = ranks[:, None] + np.arange(n_vectors)[None, :]
    selected = u[np.arange(batch)[:, None], :, col_idx]  # (batch, n_vectors, n)
    return selected.transpose(0, 2, 1)


def orthonormal_basis(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Return an orthonormal basis for the column space of ``matrix``.

    Used to turn a set of (possibly linearly dependent) channel vectors of
    ongoing transmissions into a clean basis of the occupied signal
    subspace (Fig. 6).
    """
    a = _as_complex_matrix(matrix)
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = rcond * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return u[:, :rank]


def orthonormal_complement(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Return an orthonormal basis of the orthogonal complement of the
    column space of ``matrix``.

    This is the subspace a multi-antenna node projects onto in order to
    carrier sense "as if the medium were idle" (§3.2), and the U-perp
    matrix of Claim 3.4 when ``matrix`` spans the unwanted space U.

    The returned basis has ``n - rank(matrix)`` columns where ``n`` is the
    number of rows of ``matrix``.
    """
    a = _as_complex_matrix(matrix)
    n = a.shape[0]
    if a.shape[1] == 0:
        return np.eye(n, dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    tol = rcond * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return u[:, rank:]
