"""The general pre-coding solver (Claim 3.5, Eq. 7).

A transmitter that wants to join ongoing transmissions combines, into one
linear system, the constraints needed to

* protect every receiver of an ongoing stream (nulling where that
  receiver's antennas are all occupied by wanted streams, alignment in its
  unwanted space otherwise), and
* keep its own streams separable at its own receiver(s) -- each stream
  must avoid the decoding subspaces of the transmitter's *other*
  receivers.

With M transmit antennas and K ongoing streams the system has exactly
``M - K`` solutions, one pre-coding vector per new stream (Claim 3.2).

The rows an ongoing N-antenna receiver contributes are its channel ``H``
from the joiner when the joiner must null there (``H v = 0``, Claim 3.3),
and ``U_perp^H H`` when it can align inside the receiver's unwanted space
instead (Claim 3.4): only ``n`` rows for ``n`` wanted streams, which is
what lets a third transmitter join two ongoing transmissions in §2.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionError, PrecodingError
from repro.utils import guarded
from repro.utils.linalg import null_space_batch

__all__ = ["compute_precoders_batch"]


def _normalize_columns_batch(matrices: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrices, axis=1, keepdims=True)
    return matrices / np.where(norms > 1e-15, norms, 1.0)


def compute_precoders_batch(
    n_tx_antennas: int,
    ongoing_rows: np.ndarray,
    own_rows: Optional[np.ndarray] = None,
    own_stream_counts: Optional[Sequence[int]] = None,
    own_row_counts: Optional[Sequence[int]] = None,
    n_streams: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The joiner's pre-coders (Claim 3.5, Eq. 7) on all subcarriers at once.

    The caller passes the constraint rows of *all* subcarriers as
    stacked arrays; the whole per-subcarrier linear algebra then runs as a
    handful of batched ``np.linalg`` calls.  This is the one
    implementation of Eq. 7; a single matrix is a one-element stack
    (``compute_precoders_batch(2, h[None], n_streams=1)[0][0]``).

    Parameters
    ----------
    n_tx_antennas:
        M, the joiner's antenna count.
    ongoing_rows:
        ``(n_sub, K, M)`` stacked nulling/alignment constraint rows of the
        ongoing receivers (``K`` may be zero).
    own_rows:
        ``(n_sub, T, M)`` stacked constraint rows ``U'_perp^H H'`` of the
        joiner's own receivers, concatenated in receiver order, or ``None``
        when there are no own-receiver cross constraints.
    own_stream_counts:
        Streams destined to each own receiver (required with ``own_rows``).
    own_row_counts:
        Constraint rows contributed by each own receiver (required with
        ``own_rows``); ``sum(own_row_counts)`` must equal ``T``.
    n_streams:
        Number of streams to form; defaults to the maximum (``M - K``).

    Returns
    -------
    tuple
        ``(precoders, degraded)``.  ``precoders`` has shape ``(n_sub,
        n_streams, M)``: per subcarrier, one unit-norm pre-coding vector
        per stream.  ``degraded`` is the ``(n_sub,)`` mask of the
        subcarriers whose system was singular,
        ill-conditioned or non-finite: their pre-coders are the guarded
        fallback (:mod:`repro.utils.guarded`), may not protect the ongoing
        receivers, and must never be transmitted.
    """
    shared = np.asarray(ongoing_rows, dtype=complex)
    if shared.ndim != 3:
        raise DimensionError(f"ongoing rows must have shape (n_sub, K, M), got {shared.shape}")
    if shared.shape[2] != n_tx_antennas:
        raise DimensionError(
            f"an ongoing receiver's channel has {shared.shape[2]} transmit antennas, "
            f"expected {n_tx_antennas}"
        )
    n_sub, n_shared, _ = shared.shape
    free_dof = n_tx_antennas - n_shared
    if free_dof <= 0:
        raise PrecodingError(
            f"the {n_shared} ongoing streams consume every one of the joiner's "
            f"{n_tx_antennas} antennas; it cannot transmit (Claim 3.2)"
        )

    # --- Simple case: no own-receiver cross constraints --------------------
    if own_rows is None:
        wanted = free_dof if n_streams is None else n_streams
        if wanted > free_dof or wanted < 1:
            raise PrecodingError(
                f"cannot form {wanted} streams with {free_dof} free degrees of freedom"
            )
        basis, degraded = null_space_batch(shared, wanted)  # (n_sub, M, wanted)
        return _normalize_columns_batch(basis).transpose(0, 2, 1), degraded

    # --- General case: Eq. 7 ------------------------------------------------
    own = np.asarray(own_rows, dtype=complex)
    if own.ndim != 3 or own.shape[0] != n_sub or own.shape[2] != n_tx_antennas:
        raise DimensionError(
            f"own rows must have shape ({n_sub}, T, {n_tx_antennas}), got {own.shape}"
        )
    if own_stream_counts is None or own_row_counts is None:
        raise DimensionError("own_stream_counts and own_row_counts are required with own_rows")
    own_row_counts = list(own_row_counts)
    own_stream_counts = list(own_stream_counts)
    if sum(own_row_counts) != own.shape[1]:
        raise DimensionError("own_row_counts do not sum to the own-row count")
    for count, rows_count in zip(own_stream_counts, own_row_counts):
        if count < 1:
            raise PrecodingError("an own receiver must take at least one stream")
        if count > rows_count:
            raise PrecodingError(
                f"receiver's decoding subspace has dimension {rows_count} "
                f"but {count} streams are destined to it"
            )
    total_own_streams = sum(own_stream_counts)
    if n_streams is not None and n_streams != total_own_streams:
        raise PrecodingError(
            f"n_streams={n_streams} disagrees with the own receivers' total "
            f"({total_own_streams})"
        )
    if total_own_streams > free_dof:
        raise PrecodingError(
            f"own receivers ask for {total_own_streams} streams but only {free_dof} "
            f"degrees of freedom are free (Claim 3.2)"
        )

    matrix = np.concatenate([shared, own], axis=1)  # (n_sub, T_total, M)
    total_rows = matrix.shape[1]

    # Right-hand side (identical on every subcarrier): zeros for the ongoing
    # receivers; stream i of own receiver j gets a unit entry in one of
    # receiver j's rows.
    rhs = np.zeros((total_rows, total_own_streams), dtype=complex)
    column = 0
    row_offset = n_shared
    for receiver_index, count in enumerate(own_stream_counts):
        base = row_offset + sum(own_row_counts[:receiver_index])
        for stream in range(count):
            rhs[base + stream, column] = 1.0
            column += 1

    rhs_stack = np.broadcast_to(rhs, (n_sub,) + rhs.shape)
    if total_rows == n_tx_antennas:
        # A singular/ill-conditioned/NaN-poisoned system falls back to the
        # pinned-rcond pseudo-inverse instead of killing the run; the
        # degraded mask drives link quarantine at the MAC layer.
        solution, degraded = guarded.solve_stack(matrix, rhs_stack)
    else:
        pinv, degraded = guarded.pinv_stack(matrix)
        solution = pinv @ rhs
        # Verify the hard constraints (protecting ongoing receivers) hold;
        # a degraded solution is flagged instead.
        if n_shared and not np.allclose(shared @ solution, 0, atol=1e-8) and not degraded.any():
            raise PrecodingError(
                "least-squares solution cannot satisfy the nulling/alignment constraints"
            )

    return _normalize_columns_batch(solution).transpose(0, 2, 1), degraded
