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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import DimensionError, PrecodingError
from repro.mimo.alignment import alignment_constraint_rows
from repro.mimo.nulling import nulling_constraint_rows
from repro.utils import guarded
from repro.utils.linalg import null_space_batch

__all__ = [
    "ReceiverConstraint",
    "compute_precoders",
    "compute_precoders_batch",
]


@dataclass
class ReceiverConstraint:
    """A receiver of an *ongoing* stream that the joiner must not disturb.

    Attributes
    ----------
    channel:
        ``(N, M)`` channel matrix from the joiner's antennas to this
        receiver's antennas (obtained via reciprocity from the receiver's
        light-weight CTS).
    u_perp:
        ``(N, n)`` orthonormal basis of the receiver's decoding subspace,
        as broadcast in its CTS.  ``None`` means the receiver has no
        unwanted space (n = N) and the joiner must null (Claim 3.1).
    """

    channel: np.ndarray
    u_perp: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.channel = np.asarray(self.channel, dtype=complex)
        if self.channel.ndim == 1:
            self.channel = self.channel.reshape(1, -1)
        if self.u_perp is not None:
            self.u_perp = np.asarray(self.u_perp, dtype=complex)
            if self.u_perp.ndim == 1:
                self.u_perp = self.u_perp.reshape(-1, 1)
            if self.u_perp.shape[0] != self.channel.shape[0]:
                raise DimensionError(
                    "U-perp and the channel disagree on the receiver's antenna count: "
                    f"{self.u_perp.shape[0]} vs {self.channel.shape[0]}"
                )

    @property
    def n_rx_antennas(self) -> int:
        """The receiver's antenna count N."""
        return self.channel.shape[0]

    @property
    def is_nulling(self) -> bool:
        """Whether the joiner must null (no unwanted space at this receiver)."""
        return self.u_perp is None or self.u_perp.shape[1] == self.n_rx_antennas

    def constraint_rows(self) -> np.ndarray:
        """The rows this receiver contributes to the joiner's linear system."""
        if self.is_nulling:
            return nulling_constraint_rows(self.channel)
        return alignment_constraint_rows(self.channel, self.u_perp)


def compute_precoders(
    n_tx_antennas: int,
    ongoing: Sequence[ReceiverConstraint],
    n_streams: Optional[int] = None,
    normalize: bool = True,
    rcond: float = 1e-10,
) -> List[np.ndarray]:
    """Compute the joiner's pre-coding vectors (Claim 3.5, Eq. 7).

    One subcarrier of :func:`compute_precoders_batch`, without own-receiver
    cross constraints: the pre-coders are a null-space basis of the
    ongoing constraints.

    Parameters
    ----------
    n_tx_antennas:
        M, the joiner's antenna count.
    ongoing:
        Receivers of ongoing streams that must see no new interference.
    n_streams:
        Number of streams to form; defaults to the maximum (``M - K``).
    normalize:
        Scale each pre-coder to unit norm (unit per-stream transmit power).
    rcond:
        Rank tolerance for the underlying decompositions.

    Returns
    -------
    list of numpy.ndarray
        One length-``M`` pre-coding vector per stream.

    Raises
    ------
    PrecodingError
        If the constraints leave no room for the requested streams, or the
        combined system is singular or ill-conditioned (e.g. channels are
        not independent) -- any degradation the batched kernel notes.
    """
    shared_rows = [r.constraint_rows() for r in ongoing or []]
    for rows in shared_rows:
        if rows.shape[1] != n_tx_antennas:
            raise DimensionError(
                f"an ongoing receiver's channel has {rows.shape[1]} transmit antennas, "
                f"expected {n_tx_antennas}"
            )
    shared = np.concatenate(
        [np.zeros((0, n_tx_antennas), dtype=complex)] + shared_rows, axis=0
    )
    with guarded.capture_degradations() as capture:
        solution = compute_precoders_batch(
            n_tx_antennas,
            shared[None],
            n_streams=n_streams,
            normalize=normalize,
            rcond=rcond,
        )[0]
    if capture.triggered:
        raise PrecodingError(
            "the combined constraint matrix is singular or ill-conditioned "
            f"({', '.join(capture.events)})"
        )
    return [vector.copy() for vector in solution]


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
    normalize: bool = True,
    rcond: float = 1e-10,
) -> np.ndarray:
    """The joiner's pre-coders (Claim 3.5, Eq. 7) on all subcarriers at once.

    Instead of per-subcarrier :class:`ReceiverConstraint` objects, the
    caller passes the constraint rows of *all* subcarriers as
    stacked arrays; the whole per-subcarrier linear algebra then runs as a
    handful of batched ``np.linalg`` calls.  This is the one
    implementation of Eq. 7; :func:`compute_precoders` is its
    one-subcarrier form.

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
        As in :func:`compute_precoders`.
    normalize:
        Scale each pre-coder to unit norm.
    rcond:
        Rank tolerance for the underlying decompositions.

    Returns
    -------
    numpy.ndarray
        ``(n_sub, n_streams, M)``: per subcarrier, the same pre-coding
        vectors :func:`compute_precoders` returns (in the same order).
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
        basis = null_space_batch(shared, wanted, rcond)  # (n_sub, M, wanted)
        if normalize:
            basis = _normalize_columns_batch(basis)
        return basis.transpose(0, 2, 1)

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
        # degradation note drives link quarantine at the MAC layer.
        solution, degraded = guarded.solve_stack(matrix, rhs_stack)
        if degraded and n_shared and not np.allclose(shared @ solution, 0, atol=1e-8):
            raise PrecodingError(
                "degenerate constraint matrix: the guarded fallback cannot "
                "satisfy the nulling/alignment constraints"
            )
    else:
        pinv, _ = guarded.pinv_stack(matrix, rcond=rcond)
        solution = pinv @ rhs
        # Verify the hard constraints (protecting ongoing receivers) hold.
        if n_shared and not np.allclose(shared @ solution, 0, atol=1e-8):
            raise PrecodingError(
                "least-squares solution cannot satisfy the nulling/alignment constraints"
            )

    if normalize:
        solution = _normalize_columns_batch(solution)
    return solution.transpose(0, 2, 1)
