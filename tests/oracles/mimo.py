"""MIMO oracles: the paper's per-subcarrier linear algebra, one subcarrier
(one SVD, one solve) at a time.

The package computes all of these as batched stack kernels
(:func:`repro.mimo.precoder.compute_precoders_batch`,
:func:`repro.mimo.decoder.post_projection_snr_batch`,
:func:`repro.sim.link_abstraction.announced_decoding_subspace`, ...);
the formulations here are the readable forms the tests check them
against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import DimensionError, PrecodingError
from repro.mimo.precoder import OwnReceiver, ReceiverConstraint
from repro.utils.linalg import (
    null_space,
    orthonormal_basis,
    orthonormal_complement,
    project_out_subspace,
)


def alignment_subspaces_reference(response: np.ndarray) -> np.ndarray:
    """The first orthonormal-complement direction of every subcarrier's
    ``(n_rx, 1)`` channel -- the batched handshake experiment's subspace
    computation, one subcarrier at a time."""
    n_sub, n_rx, _ = response.shape
    subspaces = np.zeros((n_sub, n_rx, 1), dtype=complex)
    for k in range(n_sub):
        subspaces[k] = orthonormal_complement(response[k])[:, :1]
    return subspaces


def _normalize_columns(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=0, keepdims=True)
    return matrix / np.where(norms > 1e-15, norms, 1.0)


def compute_precoders_reference(
    n_tx_antennas: int,
    ongoing: Sequence[ReceiverConstraint],
    own_receivers: Optional[Sequence[OwnReceiver]] = None,
    n_streams: Optional[int] = None,
    normalize: bool = True,
    rcond: float = 1e-10,
) -> List[np.ndarray]:
    """Eq. 7 on one subcarrier: a null-space basis of the ongoing
    constraints, or one solve (least squares when not square) of the
    combined ongoing + own-receiver system."""
    ongoing = list(ongoing or [])
    shared_rows = [r.constraint_rows() for r in ongoing]
    for rows in shared_rows:
        if rows.shape[1] != n_tx_antennas:
            raise DimensionError(
                f"an ongoing receiver's channel has {rows.shape[1]} transmit antennas, "
                f"expected {n_tx_antennas}"
            )
    shared = (
        np.concatenate(shared_rows, axis=0)
        if shared_rows
        else np.zeros((0, n_tx_antennas), dtype=complex)
    )
    free_dof = n_tx_antennas - shared.shape[0]
    if free_dof <= 0:
        raise PrecodingError(
            f"the {shared.shape[0]} ongoing streams consume every one of the joiner's "
            f"{n_tx_antennas} antennas; it cannot transmit (Claim 3.2)"
        )

    if not own_receivers:
        wanted = free_dof if n_streams is None else n_streams
        if wanted > free_dof or wanted < 1:
            raise PrecodingError(
                f"cannot form {wanted} streams with {free_dof} free degrees of freedom"
            )
        basis = null_space(shared, rcond)
        if basis.shape[1] < wanted:
            raise PrecodingError(
                "ongoing constraints are rank deficient; no usable null space"
            )
        precoders = basis[:, :wanted]
        if normalize:
            precoders = _normalize_columns(precoders)
        return [precoders[:, i].copy() for i in range(wanted)]

    own_receivers = list(own_receivers)
    total_own_streams = sum(r.n_streams for r in own_receivers)
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

    own_rows = [r.constraint_rows() for r in own_receivers]
    own_row_counts = [rows.shape[0] for rows in own_rows]
    matrix = np.concatenate([shared] + own_rows, axis=0)

    # Right-hand side: zeros for the ongoing receivers; for own receivers,
    # stream i destined to receiver j gets a unit entry in one of receiver
    # j's rows and zeros in the rows of the other own receivers.
    total_rows = matrix.shape[0]
    rhs_columns = []
    row_offset = shared.shape[0]
    for receiver_index, receiver in enumerate(own_receivers):
        base = row_offset + sum(own_row_counts[:receiver_index])
        for stream in range(receiver.n_streams):
            column = np.zeros(total_rows, dtype=complex)
            column[base + stream] = 1.0
            rhs_columns.append(column)
    rhs = np.stack(rhs_columns, axis=1)

    if matrix.shape[0] == matrix.shape[1]:
        try:
            solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise PrecodingError(f"the combined constraint matrix is singular: {exc}") from exc
    else:
        solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=rcond)
        if shared.shape[0] and not np.allclose(shared @ solution, 0, atol=1e-8):
            raise PrecodingError(
                "least-squares solution cannot satisfy the nulling/alignment constraints"
            )

    if normalize:
        solution = _normalize_columns(solution)
    return [solution[:, i].copy() for i in range(solution.shape[1])]


def post_projection_snr_reference(
    wanted_channel: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power: float = 0.0,
) -> np.ndarray:
    """Zero-forcing post-projection SNRs (linear) on one subcarrier:
    project onto the interference's orthonormal complement, then invert."""
    hw = np.asarray(wanted_channel, dtype=complex)
    if hw.ndim == 1:
        hw = hw.reshape(-1, 1)
    n_streams = hw.shape[1]
    if interference_directions is not None and np.asarray(interference_directions).size:
        hi = np.asarray(interference_directions, dtype=complex)
        if hi.ndim == 1:
            hi = hi.reshape(-1, 1)
        projector = orthonormal_complement(hi)
        h_eff = projector.conj().T @ hw
    else:
        h_eff = hw
    if h_eff.shape[0] < n_streams or np.linalg.matrix_rank(h_eff) < n_streams:
        return np.zeros(n_streams)
    w = np.linalg.pinv(h_eff)
    noise_total = noise_power + residual_interference_power
    enhancement = np.sum(np.abs(w) ** 2, axis=1)
    return signal_power / (noise_total * np.maximum(enhancement, 1e-30))


def announced_subspace_reference(
    wanted_dirs: np.ndarray,
    interference_dirs: Optional[np.ndarray],
    n_wanted: int,
) -> np.ndarray:
    """The U-perp a receiver announces, one subcarrier at a time: the
    wanted columns projected off the interference, orthonormalised, and
    padded with orthonormal filler where they are rank deficient."""
    n_sub, n_rx, _ = wanted_dirs.shape
    out = np.zeros((n_sub, n_rx, n_wanted), dtype=complex)
    for k in range(n_sub):
        columns = wanted_dirs[k]
        if interference_dirs is not None and interference_dirs.shape[2]:
            columns = project_out_subspace(columns, interference_dirs[k])
        basis = orthonormal_basis(columns)
        out[k, :, : basis.shape[1]] = basis
        if basis.shape[1] < n_wanted:
            filler = orthonormal_complement(basis)
            missing = n_wanted - basis.shape[1]
            out[k, :, basis.shape[1] : n_wanted] = filler[:, :missing]
    return out


def effective_column_reference(channel: np.ndarray, stream, subcarrier: int) -> np.ndarray:
    """The effective (power-scaled) channel column of a stream at a
    receiver on one subcarrier."""
    h = channel[subcarrier]
    precoder = stream.precoders[subcarrier]
    return np.sqrt(stream.power) * (h @ precoder)


def unprotected_interference_power_reference(
    channel: np.ndarray, stream, subcarrier: int
) -> float:
    """Average per-receive-antenna power an unprotected stream creates
    on one subcarrier: ``power * ||H||_F^2 / (N M)``."""
    h = channel[subcarrier]
    n_rx, n_tx = h.shape
    return float(stream.power * np.sum(np.abs(h) ** 2) / (n_rx * n_tx))
