"""MIMO oracles: the paper's per-subcarrier linear algebra, one subcarrier
(one SVD, one solve) at a time.

The package computes all of these as batched stack kernels only
(:func:`repro.mimo.precoder.compute_precoders_batch`,
:func:`repro.mimo.decoder.post_projection_snr_batch`,
:func:`repro.utils.linalg.null_space_batch`,
:func:`repro.utils.linalg.orthonormal_complement_batch`,
:func:`repro.sim.link_abstraction.announced_decoding_subspace`, ...); a
test runs one matrix through them as a one-element stack.  The forms
here are the readable per-matrix ones the tests check those kernels
against: :func:`null_space` and :func:`orthonormal_complement`, the
nulling/alignment constraint rows of an ongoing receiver
(:class:`ReceiverConstraint`, Claims 3.3 and 3.4), the projection +
zero-forcing decoder (:func:`project_and_decode`, §3.4), together with
the §2 worked examples and the stacked-rows alignment solver.
:class:`OwnReceiver` and :func:`compute_precoders_with_own_receivers`
are the per-subcarrier form of Eq. 7's own-receiver rows, which the
package builds as stacked arrays (:class:`repro.mac.plan.PlannedReceiver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from helpers import orthonormal_basis
from repro.exceptions import DecodingError, DimensionError, PrecodingError
from repro.mimo.precoder import compute_precoders_batch
from repro.utils import guarded
from repro.utils.linalg import DEFAULT_RCOND, singular_value_ranks


# -- per-matrix subspaces, constraint rows and decoding ---------------------


def _rank(singular_values: np.ndarray, rcond: float) -> int:
    """Numerical rank: singular values above ``rcond * s_max``."""
    s = singular_values
    return int(np.sum(s > rcond * (s[0] if s.size else 0.0)))


def null_space(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Orthonormal basis (as columns) of the right null space of one
    ``(rows, cols)`` matrix: the right-singular vectors past its rank.
    With no rows nothing is constrained, so the whole space is returned."""
    a = np.asarray(matrix, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[_rank(s, rcond) :].conj().T


def orthonormal_complement(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Orthonormal basis of the complement of one ``(n, k)`` matrix's
    column space: the left-singular vectors past its rank, so
    ``n - rank`` columns."""
    a = np.asarray(matrix, dtype=complex)
    if a.shape[1] == 0:
        return np.eye(a.shape[0], dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    return u[:, _rank(s, rcond) :]


def alignment_constraint_rows(channel: np.ndarray, u_perp: np.ndarray) -> np.ndarray:
    """The ``(n, M)`` rows ``U_perp^H H`` of aligning inside a receiver's
    unwanted space (Eq. 6): annihilating them keeps the joiner's signal
    out of the receiver's ``n``-dimensional decoding subspace."""
    return np.asarray(u_perp, dtype=complex).conj().T @ np.asarray(channel, dtype=complex)


@dataclass
class ReceiverConstraint:
    """A receiver of an *ongoing* stream that the joiner must not disturb.

    ``channel`` is the ``(N, M)`` channel from the joiner to it and
    ``u_perp`` the ``(N, n)`` basis of its decoding subspace; ``None``
    (or ``n = N``) means it has no unwanted space, so the joiner nulls
    (Claim 3.3: the rows are the channel itself), otherwise it aligns
    (Claim 3.4: ``n`` rows instead of ``N``).
    """

    channel: np.ndarray
    u_perp: Optional[np.ndarray] = None

    def constraint_rows(self) -> np.ndarray:
        """The rows this receiver contributes to the joiner's system."""
        channel = np.asarray(self.channel, dtype=complex)
        if self.u_perp is None or np.shape(self.u_perp)[1] == channel.shape[0]:
            return channel
        return alignment_constraint_rows(channel, self.u_perp)


def ongoing_rows(n_tx_antennas: int, ongoing: Sequence[ReceiverConstraint]) -> np.ndarray:
    """The ongoing receivers' rows as the ``(1, K, M)`` one-subcarrier
    stack :func:`repro.mimo.precoder.compute_precoders_batch` takes."""
    rows = [np.zeros((0, n_tx_antennas), dtype=complex)]
    rows += [receiver.constraint_rows() for receiver in ongoing]
    return np.concatenate(rows, axis=0)[None]


def project_and_decode(
    received: np.ndarray,
    wanted_channel: np.ndarray,
    interference_directions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Zero-forcing estimates ``(n, T)`` of the wanted streams from
    ``(N, T)`` received samples, after projecting out the ``(N, k)``
    interference (§3.4, Fig. 2) -- the decoder whose SNR
    :func:`repro.mimo.decoder.post_projection_snr_batch` computes."""
    y = np.asarray(received, dtype=complex)
    hw = np.asarray(wanted_channel, dtype=complex)
    if interference_directions is not None:
        projector = orthonormal_complement(interference_directions)
        if projector.shape[1] < hw.shape[1]:
            raise DecodingError(
                "after removing interference there are fewer dimensions than wanted streams"
            )
        y, hw = projector.conj().T @ y, projector.conj().T @ hw
    if np.linalg.matrix_rank(hw) < hw.shape[1]:
        raise DecodingError("wanted streams are not separable (rank-deficient channel)")
    return np.linalg.pinv(hw) @ y


@dataclass
class OwnReceiver:
    """A receiver of the joiner's *own* streams.

    Attributes
    ----------
    channel:
        ``(N, M)`` channel matrix from the joiner to this receiver.
    u_perp:
        ``(N, n)`` decoding subspace of this receiver, where ``n`` is the
        number of streams it will receive from the joiner.  For a receiver
        using all of its antennas, pass the identity.
    n_streams:
        Number of the joiner's streams destined to this receiver.
    """

    channel: np.ndarray
    u_perp: np.ndarray
    n_streams: int

    def __post_init__(self) -> None:
        self.channel = np.asarray(self.channel, dtype=complex)
        if self.channel.ndim == 1:
            self.channel = self.channel.reshape(1, -1)
        self.u_perp = np.asarray(self.u_perp, dtype=complex)
        if self.u_perp.ndim == 1:
            self.u_perp = self.u_perp.reshape(-1, 1)
        if self.u_perp.shape[0] != self.channel.shape[0]:
            raise DimensionError(
                "U-perp and the channel disagree on the receiver's antenna count"
            )
        if self.n_streams < 1:
            raise PrecodingError("an own receiver must take at least one stream")
        if self.n_streams > self.u_perp.shape[1]:
            raise PrecodingError(
                f"receiver's decoding subspace has dimension {self.u_perp.shape[1]} "
                f"but {self.n_streams} streams are destined to it"
            )

    def constraint_rows(self) -> np.ndarray:
        """Rows ``U'_perp^H H'`` of this receiver (Claim 3.5)."""
        return alignment_constraint_rows(self.channel, self.u_perp)


def compute_precoders_with_own_receivers(
    n_tx_antennas: int,
    ongoing: Sequence[ReceiverConstraint],
    own_receivers: Sequence[OwnReceiver],
    n_streams: Optional[int] = None,
) -> List[np.ndarray]:
    """Eq. 7 on one subcarrier through the package's batched kernel.

    Raises :class:`~repro.exceptions.PrecodingError` when the combined
    system is singular or ill-conditioned (any degradation the kernel
    notes) instead of returning the kernel's guarded fallback.
    """
    rows = [r.constraint_rows() for r in own_receivers]
    with guarded.capture_degradations() as capture:
        solution = compute_precoders_batch(
            n_tx_antennas,
            ongoing_rows(n_tx_antennas, ongoing),
            own_rows=np.concatenate(rows, axis=0)[None],
            own_stream_counts=[r.n_streams for r in own_receivers],
            own_row_counts=[block.shape[0] for block in rows],
            n_streams=n_streams,
        )[0]
    if capture.triggered:
        raise PrecodingError(
            "the combined constraint matrix is singular or ill-conditioned "
            f"({', '.join(capture.events)})"
        )
    return [vector.copy() for vector in solution]


def project_out_subspace(vectors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove from ``vectors`` every component lying in the span of
    ``basis`` and return the residual in the original coordinates -- what
    a receiver does to cancel ongoing transmissions before decoding or
    carrier sensing, one vector (or one column of samples) at a time."""
    b = np.asarray(basis, dtype=complex)
    b = b.reshape(-1, 1) if b.ndim == 1 else b
    v = np.asarray(vectors, dtype=complex)
    squeeze = v.ndim == 1
    if squeeze:
        v = v.reshape(-1, 1)
    if v.shape[0] != b.shape[0]:
        raise DimensionError(
            f"vectors have dimension {v.shape[0]} but basis lives in dimension {b.shape[0]}"
        )
    residual = v
    if b.shape[1]:
        ortho = orthonormal_basis(b)
        residual = v - ortho @ (ortho.conj().T @ v)
    return residual[:, 0] if squeeze else residual


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


def post_projection_snr_batch_reference(
    wanted_channels: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power=0.0,
) -> np.ndarray:
    """The batched post-projection SNR in its two-SVD form: the same
    sanitizing, interference SVD and per-rank projection as
    :func:`repro.mimo.decoder.post_projection_snr_batch`, then
    ``np.linalg.matrix_rank`` and ``np.linalg.pinv(rcond=1e-15)`` of the
    projected stack -- two SVDs where production takes both answers from
    one.  Production must match it bit for bit."""
    hw, _ = guarded.sanitize_stack(np.asarray(wanted_channels, dtype=complex))
    n_sub, _, n_streams = hw.shape
    residual = np.broadcast_to(np.asarray(residual_interference_power, dtype=float), (n_sub,))
    noise_total = noise_power + residual

    def zero_forcing(h_eff, noise):
        rows = h_eff.shape[1]
        if rows < n_streams:
            return np.zeros((h_eff.shape[0], n_streams))
        w = np.linalg.pinv(h_eff, rcond=1e-15)
        enhancement = np.sum(np.abs(w) ** 2, axis=2)
        snr = signal_power / (noise[:, None] * np.maximum(enhancement, 1e-30))
        snr[np.linalg.matrix_rank(h_eff) < n_streams] = 0.0
        return np.where(np.isfinite(snr), snr, 0.0)

    if interference_directions is None or not np.asarray(interference_directions).size:
        return zero_forcing(hw, noise_total)
    hi, _ = guarded.sanitize_stack(np.asarray(interference_directions, dtype=complex))
    u, s, _ = np.linalg.svd(hi, full_matrices=True)
    ranks = singular_value_ranks(s)
    if np.all(ranks == ranks[0]):
        projector = u[:, :, ranks[0]:].conj().transpose(0, 2, 1)
        return zero_forcing(projector @ hw, noise_total)
    snr = np.zeros((n_sub, n_streams))
    for rank in np.unique(ranks):
        members = ranks == rank
        projector = u[members][:, :, rank:].conj().transpose(0, 2, 1)
        snr[members] = zero_forcing(projector @ hw[members], noise_total[members])
    return snr


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


# -- the worked examples of §2 and alignment (Claim 3.4) --------------------


def two_antenna_nulling_weight(h_first: complex, h_second: complex) -> complex:
    """The scalar weight of the two-antenna example in §2.

    A 2-antenna transmitter sending ``q`` on its first antenna and
    ``alpha * q`` on its second creates a null at a single-antenna receiver
    whose channels are ``h_first`` and ``h_second`` when
    ``alpha = -h_first / h_second``.
    """
    if h_second == 0:
        raise PrecodingError("cannot null: the second antenna's channel is exactly zero")
    return -h_first / h_second


def alignment_precoders(
    constraints: Sequence[np.ndarray],
    n_tx_antennas: int,
    n_streams: int | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Pre-coders satisfying a set of pre-computed constraint-row blocks.

    This is the generic "stack the rows, take the null space" step shared
    by nulling and alignment, in its readable one-receiver form;
    :func:`repro.mimo.precoder.compute_precoders_batch` runs the full
    protocol combining both plus multiple own receivers.
    """
    rows = []
    for block in constraints:
        block = np.asarray(block, dtype=complex)
        if block.ndim == 1:
            block = block.reshape(1, -1)
        if block.shape[1] != n_tx_antennas:
            raise DimensionError(
                f"constraint block has {block.shape[1]} columns, expected {n_tx_antennas}"
            )
        rows.append(block)
    stacked = (
        np.concatenate(rows, axis=0) if rows else np.zeros((0, n_tx_antennas), dtype=complex)
    )
    basis = null_space(stacked)
    available = basis.shape[1]
    wanted = available if n_streams is None else n_streams
    if wanted > available or wanted == 0:
        raise PrecodingError(
            f"constraints leave {available} free degrees of freedom, "
            f"cannot transmit {wanted} streams"
        )
    precoders = basis[:, :wanted]
    if normalize:
        norms = np.linalg.norm(precoders, axis=0, keepdims=True)
        precoders = precoders / np.where(norms > 0, norms, 1.0)
    return precoders


def align_third_transmitter_example(
    h_to_rx1: np.ndarray,
    h_to_rx2: np.ndarray,
    h_tx1_to_rx2: np.ndarray,
) -> Tuple[np.ndarray, complex]:
    """Solve the three-transmitter example of §2 (Eqs. 2a and 4).

    tx3 (three antennas) must null at the single-antenna rx1 and align its
    interference at the two-antenna rx2 with the interference rx2 already
    sees from tx1.

    Parameters
    ----------
    h_to_rx1:
        Length-3 channel vector from tx3's antennas to rx1's antenna.
    h_to_rx2:
        ``(2, 3)`` channel matrix from tx3 to rx2.
    h_tx1_to_rx2:
        Length-2 channel vector from tx1 to rx2 (the interference
        direction tx3 must align with).

    Returns
    -------
    (v, L):
        ``v`` is tx3's pre-coding vector (length 3, unit norm) and ``L``
        the alignment constant of Eq. 4 such that the interference tx3
        creates at rx2 equals ``L`` times tx1's interference direction.
    """
    h1 = np.asarray(h_to_rx1, dtype=complex).reshape(1, 3)
    h2 = np.asarray(h_to_rx2, dtype=complex).reshape(2, 3)
    f = np.asarray(h_tx1_to_rx2, dtype=complex).reshape(2)
    if np.allclose(f, 0):
        raise PrecodingError("tx1 creates no interference at rx2; nothing to align with")

    # Nulling at rx1: h1 @ v = 0 (one row).  Alignment at rx2: the received
    # vector h2 @ v must be parallel to f, i.e. orthogonal to the direction
    # perpendicular to f (one more row).
    f_perp = np.array([-np.conj(f[1]), np.conj(f[0])])
    align_row = f_perp.conj().reshape(1, 2) @ h2
    constraints = np.concatenate([h1, align_row], axis=0)
    basis = null_space(constraints)
    if basis.shape[1] == 0:
        raise PrecodingError("no pre-coding vector satisfies both constraints")
    v = basis[:, 0]
    v = v / np.linalg.norm(v)
    received = h2 @ v
    # L is the scaling between the aligned interference and tx1's direction.
    ratios = received[np.abs(f) > 1e-12] / f[np.abs(f) > 1e-12]
    L = complex(ratios[0]) if ratios.size else 0.0
    return v, L


def alignment_residual(channel: np.ndarray, u_perp: np.ndarray, precoders: np.ndarray) -> float:
    """Power leaking into the receiver's decoding subspace after alignment
    (zero for ideal alignment)."""
    rows = alignment_constraint_rows(channel, u_perp)
    v = np.asarray(precoders, dtype=complex)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    leak = rows @ v
    return float(np.sum(np.abs(leak) ** 2))
