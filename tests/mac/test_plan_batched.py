"""The batched transmission planner must produce the same per-subcarrier
pre-coders as a loop over the per-subcarrier reference solver (Eq. 7)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.mimo import (
    OwnReceiver,
    ReceiverConstraint,
    compute_precoders_reference,
    orthonormal_complement,
)
from repro.exceptions import PrecodingError
from repro.mac.plan import (
    PlannedReceiver,
    ProtectedReceiver,
    plan_initial_transmission,
    plan_join,
)
from repro.mimo.dof import InterferenceStrategy
from repro.mimo.precoder import compute_precoders_batch

N_SUB = 8


def _channels(rng, n_rx, n_tx):
    shape = (N_SUB, n_rx, n_tx)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _u_perp(rng, n_rx, n_keep):
    out = np.zeros((N_SUB, n_rx, n_keep), dtype=complex)
    for k in range(N_SUB):
        seed = rng.standard_normal((n_rx, n_rx - n_keep)) + 1j * rng.standard_normal(
            (n_rx, n_rx - n_keep)
        )
        out[k] = orthonormal_complement(seed)[:, :n_keep]
    return out


def _constraint(protected, k):
    """The per-subcarrier constraint a protected receiver imposes."""
    if protected.strategy is InterferenceStrategy.NULL or protected.u_perp is None:
        return ReceiverConstraint(channel=protected.channel[k])
    return ReceiverConstraint(channel=protected.channel[k], u_perp=protected.u_perp[k])


def _own_receivers(receivers, k):
    """The per-subcarrier own receivers (canonical U-perp when none was set)."""
    return [
        OwnReceiver(
            channel=r.channel[k],
            u_perp=(
                np.eye(r.n_antennas, dtype=complex)[:, : r.n_streams]
                if r.u_perp is None
                else r.u_perp[k]
            ),
            n_streams=r.n_streams,
        )
        for r in receivers
    ]


def _reference_join_precoders(n_tx, protected, receivers, total_streams):
    """Per-subcarrier loop over the reference solver (the seed planner)."""
    out = np.zeros((N_SUB, total_streams, n_tx), dtype=complex)
    for k in range(N_SUB):
        ongoing = [_constraint(p, k) for p in protected]
        if len(receivers) == 1:
            vectors = compute_precoders_reference(
                n_tx, ongoing=ongoing, own_receivers=None, n_streams=total_streams
            )
        else:
            vectors = compute_precoders_reference(
                n_tx, ongoing=ongoing, own_receivers=_own_receivers(receivers, k)
            )
        for index, vector in enumerate(vectors):
            out[k, index] = vector
    return out


class TestPlanJoinBatched:
    def test_single_receiver_null_and_align(self, rng):
        protected = [
            ProtectedReceiver(1, 1, 1, _channels(rng, 1, 4)),
            ProtectedReceiver(2, 2, 1, _channels(rng, 2, 4), u_perp=_u_perp(rng, 2, 1)),
        ]
        receivers = [PlannedReceiver(5, 4, 2, _channels(rng, 4, 4))]
        plan = plan_join(9, 4, protected, receivers)
        reference = _reference_join_precoders(4, protected, receivers, 2)
        for index, stream in enumerate(plan.streams):
            assert np.allclose(stream.precoders, reference[:, index, :])

    def test_multiple_own_receivers(self, rng):
        protected = [ProtectedReceiver(1, 1, 1, _channels(rng, 1, 4))]
        receivers = [
            PlannedReceiver(5, 2, 1, _channels(rng, 2, 4)),
            PlannedReceiver(6, 2, 1, _channels(rng, 2, 4)),
        ]
        plan = plan_join(9, 4, protected, receivers)
        reference = _reference_join_precoders(4, protected, receivers, 2)
        for index, stream in enumerate(plan.streams):
            assert np.allclose(stream.precoders, reference[:, index, :])

    def test_no_free_dof_still_raises(self, rng):
        protected = [ProtectedReceiver(1, 3, 3, _channels(rng, 3, 3))]
        receivers = [PlannedReceiver(5, 3, 1, _channels(rng, 3, 3))]
        with pytest.raises(PrecodingError):
            plan_join(9, 3, protected, receivers)

    def test_precoders_null_at_protected_receivers(self, rng):
        channel = _channels(rng, 1, 3)
        protected = [ProtectedReceiver(1, 1, 1, channel)]
        receivers = [PlannedReceiver(5, 3, 1, _channels(rng, 3, 3))]
        plan = plan_join(9, 3, protected, receivers)
        for k in range(N_SUB):
            leak = channel[k] @ plan.streams[0].precoders[k]
            assert np.allclose(leak, 0, atol=1e-8)


class TestPlanInitialBatched:
    def test_multi_user_beamforming_matches_reference(self, rng):
        receivers = [
            PlannedReceiver(5, 2, 1, _channels(rng, 2, 3)),
            PlannedReceiver(6, 2, 2, _channels(rng, 2, 3), u_perp=_u_perp(rng, 2, 2)),
        ]
        plan = plan_initial_transmission(9, 3, receivers)
        reference = np.zeros((N_SUB, 3, 3), dtype=complex)
        for k in range(N_SUB):
            vectors = compute_precoders_reference(
                3, ongoing=[], own_receivers=_own_receivers(receivers, k)
            )
            for index, vector in enumerate(vectors):
                reference[k, index] = vector
        for index, stream in enumerate(plan.streams):
            assert np.allclose(stream.precoders, reference[:, index, :])


class TestComputePrecodersBatch:
    def test_simple_case_matches_reference(self, rng):
        shared = _channels(rng, 2, 4)
        batched, _ = compute_precoders_batch(4, shared, n_streams=2)
        for k in range(N_SUB):
            reference = compute_precoders_reference(
                4, ongoing=[ReceiverConstraint(channel=shared[k])], n_streams=2
            )
            for index, vector in enumerate(reference):
                assert np.allclose(batched[k, index], vector)

    def test_unit_norm_precoders(self, rng):
        shared = _channels(rng, 1, 3)
        batched, _ = compute_precoders_batch(3, shared, n_streams=2)
        norms = np.linalg.norm(batched, axis=2)
        assert np.allclose(norms, 1.0)

    def test_more_streams_than_subspace_rows_raises(self, rng):
        # OwnReceiver raises when a receiver is asked for more streams than
        # its decoding subspace has dimensions; the batch path must too
        # (instead of silently steering a stream into another receiver's
        # constraint rows).
        own_rows = _channels(rng, 2, 4)[:, :2, :]
        with pytest.raises(PrecodingError):
            compute_precoders_batch(
                4,
                np.zeros((N_SUB, 0, 4), dtype=complex),
                own_rows=own_rows,
                own_stream_counts=[2, 1],
                own_row_counts=[1, 1],
            )
