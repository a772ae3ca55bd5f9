"""Tests for the general pre-coding solver (Claim 3.5, Eq. 7).

One subcarrier runs through :func:`compute_precoders_batch` as a
one-element stack of the ongoing receivers' constraint rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.mimo import (
    OwnReceiver,
    ReceiverConstraint,
    compute_precoders_with_own_receivers,
    ongoing_rows,
    orthonormal_complement,
)
from repro.exceptions import PrecodingError
from repro.mimo.precoder import compute_precoders_batch


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def compute_precoders(n_tx_antennas, ongoing, n_streams=None):
    """The joiner's pre-coding vectors on one subcarrier."""
    stack = ongoing_rows(n_tx_antennas, ongoing)
    return list(compute_precoders_batch(n_tx_antennas, stack, n_streams=n_streams)[0][0])


class TestReceiverConstraint:
    def test_nulling_when_no_unwanted_space(self, rng):
        """No unwanted space: the joiner nulls at both antennas (Claim
        3.3), so three antennas leave one stream."""
        constraint = ReceiverConstraint(channel=_random(rng, (2, 3)))
        assert constraint.constraint_rows().shape[0] == 2
        assert len(compute_precoders(3, [constraint])) == 1

    def test_alignment_constraint_count(self, rng):
        """A one-dimensional decoding subspace at a 3-antenna receiver
        costs one row (Claim 3.4), so four antennas leave three streams."""
        u_perp = orthonormal_complement(_random(rng, (3, 2)))
        constraint = ReceiverConstraint(channel=_random(rng, (3, 4)), u_perp=u_perp)
        assert constraint.constraint_rows().shape[0] == 1
        assert len(compute_precoders(4, [constraint])) == 3


class TestSingleReceiverJoin:
    def test_fig5c_scenario(self, rng):
        """tx3 (3 antennas) joins tx1-rx1 (single antenna): null at rx1 and
        send two streams to rx3."""
        h_rx1 = _random(rng, (1, 3))
        precoders = compute_precoders(3, [ReceiverConstraint(channel=h_rx1)])
        assert len(precoders) == 2
        for v in precoders:
            assert np.allclose(h_rx1 @ v, 0, atol=1e-10)

    def test_fig5b_scenario(self, rng):
        """tx3 joins tx2-rx2 (two antennas fully used): null at both antennas,
        one stream remains."""
        h_rx2 = _random(rng, (2, 3))
        precoders = compute_precoders(3, [ReceiverConstraint(channel=h_rx2)])
        assert len(precoders) == 1
        assert np.allclose(h_rx2 @ precoders[0], 0, atol=1e-10)

    def test_fig5d_scenario(self, rng):
        """tx3 joins tx1 (null) and tx2's receiver rx2 (align): exactly one
        stream, satisfying both constraints."""
        h_rx1 = _random(rng, (1, 3))
        h_rx2 = _random(rng, (2, 3))
        u_perp_rx2 = orthonormal_complement(_random(rng, (2, 1)))
        ongoing = [
            ReceiverConstraint(channel=h_rx1),
            ReceiverConstraint(channel=h_rx2, u_perp=u_perp_rx2),
        ]
        precoders = compute_precoders(3, ongoing)
        assert len(precoders) == 1
        v = precoders[0]
        assert np.allclose(h_rx1 @ v, 0, atol=1e-10)
        # Interference lands inside rx2's unwanted space.
        assert np.allclose(u_perp_rx2.conj().T @ (h_rx2 @ v), 0, atol=1e-10)

    def test_no_degrees_of_freedom_left_raises(self, rng):
        h = _random(rng, (3, 3))
        with pytest.raises(PrecodingError):
            compute_precoders(3, [ReceiverConstraint(channel=h)])

    def test_requesting_too_many_streams_raises(self, rng):
        h = _random(rng, (1, 2))
        with pytest.raises(PrecodingError):
            compute_precoders(2, [ReceiverConstraint(channel=h)], n_streams=2)

    def test_precoders_are_unit_norm(self, rng):
        precoders = compute_precoders(4, [ReceiverConstraint(channel=_random(rng, (2, 4)))])
        for v in precoders:
            assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_idle_medium_returns_full_rank_precoders(self, rng):
        precoders = compute_precoders(3, [], n_streams=3)
        matrix = np.stack(precoders, axis=1)
        assert np.linalg.matrix_rank(matrix) == 3


class TestMultiReceiverEq7:
    def test_fig4_scenario(self, rng):
        """AP2 (3 antennas) joins c1->AP1 and serves c2 and c3 (one stream
        each): the full Eq. 7 with one alignment row at AP1 and one row per
        own client."""
        h_ap1 = _random(rng, (2, 3))
        u_perp_ap1 = orthonormal_complement(_random(rng, (2, 1)))
        h_c2 = _random(rng, (2, 3))
        h_c3 = _random(rng, (2, 3))
        u_perp_c2 = orthonormal_complement(_random(rng, (2, 1)))
        u_perp_c3 = orthonormal_complement(_random(rng, (2, 1)))
        ongoing = [ReceiverConstraint(channel=h_ap1, u_perp=u_perp_ap1)]
        own = [
            OwnReceiver(channel=h_c2, u_perp=u_perp_c2, n_streams=1),
            OwnReceiver(channel=h_c3, u_perp=u_perp_c3, n_streams=1),
        ]
        precoders = compute_precoders_with_own_receivers(3, ongoing, own)
        assert len(precoders) == 2
        v_c2, v_c3 = precoders
        # Neither stream disturbs AP1's decoding subspace.
        for v in precoders:
            assert np.allclose(u_perp_ap1.conj().T @ (h_ap1 @ v), 0, atol=1e-8)
        # The stream for c2 stays out of c3's decoding subspace and vice versa.
        assert np.allclose(u_perp_c3.conj().T @ (h_c3 @ v_c2), 0, atol=1e-8)
        assert np.allclose(u_perp_c2.conj().T @ (h_c2 @ v_c3), 0, atol=1e-8)
        # Each stream is actually received by its own client.
        assert np.abs(u_perp_c2.conj().T @ (h_c2 @ v_c2)) > 1e-3
        assert np.abs(u_perp_c3.conj().T @ (h_c3 @ v_c3)) > 1e-3

    def test_beamforming_without_ongoing(self, rng):
        """Multi-user beamforming (no ongoing transmissions): 3 streams to
        two 2-antenna clients (2 + 1), each stream invisible to the other
        client's decoding subspace."""
        h_c2 = _random(rng, (2, 3))
        h_c3 = _random(rng, (2, 3))
        own = [
            OwnReceiver(channel=h_c2, u_perp=np.eye(2), n_streams=2),
            OwnReceiver(channel=h_c3, u_perp=np.eye(2)[:, :1], n_streams=1),
        ]
        precoders = compute_precoders_with_own_receivers(3, [], own)
        assert len(precoders) == 3
        v1, v2, v3 = precoders
        # Streams 1-2 are for c2, stream 3 for c3: stream 3 must vanish in
        # c2's full space rows used by Eq. 7's identity structure.
        leak_c3_at_c2 = np.eye(2).conj().T @ (h_c2 @ v3)
        assert np.allclose(leak_c3_at_c2, 0, atol=1e-8)
        leak_c2_at_c3 = np.eye(2)[:, :1].conj().T @ (h_c3 @ np.stack([v1, v2], axis=1))
        assert np.allclose(leak_c2_at_c3, 0, atol=1e-8)

    def test_own_streams_exceeding_dof_raise(self, rng):
        own = [OwnReceiver(channel=_random(rng, (2, 2)), u_perp=np.eye(2), n_streams=2)]
        ongoing = [ReceiverConstraint(channel=_random(rng, (1, 2)))]
        with pytest.raises(PrecodingError):
            compute_precoders_with_own_receivers(2, ongoing, own)

    def test_inconsistent_stream_count_raises(self, rng):
        own = [OwnReceiver(channel=_random(rng, (2, 3)), u_perp=np.eye(2)[:, :1], n_streams=1)]
        with pytest.raises(PrecodingError):
            compute_precoders_with_own_receivers(3, [], own, n_streams=2)

    def test_singular_combined_system_raises(self, rng):
        # Two own receivers with the same channel and decoding subspace
        # make Eq. 7's matrix singular: the batched kernel falls back and
        # flags the subcarrier degraded, which the one-subcarrier form
        # reports as an error.
        h = _random(rng, (2, 3))
        own = [
            OwnReceiver(channel=h, u_perp=np.eye(2)[:, :1], n_streams=1),
            OwnReceiver(channel=h, u_perp=np.eye(2)[:, :1], n_streams=1),
        ]
        ongoing = [ReceiverConstraint(channel=_random(rng, (1, 3)))]
        with pytest.raises(PrecodingError, match="singular"):
            compute_precoders_with_own_receivers(3, ongoing, own)

    def test_own_receiver_validation(self, rng):
        with pytest.raises(PrecodingError):
            OwnReceiver(channel=_random(rng, (2, 3)), u_perp=np.eye(2)[:, :1], n_streams=2)

    @given(
        n_tx=st.integers(2, 4),
        n_ongoing_antennas=st.integers(1, 2),
        seed=st.integers(0, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_protection_property(self, n_tx, n_ongoing_antennas, seed):
        """For any random channel, every returned pre-coder must satisfy the
        protection constraints to numerical precision."""
        if n_ongoing_antennas >= n_tx:
            return
        rng = np.random.default_rng(seed)
        h = _random(rng, (n_ongoing_antennas, n_tx))
        precoders = compute_precoders(n_tx, [ReceiverConstraint(channel=h)])
        assert len(precoders) == n_tx - n_ongoing_antennas
        for v in precoders:
            assert np.allclose(h @ v, 0, atol=1e-8)
