"""Tests for interference alignment (Claim 3.4 and the §2 three-pair
example)."""

import numpy as np
import pytest

from oracles.mimo import (
    ReceiverConstraint,
    align_third_transmitter_example,
    alignment_constraint_rows,
    alignment_precoders,
    alignment_residual,
    ongoing_rows,
    orthonormal_complement,
)
from repro.exceptions import PrecodingError
from repro.mimo.precoder import compute_precoders_batch


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestConstraintRows:
    def test_row_count_equals_wanted_streams(self, rng):
        """Aligning at a 3-antenna receiver with two wanted streams costs
        the joiner two degrees of freedom, not three."""
        channel = _random(rng, (3, 4))
        u_perp = orthonormal_complement(_random(rng, (3, 1)))[:, :2]
        rows = alignment_constraint_rows(channel, u_perp)
        assert rows.shape == (2, 4)
        precoders = compute_precoders_batch(4, rows[None])
        assert precoders.shape == (1, 2, 4)
        assert np.allclose(u_perp.conj().T @ channel @ precoders[0].T, 0, atol=1e-10)


class TestThirdTransmitterExample:
    def test_nulls_at_rx1_and_aligns_at_rx2(self, rng):
        """The §2 example: tx3 satisfies Eq. 2a (null at rx1) and Eq. 4
        (align with tx1's interference at rx2)."""
        h_rx1 = _random(rng, 3)
        h_rx2 = _random(rng, (2, 3))
        f_tx1 = _random(rng, 2)
        v, L = align_third_transmitter_example(h_rx1, h_rx2, f_tx1)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        # Eq. 2a: no interference at rx1.
        assert abs(np.dot(h_rx1, v)) < 1e-10
        # Eq. 4: the interference at rx2 is parallel to tx1's direction.
        received = h_rx2 @ v
        assert np.allclose(received, L * f_tx1, atol=1e-10)

    def test_rx2_can_still_decode_its_stream(self, rng):
        """After alignment, rx2 sees two independent directions: the combined
        interference (p + L r) and its wanted stream q (the paper's Eq. 3
        discussion)."""
        h_rx1 = _random(rng, 3)
        h_rx2 = _random(rng, (2, 3))
        f_tx1 = _random(rng, 2)  # direction of tx1's symbol p at rx2
        g_tx2 = _random(rng, 2)  # direction of tx2's symbol q at rx2
        v, L = align_third_transmitter_example(h_rx1, h_rx2, f_tx1)
        combined_interference = f_tx1  # p and r are aligned along f_tx1
        matrix = np.stack([combined_interference, g_tx2], axis=1)
        assert np.linalg.matrix_rank(matrix) == 2

    def test_zero_reference_direction_rejected(self, rng):
        with pytest.raises(PrecodingError):
            align_third_transmitter_example(_random(rng, 3), _random(rng, (2, 3)), np.zeros(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_production_solver_finds_the_same_direction(self, seed):
        """``compute_precoders_batch`` with rx1 nulled and rx2 announcing
        the complement of tx1's direction as its decoding subspace picks
        the §2 vector (up to phase)."""
        rng = np.random.default_rng(seed)
        h_rx1 = _random(rng, 3)
        h_rx2 = _random(rng, (2, 3))
        f_tx1 = _random(rng, 2)
        v, _ = align_third_transmitter_example(h_rx1, h_rx2, f_tx1)
        ongoing = [
            ReceiverConstraint(channel=h_rx1.reshape(1, 3)),
            ReceiverConstraint(
                channel=h_rx2, u_perp=orthonormal_complement(f_tx1.reshape(2, 1))
            ),
        ]
        (produced,) = compute_precoders_batch(3, ongoing_rows(3, ongoing))[0]
        assert abs(np.vdot(v, produced)) == pytest.approx(1.0, abs=1e-9)


class TestAlignmentPrecoders:
    def test_constraints_are_satisfied(self, rng):
        channel = _random(rng, (2, 3))
        u_perp = orthonormal_complement(_random(rng, (2, 1)))
        rows = alignment_constraint_rows(channel, u_perp)
        precoders = alignment_precoders([rows], 3)
        assert np.allclose(rows @ precoders, 0, atol=1e-10)

    def test_alignment_uses_fewer_constraints_than_nulling(self, rng):
        """Aligning at a 2-antenna receiver with one wanted stream costs one
        degree of freedom; nulling would cost two."""
        channel = _random(rng, (2, 3))
        u_perp = orthonormal_complement(_random(rng, (2, 1)))
        align_rows = alignment_constraint_rows(channel, u_perp)
        precoders = alignment_precoders([align_rows], 3)
        assert precoders.shape[1] == 2  # 3 antennas - 1 alignment constraint

    def test_spans_the_production_precoders(self, rng):
        """The stacked-rows form and ``compute_precoders_batch`` agree on
        the admissible subspace for a nulled plus an aligned receiver."""
        h_null = _random(rng, (1, 4))
        h_align = _random(rng, (2, 4))
        u_perp = orthonormal_complement(_random(rng, (2, 1)))
        oracle = alignment_precoders(
            [h_null, alignment_constraint_rows(h_align, u_perp)], n_tx_antennas=4
        )
        ongoing = [
            ReceiverConstraint(channel=h_null),
            ReceiverConstraint(channel=h_align, u_perp=u_perp),
        ]
        produced = compute_precoders_batch(4, ongoing_rows(4, ongoing))[0].T
        assert oracle.shape == produced.shape == (4, 2)
        projector = oracle @ np.linalg.pinv(oracle)
        assert np.allclose(projector @ produced, produced, atol=1e-9)

    def test_too_many_constraints_raise(self, rng):
        rows = _random(rng, (3, 3))
        with pytest.raises(PrecodingError):
            alignment_precoders([rows], 3)

    def test_residual_is_zero_with_true_channels(self, rng):
        channel = _random(rng, (2, 4))
        u_perp = orthonormal_complement(_random(rng, (2, 1)))
        rows = alignment_constraint_rows(channel, u_perp)
        precoders = alignment_precoders([rows], 4)
        assert alignment_residual(channel, u_perp, precoders) < 1e-18

    def test_residual_grows_with_estimation_error(self, rng):
        channel_true = _random(rng, (2, 3))
        u_perp = orthonormal_complement(_random(rng, (2, 1)))
        small = channel_true + 0.01 * _random(rng, (2, 3))
        large = channel_true + 0.1 * _random(rng, (2, 3))
        p_small = alignment_precoders([alignment_constraint_rows(small, u_perp)], 3)
        p_large = alignment_precoders([alignment_constraint_rows(large, u_perp)], 3)
        assert alignment_residual(channel_true, u_perp, p_small) < alignment_residual(
            channel_true, u_perp, p_large
        )
