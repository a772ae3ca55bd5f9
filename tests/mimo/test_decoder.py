"""Tests for projection/zero-forcing decoding and post-projection SNR.

The SNR kernel takes a stack of subcarriers; one flat channel is a
one-element stack.  Symbol-level decoding is the readable oracle form
whose SNR the kernel computes.
"""

import numpy as np
import pytest

from oracles.mimo import project_and_decode
from repro.exceptions import DecodingError, DimensionError
from repro.mimo.decoder import _separable_pinv, post_projection_snr_batch


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def post_projection_snr(wanted, interference, noise_power, **kwargs):
    """Per-stream linear SNRs on one subcarrier."""
    stack = None if interference is None else np.asarray(interference)[None]
    return post_projection_snr_batch(np.asarray(wanted)[None], stack, noise_power, **kwargs)[0][0]


class TestZeroForcing:
    def test_recovers_symbols_without_noise(self, rng):
        h = _random(rng, (3, 2))
        x = _random(rng, (2, 50))
        estimate = project_and_decode(h @ x, h)
        assert np.allclose(estimate, x, atol=1e-10)

    def test_rank_deficient_channel_is_inseparable(self, rng):
        """Two streams along one direction cannot be told apart: the
        decoder refuses and the SNR kernel gives both streams SNR 0."""
        column = _random(rng, (3, 1))
        h = np.concatenate([column, column], axis=1)
        with pytest.raises(DecodingError):
            project_and_decode(_random(rng, (3, 1)), h)
        assert np.array_equal(post_projection_snr(h, None, 1.0), [0.0, 0.0])

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (4, 3), (2, 3)])
    @pytest.mark.parametrize("exponent", [-8, 0, 8])
    def test_bit_identical_to_rank_test_plus_pinv(self, rng, shape, exponent):
        """One SVD gives the rank test and the pseudo-inverse of the
        two-SVD form ``matrix_rank`` + ``np.linalg.pinv``, bit for bit."""
        h = _random(rng, shape) * 10.0**exponent
        stack = h[None]
        separable, pinv = _separable_pinv(
            *np.linalg.svd(stack.conj(), full_matrices=False), stack.shape
        )
        assert bool(separable[0]) == (np.linalg.matrix_rank(h) == shape[1])
        if separable[0]:
            assert np.array_equal(pinv[0], np.linalg.pinv(h))

    def test_non_stack_input_raises(self, rng):
        with pytest.raises(DimensionError):
            post_projection_snr_batch(_random(rng, (2, 2)), None, 1.0)


class TestProjectAndDecode:
    def test_removes_known_interference_exactly(self, rng):
        """The paper's Fig. 2 decoding: project orthogonal to p, solve for q."""
        h_wanted = _random(rng, (2, 1))
        h_interference = _random(rng, (2, 1))
        q = _random(rng, (1, 100))
        p = _random(rng, (1, 100))
        received = h_wanted @ q + h_interference @ p
        estimate = project_and_decode(received, h_wanted, h_interference)
        assert np.allclose(estimate, q, atol=1e-8)

    def test_without_interference_is_plain_zero_forcing(self, rng):
        h = _random(rng, (2, 2))
        x = _random(rng, (2, 10))
        assert np.allclose(project_and_decode(h @ x, h, None), x, atol=1e-10)

    def test_too_much_interference_raises(self, rng):
        h_wanted = _random(rng, (2, 2))
        h_interference = _random(rng, (2, 1))
        with pytest.raises(DecodingError):
            project_and_decode(_random(rng, (2, 5)), h_wanted, h_interference)
        assert np.array_equal(post_projection_snr(h_wanted, h_interference, 1.0), [0.0, 0.0])

    def test_three_antenna_receiver_two_streams_one_interferer(self, rng):
        """Fig. 5(c): rx3 decodes two streams while projecting out tx1."""
        h_wanted = _random(rng, (3, 2))
        h_interference = _random(rng, (3, 1))
        x = _random(rng, (2, 64))
        z = _random(rng, (1, 64))
        received = h_wanted @ x + h_interference @ z
        estimate = project_and_decode(received, h_wanted, h_interference)
        assert np.allclose(estimate, x, atol=1e-8)


class TestPostProjectionSnr:
    def test_matched_filter_bound_without_interference(self, rng):
        h = np.array([[2.0], [0.0]], dtype=complex)
        snr = post_projection_snr(h, None, noise_power=1.0)
        assert snr[0] == pytest.approx(4.0, rel=1e-6)

    def test_interference_reduces_snr(self, rng):
        h_wanted = _random(rng, (3, 1))
        h_interference = _random(rng, (3, 1))
        free = post_projection_snr(h_wanted, None, 1.0)[0]
        constrained = post_projection_snr(h_wanted, h_interference, 1.0)[0]
        assert constrained <= free + 1e-9

    def test_residual_interference_acts_as_noise(self, rng):
        h = _random(rng, (2, 1))
        clean = post_projection_snr(h, None, 1.0)[0]
        degraded = post_projection_snr(h, None, 1.0, residual_interference_power=1.0)[0]
        assert degraded == pytest.approx(clean / 2.0, rel=1e-6)

    def test_zero_when_no_dimensions_left(self, rng):
        h_wanted = _random(rng, (2, 1))
        h_interference = _random(rng, (2, 2))
        snr = post_projection_snr(h_wanted, h_interference, 1.0)
        assert snr[0] == 0.0

    def test_orthogonal_interference_costs_nothing(self):
        h_wanted = np.array([[1.0], [0.0]], dtype=complex)
        h_interference = np.array([[0.0], [1.0]], dtype=complex)
        free = post_projection_snr(h_wanted, None, 1.0)[0]
        constrained = post_projection_snr(h_wanted, h_interference, 1.0)[0]
        assert constrained == pytest.approx(free, rel=1e-9)

    def test_signal_power_scales_linearly(self, rng):
        h = _random(rng, (2, 1))
        low = post_projection_snr(h, None, 1.0, signal_power=1.0)[0]
        high = post_projection_snr(h, None, 1.0, signal_power=10.0)[0]
        assert high == pytest.approx(10 * low, rel=1e-9)


class TestProjectionAngle:
    """Fig. 7: projection keeps ``sin^2`` of the angle between the wanted
    stream and the interference subspace of the wanted power."""

    def test_aligned_direction_loses_all_power(self, rng):
        direction = _random(rng, (3, 1))
        assert post_projection_snr(direction, direction, 1.0)[0] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, np.pi / 2])
    def test_kept_power_is_sin_squared_of_the_angle(self, theta):
        wanted = np.array([[np.cos(theta)], [np.sin(theta)]])
        interference = np.array([[1.0], [0.0]])
        snr = post_projection_snr(wanted, interference, 1.0)[0]
        assert snr == pytest.approx(np.sin(theta) ** 2, rel=1e-9)

    def test_empty_interference_keeps_all_power(self, rng):
        wanted = _random(rng, (3, 1))
        snr = post_projection_snr(wanted, np.zeros((3, 0)), 1.0)[0]
        assert snr == pytest.approx(np.linalg.norm(wanted) ** 2)

    def test_snr_grows_with_angle(self, rng):
        """Fig. 7: a larger angle between the wanted stream and the
        interference yields a higher post-projection SNR."""
        interference = np.array([[1.0], [0.0]], dtype=complex)
        small_angle = np.array([[0.95], [0.31]], dtype=complex)
        large_angle = np.array([[0.31], [0.95]], dtype=complex)
        snr_small = post_projection_snr(small_angle, interference, 1.0)[0]
        snr_large = post_projection_snr(large_angle, interference, 1.0)[0]
        assert snr_large > snr_small
