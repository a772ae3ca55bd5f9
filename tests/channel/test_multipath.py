"""Tests for the tapped-delay-line multipath channel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_channel, random_taps
from oracles.channel import MultipathChannel
from repro.channel.multipath import (
    dft_twiddle,
    exponential_power_delay_profile,
    frequency_response_at_bins_batch,
    frequency_response_batch,
    tap_scales,
)
from repro.exceptions import ConfigurationError, DimensionError
from repro.sim.network import _subcarrier_bins


class TestPowerDelayProfile:
    def test_normalised(self):
        for n_taps in (1, 3, 8):
            assert exponential_power_delay_profile(n_taps).sum() == pytest.approx(1.0)

    def test_monotonically_decaying(self):
        profile = exponential_power_delay_profile(6, decay_samples=2.0)
        assert all(a > b for a, b in zip(profile, profile[1:]))

    def test_zero_taps_rejected(self):
        with pytest.raises(ConfigurationError):
            exponential_power_delay_profile(0)


class TestRandomTaps:
    """Rayleigh taps from one normal block (:func:`tap_scales` and
    :func:`taps_from_normals`) and their responses
    (:func:`frequency_response_batch`)."""

    def test_taps_shape(self, rng):
        taps = random_taps(3, 2, rng, n_channels=5, n_taps=4)
        assert taps.shape == (5, 4, 3, 2)

    def test_taps_cannot_exceed_cyclic_prefix(self):
        tap_scales(16, np.ones(1), np.ones(1))
        with pytest.raises(ConfigurationError):
            tap_scales(17, np.ones(1), np.ones(1))

    def test_average_gain_controls_power(self, rng):
        taps = random_taps(2, 2, rng, n_channels=300, average_gain=10.0)
        gains = np.sum(np.abs(taps) ** 2, axis=1).mean(axis=(1, 2))
        assert np.mean(gains) == pytest.approx(10.0, rel=0.15)

    def test_each_tap_carries_its_profile_share(self, rng):
        profile = exponential_power_delay_profile(4)
        taps = random_taps(2, 2, rng, n_channels=400, n_taps=4)
        powers = np.mean(np.abs(taps) ** 2, axis=(0, 2, 3))
        assert np.allclose(powers, profile, rtol=0.2)

    def test_single_tap_channel_averages_to_its_matrix(self):
        matrix = np.array([[1.0, 2.0]])
        response = frequency_response_batch(matrix[None, None], np.arange(64))
        assert np.allclose(response[0].mean(axis=0), matrix)

    def test_taps_must_be_a_stack_of_channels(self):
        with pytest.raises(DimensionError):
            frequency_response_batch(np.zeros((3, 2, 2)), np.arange(64))

    def test_frequency_response_shape(self, rng):
        taps = random_taps(2, 3, rng, n_channels=4, n_taps=3)
        assert frequency_response_batch(taps, np.arange(64)).shape == (4, 64, 2, 3)

    def test_single_tap_channel_has_flat_response(self, rng):
        matrix = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        response = frequency_response_batch(matrix[None, None], np.arange(64))
        for k in range(64):
            assert np.allclose(response[0, k], matrix)

    def test_parseval_consistency(self, rng):
        """Average frequency-domain power equals total tap power."""
        taps = random_taps(1, 1, rng, n_channels=1, n_taps=5)[0, :, 0, 0]
        response = frequency_response_batch(taps[None, :, None, None], np.arange(64))
        tap_power = np.sum(np.abs(taps) ** 2)
        assert np.mean(np.abs(response) ** 2) == pytest.approx(tap_power, rel=1e-6)

    @given(n_rx=st.integers(1, 3), n_tx=st.integers(1, 3), seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_frequency_response_matches_fft_of_taps(self, n_rx, n_tx, seed):
        rng = np.random.default_rng(seed)
        taps = random_taps(n_rx, n_tx, rng, n_channels=2, n_taps=4)
        response = frequency_response_batch(taps, np.arange(64))
        manual = np.fft.fft(
            np.concatenate([taps, np.zeros((2, 60, n_rx, n_tx))], axis=1), axis=1
        )
        assert np.allclose(response, manual, atol=1e-10)


class TestApplyChannel:
    """The tests' time-domain channel (:func:`helpers.apply_channel`)."""

    def test_apply_is_convolution(self, rng):
        channel = MultipathChannel.random(1, 1, rng, n_taps=3)
        impulse = np.zeros((1, 10), dtype=complex)
        impulse[0, 0] = 1.0
        out = apply_channel(channel, impulse)
        assert np.allclose(out[0, :3], channel.taps[:, 0, 0])
        assert np.allclose(out[0, 3:], 0)

    def test_apply_preserves_length(self, rng):
        channel = MultipathChannel.random(2, 2, rng, n_taps=4)
        samples = rng.standard_normal((2, 500)) + 1j * rng.standard_normal((2, 500))
        assert apply_channel(channel, samples).shape == (2, 500)

    def test_apply_rejects_wrong_antenna_count(self, rng):
        channel = MultipathChannel.random(2, 2, rng)
        with pytest.raises(DimensionError):
            apply_channel(channel, np.zeros((3, 10)))

    def test_single_tap_apply_is_matrix_multiplication(self, rng):
        matrix = np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
        samples = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
        received = apply_channel(MultipathChannel(taps=matrix[None]), samples)
        assert np.allclose(received, matrix @ samples)

    def test_single_antenna_vector_input(self, rng):
        channel = MultipathChannel(taps=np.array([[[0.5 + 0.5j]]]))
        samples = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        received = apply_channel(channel, samples)
        assert np.allclose(received[0], 0.5 * (1 + 1j) * samples)


class TestFrequencyResponseAtBins:
    """The grouped contract's at-bins DFT against the 64-point FFT path."""

    # 16 is the default tracked-bin count; asking for 64 tracks every
    # data bin of the OFDM layout.
    @pytest.mark.parametrize("n_subcarriers", [16, 64])
    @pytest.mark.parametrize("n_taps", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_rx", [1, 2, 3])
    @pytest.mark.parametrize("n_tx", [1, 2, 3])
    def test_matches_fft_at_the_tracked_bins(self, n_rx, n_tx, n_taps, n_subcarriers):
        rng = np.random.default_rng(100 * n_rx + 10 * n_tx + n_taps)
        taps = random_taps(n_rx, n_tx, rng, n_channels=7, n_taps=n_taps, average_gain=2.5)
        bins = _subcarrier_bins(n_subcarriers)
        response = frequency_response_at_bins_batch(taps, dft_twiddle(bins, n_taps))
        assert response.shape == (7, bins.size, n_rx, n_tx)
        assert response.flags.c_contiguous
        expected = frequency_response_batch(taps, bins)
        np.testing.assert_allclose(response, expected, rtol=1e-12, atol=0)

    def test_empty_stack(self):
        bins = _subcarrier_bins(16)
        empty = np.zeros((0, 4, 2, 3), dtype=complex)
        response = frequency_response_at_bins_batch(empty, dft_twiddle(bins, 4))
        assert response.shape == (0, 16, 2, 3)
        assert response.flags.c_contiguous

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            frequency_response_at_bins_batch(
                np.zeros((4, 2, 3), complex), dft_twiddle([1, 2], 4)
            )
        with pytest.raises(DimensionError):
            dft_twiddle([[1, 2]], 4)
