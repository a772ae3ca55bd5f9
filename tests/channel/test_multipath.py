"""Tests for the tapped-delay-line multipath channel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_channel, random_taps
from repro.channel.multipath import (
    MultipathChannel,
    dft_twiddle,
    exponential_power_delay_profile,
    frequency_response_at_bins_batch,
    frequency_response_batch,
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


class TestMultipathChannel:
    def test_random_channel_shapes(self, rng):
        channel = MultipathChannel.random(3, 2, rng, n_taps=4)
        assert channel.n_taps == 4
        assert channel.n_rx == 3
        assert channel.n_tx == 2

    def test_taps_cannot_exceed_cyclic_prefix(self, rng):
        with pytest.raises(ConfigurationError):
            MultipathChannel.random(1, 1, rng, n_taps=17)

    def test_average_gain_controls_power(self, rng):
        gains = []
        for seed in range(300):
            channel = MultipathChannel.random(2, 2, np.random.default_rng(seed), average_gain=10.0)
            gains.append(np.sum(np.abs(channel.taps) ** 2, axis=0).mean())
        assert np.mean(gains) == pytest.approx(10.0, rel=0.15)

    def test_each_tap_carries_its_profile_share(self):
        profile = exponential_power_delay_profile(4)
        powers = np.mean(
            [
                np.abs(MultipathChannel.random(2, 2, np.random.default_rng(seed)).taps) ** 2
                for seed in range(400)
            ],
            axis=(0, 2, 3),
        )
        assert np.allclose(powers, profile, rtol=0.2)

    def test_single_tap_channel_averages_to_its_matrix(self):
        matrix = np.array([[1.0, 2.0]])
        channel = MultipathChannel(taps=matrix[None])
        assert channel.n_taps == 1
        assert np.allclose(channel.frequency_response().mean(axis=0), matrix)

    def test_taps_must_be_a_stack_of_matrices(self):
        with pytest.raises(DimensionError):
            MultipathChannel(taps=np.zeros(3))

    def test_frequency_response_shape(self, rng):
        channel = MultipathChannel.random(2, 3, rng, n_taps=3)
        response = channel.frequency_response(64)
        assert response.shape == (64, 2, 3)

    def test_single_tap_channel_has_flat_response(self, rng):
        matrix = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        response = MultipathChannel(taps=matrix[None]).frequency_response(16)
        for k in range(16):
            assert np.allclose(response[k], matrix)

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

    def test_parseval_consistency(self, rng):
        """Average frequency-domain power equals total tap power."""
        channel = MultipathChannel.random(1, 1, rng, n_taps=5)
        response = channel.frequency_response(64)[:, 0, 0]
        tap_power = np.sum(np.abs(channel.taps[:, 0, 0]) ** 2)
        assert np.mean(np.abs(response) ** 2) == pytest.approx(tap_power, rel=1e-6)

    @given(n_rx=st.integers(1, 3), n_tx=st.integers(1, 3), seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_frequency_response_matches_fft_of_taps(self, n_rx, n_tx, seed):
        rng = np.random.default_rng(seed)
        channel = MultipathChannel.random(n_rx, n_tx, rng, n_taps=4)
        response = channel.frequency_response(64)
        manual = np.fft.fft(
            np.concatenate([channel.taps, np.zeros((60, n_rx, n_tx))], axis=0), axis=0
        )
        assert np.allclose(response, manual, atol=1e-10)


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
