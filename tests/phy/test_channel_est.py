"""Tests for least-squares MIMO channel estimation."""

import numpy as np
import pytest

from oracles.phy import estimate_mimo_channel_reference
from repro.channel.models import awgn
from repro.channel.multipath import MultipathChannel
from repro.exceptions import DimensionError
from repro.phy.channel_est import estimate_channel_from_ltf, estimate_mimo_channel
from repro.phy.ofdm import OfdmConfig
from repro.phy.preamble import Preamble, long_training_field


class TestSisoEstimation:
    def test_flat_channel_recovered_exactly(self, rng):
        gain = 0.8 - 0.3j
        received = gain * long_training_field()
        estimate = estimate_channel_from_ltf(received)
        occupied = np.abs(estimate) > 0
        assert np.allclose(estimate[occupied], gain, atol=1e-9)

    def test_estimate_improves_with_clean_signal(self, rng):
        gain = 1.0 + 0.5j
        clean = gain * long_training_field()
        noisy = awgn(clean, 0.01, rng)
        clean_est = estimate_channel_from_ltf(clean)
        noisy_est = estimate_channel_from_ltf(noisy)
        occupied = np.abs(clean_est) > 0
        clean_error = np.mean(np.abs(clean_est[occupied] - gain) ** 2)
        noisy_error = np.mean(np.abs(noisy_est[occupied] - gain) ** 2)
        assert clean_error < noisy_error


class TestMimoEstimation:
    @pytest.mark.parametrize("n_tx,n_rx", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2)])
    def test_flat_mimo_channel_recovered(self, n_tx, n_rx, rng):
        preamble = Preamble(n_antennas=n_tx)
        tx_samples = preamble.per_antenna_samples()
        channel = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
        received = channel @ tx_samples
        estimate = estimate_mimo_channel(received, preamble)
        assert estimate.n_rx == n_rx and estimate.n_tx == n_tx
        for k in estimate.valid_bins:
            assert np.allclose(estimate.at(k), channel, atol=1e-6)

    def test_frequency_selective_channel_matches_response(self, rng):
        preamble = Preamble(n_antennas=2)
        tx_samples = preamble.per_antenna_samples()
        channel = MultipathChannel.random(2, 2, rng, n_taps=4)
        received = channel.apply(tx_samples)
        estimate = estimate_mimo_channel(received, preamble)
        response = channel.frequency_response(64)
        # The LTF slots start after the STF, so the convolution transient has
        # passed for every slot except possibly the first few samples; the
        # estimate should match the true response closely on valid bins.
        errors = []
        for k in estimate.valid_bins:
            errors.append(np.max(np.abs(estimate.at(k) - response[k])))
        assert np.median(errors) < 0.15

    def test_noise_floor_limits_accuracy(self, rng):
        preamble = Preamble(n_antennas=1)
        tx_samples = preamble.per_antenna_samples()
        channel = np.array([[2.0 + 1.0j]])
        received = awgn(channel @ tx_samples, 0.05, rng)
        estimate = estimate_mimo_channel(received, preamble)
        errors = [abs(estimate.at(k)[0, 0] - channel[0, 0]) for k in estimate.valid_bins]
        assert np.mean(errors) < 0.3

    def test_average_matrix(self, rng):
        preamble = Preamble(n_antennas=2)
        channel = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        received = channel @ preamble.per_antenna_samples()
        estimate = estimate_mimo_channel(received, preamble)
        assert np.allclose(estimate.average_matrix(), channel, atol=1e-6)

    def test_short_capture_raises(self, rng):
        preamble = Preamble(n_antennas=2)
        with pytest.raises(DimensionError):
            estimate_mimo_channel(np.zeros((2, 100), dtype=complex), preamble)

    def test_preamble_offset_honoured(self, rng):
        preamble = Preamble(n_antennas=1)
        channel = np.array([[1.5 - 0.5j]])
        clean = channel @ preamble.per_antenna_samples()
        padded = np.concatenate([np.zeros((1, 37), dtype=complex), clean], axis=1)
        estimate = estimate_mimo_channel(padded, preamble, preamble_start=37)
        for k in estimate.valid_bins[:5]:
            assert np.allclose(estimate.at(k), channel, atol=1e-6)


class TestBatchedEstimationEquivalence:
    """The stacked all-antenna-pair estimator vs the kept per-pair loop."""

    @pytest.mark.parametrize("n_tx,n_rx", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2)])
    def test_bit_identical_to_reference(self, n_tx, n_rx, rng):
        preamble = Preamble(n_antennas=n_tx)
        tx_samples = preamble.per_antenna_samples()
        channel = MultipathChannel.random(n_rx, n_tx, rng, n_taps=4)
        received = awgn(channel.apply(tx_samples), 0.02, rng)
        fast = estimate_mimo_channel(received, preamble)
        reference = estimate_mimo_channel_reference(received, preamble)
        assert np.array_equal(fast.matrices, reference.matrices)
        assert np.array_equal(fast.valid_bins, reference.valid_bins)

    def test_bit_identical_with_preamble_offset(self, rng):
        preamble = Preamble(n_antennas=3)
        tx_samples = preamble.per_antenna_samples()
        channel = MultipathChannel.random(2, 3, rng, n_taps=3)
        clean = channel.apply(tx_samples)
        padded = np.concatenate([np.zeros((2, 41), dtype=complex), clean], axis=1)
        fast = estimate_mimo_channel(padded, preamble, preamble_start=41)
        reference = estimate_mimo_channel_reference(padded, preamble, preamble_start=41)
        assert np.array_equal(fast.matrices, reference.matrices)

    def test_bit_identical_for_1d_input(self, rng):
        preamble = Preamble(n_antennas=1)
        received = (0.7 + 0.2j) * preamble.per_antenna_samples()[0]
        fast = estimate_mimo_channel(received, preamble)
        reference = estimate_mimo_channel_reference(received, preamble)
        assert np.array_equal(fast.matrices, reference.matrices)

    def test_short_capture_raises_like_reference(self):
        preamble = Preamble(n_antennas=2)
        with pytest.raises(DimensionError):
            estimate_mimo_channel(np.zeros((2, 100), dtype=complex), preamble)
        with pytest.raises(DimensionError):
            estimate_mimo_channel_reference(np.zeros((2, 100), dtype=complex), preamble)
