"""Tests for least-squares MIMO channel estimation."""

import numpy as np
import pytest

from helpers import apply_channel
from oracles.channel import MultipathChannel
from oracles.phy import (
    estimate_channel_from_ltf,
    estimate_mimo_channel_reference,
    long_training_field,
    per_antenna_samples,
)
from repro.channel.models import awgn
from repro.exceptions import DimensionError
from repro.phy.preamble import Preamble


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

    def test_batched_estimator_matches_the_per_slot_form(self, rng):
        preamble = Preamble(n_antennas=1)
        received = awgn(
            (0.4 + 0.9j) * per_antenna_samples(preamble), 0.05, rng
        )
        start, end = preamble.ltf_slot_bounds(0)
        expected = estimate_channel_from_ltf(received[0, start:end])
        estimate = estimate_mimo_channel_reference(received, preamble)
        assert np.array_equal(estimate.matrices[:, 0, 0], expected)


class TestMimoEstimation:
    @pytest.mark.parametrize("n_tx,n_rx", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2)])
    def test_flat_mimo_channel_recovered(self, n_tx, n_rx, rng):
        preamble = Preamble(n_antennas=n_tx)
        tx_samples = per_antenna_samples(preamble)
        channel = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
        received = channel @ tx_samples
        estimate = estimate_mimo_channel_reference(received, preamble)
        assert estimate.matrices.shape[1:] == (n_rx, n_tx)
        for k in estimate.valid_bins:
            assert np.allclose(estimate.matrices[k], channel, atol=1e-6)

    def test_frequency_selective_channel_matches_response(self, rng):
        preamble = Preamble(n_antennas=2)
        tx_samples = per_antenna_samples(preamble)
        channel = MultipathChannel.random(2, 2, rng, n_taps=4)
        received = apply_channel(channel, tx_samples)
        estimate = estimate_mimo_channel_reference(received, preamble)
        response = channel.frequency_response(64)
        # The LTF slots start after the STF, so the convolution transient has
        # passed for every slot except possibly the first few samples; the
        # estimate should match the true response closely on valid bins.
        errors = []
        for k in estimate.valid_bins:
            errors.append(np.max(np.abs(estimate.matrices[k] - response[k])))
        assert np.median(errors) < 0.15

    def test_noise_floor_limits_accuracy(self, rng):
        preamble = Preamble(n_antennas=1)
        tx_samples = per_antenna_samples(preamble)
        channel = np.array([[2.0 + 1.0j]])
        received = awgn(channel @ tx_samples, 0.05, rng)
        estimate = estimate_mimo_channel_reference(received, preamble)
        errors = [abs(estimate.matrices[k][0, 0] - channel[0, 0]) for k in estimate.valid_bins]
        assert np.mean(errors) < 0.3

    def test_average_matrix(self, rng):
        preamble = Preamble(n_antennas=2)
        channel = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        received = channel @ per_antenna_samples(preamble)
        estimate = estimate_mimo_channel_reference(received, preamble)
        averaged = estimate.matrices[estimate.valid_bins].mean(axis=0)
        assert np.allclose(averaged, channel, atol=1e-6)

    def test_short_capture_raises(self, rng):
        preamble = Preamble(n_antennas=2)
        with pytest.raises(DimensionError):
            estimate_mimo_channel_reference(np.zeros((2, 100), dtype=complex), preamble)

    def test_preamble_offset_honoured(self, rng):
        preamble = Preamble(n_antennas=1)
        channel = np.array([[1.5 - 0.5j]])
        clean = channel @ per_antenna_samples(preamble)
        padded = np.concatenate([np.zeros((1, 37), dtype=complex), clean], axis=1)
        estimate = estimate_mimo_channel_reference(padded, preamble, preamble_start=37)
        for k in estimate.valid_bins[:5]:
            assert np.allclose(estimate.matrices[k], channel, atol=1e-6)
