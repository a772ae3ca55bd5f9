"""Tests for elementary channel models."""

import numpy as np
import pytest

from repro.channel.models import awgn, complex_gaussian
from repro.exceptions import ConfigurationError


class TestComplexGaussian:
    def test_variance_matches_request(self, rng):
        samples = complex_gaussian(100_000, rng, variance=4.0)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(4.0, rel=0.05)

    def test_zero_variance(self, rng):
        assert np.allclose(complex_gaussian(10, rng, 0.0), 0)

    def test_negative_variance_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            complex_gaussian(10, rng, -1.0)

    def test_matrix_shape(self, rng):
        """A flat Rayleigh MIMO channel is one ``(n_rx, n_tx)`` draw."""
        assert complex_gaussian((3, 2), rng).shape == (3, 2)

    def test_circular_symmetry(self, rng):
        samples = complex_gaussian(100_000, rng)
        assert abs(np.mean(samples.real)) < 0.02
        assert abs(np.mean(samples.imag)) < 0.02
        assert np.var(samples.real) == pytest.approx(np.var(samples.imag), rel=0.05)


class TestAwgn:
    def test_noise_power(self, rng):
        clean = np.zeros(50_000, dtype=complex)
        noisy = awgn(clean, 0.5, rng)
        assert np.mean(np.abs(noisy) ** 2) == pytest.approx(0.5, rel=0.05)

    def test_signal_preserved_in_mean(self, rng):
        clean = np.ones(50_000, dtype=complex)
        noisy = awgn(clean, 0.1, rng)
        assert np.mean(noisy).real == pytest.approx(1.0, abs=0.02)

