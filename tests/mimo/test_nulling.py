"""Tests for interference nulling (Claim 3.3 and the §2 examples).

Nulling at a receiver makes its channel ``H`` the joiner's constraint
rows; the pre-coding kernel takes a stack of them (one per subcarrier),
so one flat channel is a one-element stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.mimo import two_antenna_nulling_weight
from repro.exceptions import PrecodingError
from repro.mimo.precoder import compute_precoders_batch


def _random_channel(rng, n_rx, n_tx):
    return rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))


def nulling_precoders(channels, n_tx_antennas, n_streams=None):
    """``(M, n_streams)`` pre-coders nulling at every listed receiver."""
    rows = np.concatenate(channels, axis=0)[None]
    return compute_precoders_batch(n_tx_antennas, rows, n_streams=n_streams)[0][0].T


def _leak_power(channel, precoders):
    """Interference power ``sum ||H v_i||^2`` the pre-coders leave at a receiver."""
    return float(np.sum(np.abs(channel @ precoders) ** 2))


class TestTwoAntennaExample:
    def test_alpha_cancels_signal(self, rng):
        """§2: tx2 sends q on antenna 1 and alpha*q on antenna 2; the sum at
        rx1 must vanish."""
        h21, h31 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha = two_antenna_nulling_weight(h21, h31)
        for q in (1.0, -0.3 + 0.7j, 2.2j):
            assert abs(h21 * q + h31 * alpha * q) < 1e-12

    def test_zero_channel_rejected(self):
        with pytest.raises(PrecodingError):
            two_antenna_nulling_weight(1.0, 0.0)

    def test_nulling_precoder_is_the_alpha_weighting(self, rng):
        """The null-space solver picks the §2 direction ``(1, alpha)``."""
        h21, h31 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = nulling_precoders([np.array([[h21, h31]])], 2)[:, 0]
        alpha = two_antenna_nulling_weight(h21, h31)
        assert v[1] / v[0] == pytest.approx(alpha, rel=1e-9)


class TestNullingPrecoders:
    def test_single_receiver_null(self, rng):
        h = _random_channel(rng, 1, 2)
        precoders = nulling_precoders([h], 2)
        assert precoders.shape == (2, 1)
        assert np.allclose(h @ precoders, 0, atol=1e-10)

    def test_multiple_receivers(self, rng):
        h1 = _random_channel(rng, 1, 4)
        h2 = _random_channel(rng, 2, 4)
        precoders = nulling_precoders([h1, h2], 4)
        assert precoders.shape == (4, 1)
        assert np.allclose(h1 @ precoders, 0, atol=1e-10)
        assert np.allclose(h2 @ precoders, 0, atol=1e-10)

    def test_precoders_are_unit_norm(self, rng):
        precoders = nulling_precoders([_random_channel(rng, 1, 3)], 3)
        assert np.allclose(np.linalg.norm(precoders, axis=0), 1.0)

    def test_number_of_streams_matches_claim_3_2(self, rng):
        h = _random_channel(rng, 2, 4)
        precoders = nulling_precoders([h], 4)
        assert precoders.shape[1] == 2

    def test_requesting_too_many_streams_fails(self, rng):
        h = _random_channel(rng, 2, 3)
        with pytest.raises(PrecodingError):
            nulling_precoders([h], 3, n_streams=2)

    def test_nulling_at_every_antenna_is_impossible(self, rng):
        """Eq. 2 of the paper: a 3-antenna transmitter cannot null at three
        receive antennas and still transmit."""
        h1 = _random_channel(rng, 1, 3)
        h2 = _random_channel(rng, 2, 3)
        with pytest.raises(PrecodingError):
            nulling_precoders([h1, h2], 3)

    def test_streams_are_mutually_orthogonal(self, rng):
        h = _random_channel(rng, 1, 4)
        precoders = nulling_precoders([h], 4)
        gram = precoders.conj().T @ precoders
        assert np.allclose(gram, np.eye(precoders.shape[1]), atol=1e-10)

    def test_residual_interference_is_zero_for_exact_channel(self, rng):
        h = _random_channel(rng, 1, 2)
        precoders = nulling_precoders([h], 2)
        assert _leak_power(h, precoders) < 1e-20

    def test_residual_interference_with_estimation_error(self, rng):
        """Nulling on a noisy estimate leaves residual power roughly at the
        estimation error level, which is what limits nulling in practice."""
        h_true = _random_channel(rng, 1, 2)
        error = 0.01 * _random_channel(rng, 1, 2)
        precoders = nulling_precoders([h_true + error], 2)
        residual = _leak_power(h_true, precoders)
        full_power = _leak_power(h_true, np.array([[1.0], [0.0]]))
        assert residual < full_power * 1e-2
        assert residual > 0

    @given(n_tx=st.integers(2, 5), n_null=st.integers(1, 3), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_null_space_dimension_property(self, n_tx, n_null, seed):
        if n_null >= n_tx:
            return
        rng = np.random.default_rng(seed)
        h = _random_channel(rng, n_null, n_tx)
        precoders = nulling_precoders([h], n_tx)
        assert precoders.shape == (n_tx, n_tx - n_null)
        assert np.allclose(h @ precoders, 0, atol=1e-8)
