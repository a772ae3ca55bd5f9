"""Tests for hardware impairments and reciprocity modelling."""

import numpy as np
import pytest

from helpers import custom_pairs_scenario
from repro.channel.hardware import HardwareProfile
from repro.sim.network import Network
from repro.utils.db import linear_to_db


class TestHardwareProfile:
    def test_residual_interference_suppression_amount(self):
        profile = HardwareProfile(nulling_suppression_db=27.0, alignment_suppression_db=25.0)
        interference = 100.0
        nulled = profile.residual_interference_power_batch(interference, aligned=False)
        aligned = profile.residual_interference_power_batch(interference, aligned=True)
        assert linear_to_db(interference / nulled) == pytest.approx(27.0, abs=1e-9)
        assert linear_to_db(interference / aligned) == pytest.approx(25.0, abs=1e-9)

    def test_alignment_leaves_more_residual_than_nulling(self):
        profile = HardwareProfile()
        interference = 50.0
        assert profile.residual_interference_power_batch(
            interference, aligned=True
        ) > profile.residual_interference_power_batch(interference, aligned=False)

    def test_randomised_suppression_has_spread(self, rng):
        profile = HardwareProfile()
        values = profile.residual_interference_power_batch(
            np.full(200, 10.0),
            aligned=False,
            suppression_jitter_db=profile.draw_suppression_jitter(rng, size=200),
        )
        assert np.std(linear_to_db(values)) > 0.5

    def test_jitter_vector_draw_matches_scalar_draws(self):
        profile = HardwareProfile()
        batched = profile.draw_suppression_jitter(np.random.default_rng(4), size=(3, 2))
        rng = np.random.default_rng(4)
        scalar = [[profile.draw_suppression_jitter(rng) for _ in range(2)] for _ in range(3)]
        assert np.array_equal(batched, np.array(scalar))

    def test_perturb_channel_error_level(self, rng):
        profile = HardwareProfile(channel_estimation_error_db=-30.0)
        channel = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        errors = []
        for _ in range(300):
            estimate = profile.perturb_channel(channel, rng)
            errors.append(np.mean(np.abs(estimate - channel) ** 2))
        error_db = linear_to_db(np.mean(errors) / np.mean(np.abs(channel) ** 2))
        assert error_db == pytest.approx(-30.0, abs=1.5)

    def test_reciprocity_estimates_are_noisier(self, rng):
        profile = HardwareProfile()
        channel = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        direct = np.mean(
            [
                np.mean(np.abs(profile.perturb_channel(channel, rng) - channel) ** 2)
                for _ in range(300)
            ]
        )
        reciprocal = np.mean(
            [
                np.mean(
                    np.abs(profile.perturb_channel(channel, rng, reciprocity=True) - channel) ** 2
                )
                for _ in range(300)
            ]
        )
        assert reciprocal > direct

    def test_estimation_error_variance_scales_with_channel_power(self, rng):
        profile = HardwareProfile(channel_estimation_error_db=-20.0)
        channel = np.full((200, 200), np.sqrt(10.0), dtype=complex)
        error = profile.perturb_channel(channel, rng) - channel
        assert np.mean(np.abs(error) ** 2) == pytest.approx(0.1, rel=0.05)


def _two_by_three_network():
    """Pairs of 2 and 3 antennas: node 0 has 2 antennas, node 3 has 3."""
    scenario = custom_pairs_scenario([2, 3])
    return Network(scenario.stations, scenario.pairs, np.random.default_rng(7), n_subcarriers=8)


class TestReciprocity:
    def test_ideal_reverse_is_transpose(self):
        network = _two_by_three_network()
        a, b = 0, 3
        forward = network.true_channel(a, b)
        reverse = network.true_channel(b, a)
        assert reverse.shape == (forward.shape[0], forward.shape[2], forward.shape[1])
        assert np.array_equal(reverse, forward.transpose(0, 2, 1))

    def test_calibrated_reverse_is_close_to_transpose(self):
        network = _two_by_three_network()
        a, b = 0, 3
        forward = network.true_channel(a, b)
        estimate = network.estimated_channel(b, a, reciprocity=True)
        relative_error = np.linalg.norm(estimate - forward.transpose(0, 2, 1)) / np.linalg.norm(
            forward
        )
        assert 0.0 < relative_error < 0.2

    def test_calibration_quality_parameter(self, rng):
        forward = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
        reverse = forward.transpose(0, 2, 1)

        def error(profile, reciprocity):
            estimate = profile.perturb_channel(reverse, np.random.default_rng(1), reciprocity)
            return np.linalg.norm(estimate - reverse)

        coarse = HardwareProfile(reciprocity_error_db=-10.0)
        fine = HardwareProfile(reciprocity_error_db=-40.0)
        assert error(fine, True) < error(coarse, True)
        # Same draws, so the errors scale exactly with the combined error
        # power; the calibration penalty applies only to reverse estimates.
        direct = error(coarse, False)
        expected_ratio = np.sqrt(1.0 + 10 ** ((-10.0 - coarse.channel_estimation_error_db) / 10))
        assert error(coarse, True) / direct == pytest.approx(expected_ratio)
        assert error(fine, False) == pytest.approx(direct)
