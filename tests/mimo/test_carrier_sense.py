"""Tests for multi-dimensional carrier sense (§3.2)."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.mimo.carrier_sense import MultiDimensionalCarrierSense

#: Projected power above which an 802.11 energy detector declares busy.
ENERGY_THRESHOLD_DB = -10.0


def _random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _signal_along(direction, n_samples, rng, scale=1.0):
    symbols = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    return scale * np.outer(direction, symbols)


class TestProjection:
    def test_idle_sensor_has_full_dof(self):
        sensor = MultiDimensionalCarrierSense(3)
        assert sensor.projection_basis().shape[1] == 3
        assert np.allclose(sensor.projection_basis(), np.eye(3))

    def test_each_ongoing_stream_consumes_one_dof(self, rng):
        sensor = MultiDimensionalCarrierSense(3)
        sensor.add_ongoing(_random_vector(rng, 3))
        assert sensor.projection_basis().shape[1] == 2
        sensor.add_ongoing(_random_vector(rng, 3))
        assert sensor.projection_basis().shape[1] == 1

    def test_projection_basis_is_orthonormal_and_orthogonal_to_ongoing(self, rng):
        sensor = MultiDimensionalCarrierSense(4)
        ongoing = [_random_vector(rng, 4) for _ in range(2)]
        for direction in ongoing:
            sensor.add_ongoing(direction)
        basis = sensor.projection_basis()
        assert np.allclose(basis.conj().T @ basis, np.eye(2))
        for direction in ongoing:
            assert np.allclose(basis.conj().T @ direction, 0.0)

    def test_duplicate_direction_counted_once(self, rng):
        sensor = MultiDimensionalCarrierSense(3)
        direction = _random_vector(rng, 3)
        sensor.add_ongoing(direction)
        sensor.add_ongoing(direction * 2.0)
        assert sensor.projection_basis().shape[1] == 2

    def test_projection_annihilates_ongoing_signal(self, rng):
        sensor = MultiDimensionalCarrierSense(3)
        direction = _random_vector(rng, 3)
        sensor.add_ongoing(direction)
        signal = _signal_along(direction, 200, rng, scale=10.0)
        projected = sensor.project(signal)
        assert projected.shape == (2, 200)
        assert np.max(np.abs(projected)) < 1e-10

    def test_projection_preserves_new_signal(self, rng):
        sensor = MultiDimensionalCarrierSense(3)
        ongoing = _random_vector(rng, 3)
        sensor.add_ongoing(ongoing)
        new_direction = _random_vector(rng, 3)
        new_signal = _signal_along(new_direction, 200, rng)
        projected = sensor.project(new_signal)
        assert np.mean(np.abs(projected) ** 2) > 0.01

    def test_wrong_dimension_rejected(self, rng):
        sensor = MultiDimensionalCarrierSense(3)
        with pytest.raises(DimensionError):
            sensor.add_ongoing(_random_vector(rng, 2))
        with pytest.raises(DimensionError):
            sensor.project(np.zeros((2, 10)))


class TestSensing:
    def test_sees_idle_when_only_ongoing_transmissions_present(self, rng):
        """The paper's key point: after projection, the ongoing signal looks
        like an idle medium even though the raw power is high."""
        sensor = MultiDimensionalCarrierSense(3)
        direction = _random_vector(rng, 3)
        sensor.add_ongoing(direction)
        signal = _signal_along(direction, 500, rng, scale=10.0)
        noise = 1e-3 * (rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500)))
        assert sensor.sense_power_db(signal + noise) < ENERGY_THRESHOLD_DB
        # Without projection the energy detector would scream "busy".
        raw_power_db = 10 * np.log10(np.mean(np.abs(signal) ** 2))
        assert raw_power_db > ENERGY_THRESHOLD_DB

    def test_detects_new_transmission_energy(self, rng):
        sensor = MultiDimensionalCarrierSense(3)
        ongoing = _random_vector(rng, 3)
        sensor.add_ongoing(ongoing)
        new_direction = _random_vector(rng, 3)
        signal = _signal_along(ongoing, 500, rng, scale=10.0) + _signal_along(
            new_direction, 500, rng, scale=1.0
        )
        assert sensor.sense_power_db(signal) > ENERGY_THRESHOLD_DB

    def test_full_house_leaves_no_sensing_dimension(self, rng):
        sensor = MultiDimensionalCarrierSense(2)
        sensor.add_ongoing(_random_vector(rng, 2))
        sensor.add_ongoing(_random_vector(rng, 2))
        assert sensor.projection_basis().shape[1] == 0
        projected = sensor.project(np.ones((2, 10), dtype=complex))
        assert projected.shape == (0, 10)
