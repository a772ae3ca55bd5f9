"""Tests for dB conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.db import db_to_linear, linear_to_db, signal_power


class TestConversions:
    def test_known_values(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(-10.0) == pytest.approx(0.1)
        assert linear_to_db(100.0) == pytest.approx(20.0)

    def test_zero_power_is_clamped(self):
        assert linear_to_db(0.0) < -200
        assert np.isfinite(linear_to_db(0.0))

    def test_negative_power_is_clamped(self):
        assert np.isfinite(linear_to_db(-5.0))

    def test_array_input(self):
        values = np.array([1.0, 10.0, 100.0])
        assert np.allclose(linear_to_db(values), [0.0, 10.0, 20.0])

    @given(st.floats(min_value=-100, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db, abs=1e-9)


class TestSignalPower:
    def test_unit_tone(self):
        samples = np.exp(1j * np.linspace(0, 10, 1000))
        assert signal_power(samples) == pytest.approx(1.0, rel=1e-6)

    def test_empty_signal(self):
        assert signal_power(np.array([])) == 0.0
