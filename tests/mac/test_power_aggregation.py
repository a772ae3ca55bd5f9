"""Tests for the L-threshold rule and fragmentation/aggregation."""

import numpy as np
import pytest

from repro.constants import INTERFERENCE_ADMISSION_THRESHOLD_DB
from repro.mac.aggregation import airtime_for_bits, bits_in_airtime
from repro.mac.power_control import admission_power_scale, interference_power_db
from repro.phy.rates import MCS_TABLE
from repro.utils.db import db_to_linear


class TestInterferencePower:
    def test_known_channel(self):
        channel = np.full((1, 2), np.sqrt(10.0), dtype=complex)
        assert interference_power_db(channel, noise_power=1.0) == pytest.approx(10.0, abs=0.01)

    def test_scales_with_tx_power(self, rng):
        channel = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        full = interference_power_db(channel, tx_power=1.0)
        reduced = interference_power_db(channel, tx_power=0.1)
        assert full - reduced == pytest.approx(10.0, abs=1e-6)

    def test_per_subcarrier_channel_averaged(self, rng):
        channel = rng.standard_normal((16, 2, 3)) + 1j * rng.standard_normal((16, 2, 3))
        value = interference_power_db(channel)
        assert np.isfinite(value)


class TestAdmission:
    def test_below_threshold_keeps_full_power(self):
        assert admission_power_scale([10.0, 20.0]) == 1.0
        assert admission_power_scale([26.9]) == 1.0

    def test_above_threshold_scales_down(self):
        scale = admission_power_scale([INTERFERENCE_ADMISSION_THRESHOLD_DB + 6.0])
        assert scale == pytest.approx(db_to_linear(-6.0))

    def test_worst_receiver_governs(self):
        scale = admission_power_scale([10.0, INTERFERENCE_ADMISSION_THRESHOLD_DB + 3.0])
        assert scale == pytest.approx(db_to_linear(-3.0))

    def test_no_receivers_means_full_power(self):
        assert admission_power_scale([]) == 1.0

    def test_custom_threshold(self):
        assert admission_power_scale([25.0], threshold_db=20.0) == pytest.approx(
            db_to_linear(-5.0)
        )


class TestAirtime:
    def test_bits_in_airtime_rounds_down_to_symbols(self):
        mcs = MCS_TABLE[0]  # 24 data bits per 8 us symbol
        assert bits_in_airtime(mcs, 8.0) == 24
        assert bits_in_airtime(mcs, 15.9) == 24
        assert bits_in_airtime(mcs, 16.0) == 48

    def test_bits_in_airtime_scales_with_streams(self):
        mcs = MCS_TABLE[4]
        assert bits_in_airtime(mcs, 80.0, n_streams=2) == 2 * bits_in_airtime(mcs, 80.0)

    def test_zero_airtime(self):
        assert bits_in_airtime(MCS_TABLE[3], 0.0) == 0

    def test_negative_airtime_carries_no_bits(self):
        assert bits_in_airtime(MCS_TABLE[3], -8.0) == 0

    def test_roundtrip_with_airtime_for_bits(self):
        mcs = MCS_TABLE[5]
        bits = 12000
        airtime = airtime_for_bits(mcs, bits)
        assert bits_in_airtime(mcs, airtime) >= bits
