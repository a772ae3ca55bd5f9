"""Tests for the MCS table."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.phy.rates import MCS_TABLE, data_rate_mbps, mcs_by_index


class TestMcsTable:
    def test_table_has_eight_entries(self):
        assert len(MCS_TABLE) == 8

    def test_indices_are_consecutive(self):
        assert [m.index for m in MCS_TABLE] == list(range(8))

    def test_rates_increase_with_index(self):
        rates = [m.data_rate_mbps() for m in MCS_TABLE]
        assert all(r1 < r2 for r1, r2 in zip(rates, rates[1:]))

    def test_esnr_thresholds_increase_with_index(self):
        thresholds = [m.min_esnr_db for m in MCS_TABLE]
        assert all(t1 < t2 for t1, t2 in zip(thresholds, thresholds[1:]))

    def test_10mhz_rates_are_half_of_20mhz(self):
        for mcs in MCS_TABLE:
            assert mcs.data_rate_mbps(10.0) == pytest.approx(mcs.data_rate_mbps(20.0) / 2)

    def test_standard_802_11a_rates_at_20mhz(self):
        """The 20 MHz rate set must be the familiar 6..54 Mb/s ladder."""
        expected = [6, 9, 12, 18, 24, 36, 48, 54]
        for mcs, rate in zip(MCS_TABLE, expected):
            assert mcs.data_rate_mbps(20.0) == pytest.approx(rate)

    def test_streams_scale_rate_linearly(self):
        mcs = mcs_by_index(4)
        assert mcs.data_rate_mbps(n_streams=3) == pytest.approx(3 * mcs.data_rate_mbps())

    def test_table_runs_from_most_robust_to_fastest(self):
        assert MCS_TABLE[0].index == 0
        assert MCS_TABLE[-1].index == len(MCS_TABLE) - 1
        assert MCS_TABLE[0].min_esnr_db < MCS_TABLE[-1].min_esnr_db

    def test_bad_index_raises(self):
        with pytest.raises(ConfigurationError):
            mcs_by_index(99)

    def test_data_rate_helper(self):
        assert data_rate_mbps(0, 20.0) == pytest.approx(6.0)


class TestAirtime:
    def test_airtime_rounds_up_to_whole_symbols(self):
        mcs = mcs_by_index(0)  # 24 data bits per 8 us symbol at 10 MHz
        assert mcs.airtime_us(1) == pytest.approx(8.0)
        assert mcs.airtime_us(24) == pytest.approx(8.0)
        assert mcs.airtime_us(25) == pytest.approx(16.0)

    def test_airtime_zero_bits(self):
        assert mcs_by_index(3).airtime_us(0) == 0.0

    def test_airtime_scales_with_packet_size(self):
        mcs = mcs_by_index(7)
        assert mcs.airtime_us(24000) == pytest.approx(2 * mcs.airtime_us(12000), rel=0.01)

    def test_airtime_decreases_with_streams(self):
        mcs = mcs_by_index(4)
        assert mcs.airtime_us(12000, n_streams=3) < mcs.airtime_us(12000, n_streams=1)

    def test_1500_byte_packet_at_18mbps_reference(self):
        """The paper's reference point: 1500 bytes at 18 Mb/s (10 MHz)."""
        mcs = mcs_by_index(5)  # 16-QAM 3/4 = 18 Mb/s on 10 MHz
        airtime_ms = mcs.airtime_us(1500 * 8) / 1000
        assert airtime_ms == pytest.approx(0.667, rel=0.02)

    def test_coded_bits_per_symbol(self):
        assert mcs_by_index(0).coded_bits_per_ofdm_symbol == 48
        assert mcs_by_index(7).coded_bits_per_ofdm_symbol == 288

    def test_data_bits_per_symbol_accounts_for_code_rate(self):
        assert mcs_by_index(0).data_bits_per_ofdm_symbol == pytest.approx(24)
        assert mcs_by_index(7).data_bits_per_ofdm_symbol == pytest.approx(216)
