"""Tests for effective SNR and bitrate selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.esnr import (
    esnr_db,
    esnr_ber_average,
    esnr_for_modulation,
    packet_delivery_probability,
    per_subcarrier_snr_db,
    select_mcs,
)
from repro.phy.modulation import get_modulation
from repro.phy.rates import MCS_TABLE


class TestPerSubcarrierSnr:
    def test_flat_channel(self):
        gains = np.ones(48, dtype=complex)
        snrs = per_subcarrier_snr_db(gains, noise_power=0.01)
        assert np.allclose(snrs, 20.0)

    def test_scales_with_signal_power(self):
        gains = np.ones(4, dtype=complex)
        low = per_subcarrier_snr_db(gains, 1.0, signal_power=1.0)
        high = per_subcarrier_snr_db(gains, 1.0, signal_power=10.0)
        assert np.allclose(high - low, 10.0)

    def test_faded_subcarrier_has_lower_snr(self):
        gains = np.array([1.0, 0.1], dtype=complex)
        snrs = per_subcarrier_snr_db(gains, 0.01)
        assert snrs[0] > snrs[1]


class TestEffectiveSnr:
    def test_flat_channel_esnr_equals_snr(self):
        snrs = [15.0] * 48
        assert esnr_db(snrs) == pytest.approx(15.0, abs=0.1)

    def test_esnr_between_min_and_max(self, rng):
        snrs = rng.uniform(5, 25, size=48)
        esnr = esnr_db(snrs)
        assert snrs.min() - 1e-6 <= esnr <= snrs.max() + 1e-6

    def test_one_faded_subcarrier_is_not_catastrophic(self):
        """With coding, one bad subcarrier should not collapse the ESNR."""
        snrs = [20.0] * 47 + [-10.0]
        esnr = esnr_for_modulation(snrs, get_modulation("16qam"))
        assert esnr > 15.0

    def test_ber_average_is_more_pessimistic(self):
        snrs = [20.0] * 47 + [-10.0]
        modulation = get_modulation("16qam")
        assert esnr_ber_average(snrs, modulation) < esnr_for_modulation(snrs, modulation)

    def test_empty_input(self):
        assert esnr_db([]) == -np.inf

    def test_monotonic_in_every_subcarrier(self, rng):
        base = rng.uniform(5, 20, size=16)
        improved = base.copy()
        improved[3] += 6.0
        modulation = get_modulation("qpsk")
        assert esnr_for_modulation(improved, modulation) > esnr_for_modulation(base, modulation)

    @given(offset=st.floats(min_value=-5, max_value=5), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance_approximately(self, offset, seed):
        """Raising every subcarrier by X dB raises the ESNR by about X dB."""
        rng = np.random.default_rng(seed)
        snrs = rng.uniform(8, 20, size=32)
        modulation = get_modulation("qpsk")
        base = esnr_for_modulation(snrs, modulation)
        shifted = esnr_for_modulation(snrs + offset, modulation)
        assert shifted - base == pytest.approx(offset, abs=1.5)


class TestRateSelection:
    def test_high_snr_selects_fastest(self):
        assert select_mcs([35.0] * 48).index == len(MCS_TABLE) - 1

    def test_low_snr_selects_most_robust(self):
        assert select_mcs([0.0] * 48).index == 0

    def test_selection_is_monotonic_in_snr(self):
        indices = [select_mcs([snr] * 48).index for snr in range(0, 36, 2)]
        assert all(i1 <= i2 for i1, i2 in zip(indices, indices[1:]))

    def test_margin_makes_selection_conservative(self):
        snrs = [13.0] * 48
        assert select_mcs(snrs, margin_db=0.0).index >= select_mcs(snrs, margin_db=3.0).index

    def test_selected_rate_threshold_is_met(self):
        snrs = [17.5] * 48
        mcs = select_mcs(snrs)
        assert esnr_for_modulation(snrs, mcs.modulation) >= mcs.min_esnr_db


class TestDeliveryProbability:
    def test_high_margin_delivers(self):
        mcs = MCS_TABLE[3]
        prob = packet_delivery_probability([mcs.min_esnr_db + 10] * 48, mcs, 12000)
        assert prob > 0.99

    def test_far_below_threshold_fails(self):
        mcs = MCS_TABLE[5]
        prob = packet_delivery_probability([mcs.min_esnr_db - 8] * 48, mcs, 12000)
        assert prob < 0.05

    def test_at_threshold_is_likely_delivered(self):
        mcs = MCS_TABLE[2]
        prob = packet_delivery_probability([mcs.min_esnr_db] * 48, mcs, 12000)
        assert prob > 0.8

    def test_probability_monotonic_in_snr(self):
        mcs = MCS_TABLE[4]
        probs = [
            packet_delivery_probability([mcs.min_esnr_db + delta] * 16, mcs, 12000)
            for delta in (-6, -3, 0, 3, 6)
        ]
        assert all(p1 <= p2 for p1, p2 in zip(probs, probs[1:]))

    def test_longer_packets_are_harder(self):
        mcs = MCS_TABLE[4]
        snrs = [mcs.min_esnr_db + 1] * 16
        assert packet_delivery_probability(snrs, mcs, 48_000) <= packet_delivery_probability(
            snrs, mcs, 12_000
        )

    def test_probability_is_in_unit_interval(self, rng):
        mcs = MCS_TABLE[6]
        for _ in range(20):
            snrs = rng.uniform(-5, 35, size=16)
            prob = packet_delivery_probability(snrs, mcs, 12000)
            assert 0.0 <= prob <= 1.0
