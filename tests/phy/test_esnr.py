"""Tests for effective SNR and bitrate selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.phy import esnr_ber_average
from repro.constants import DELIVERY_STEEPNESS_DB, DELIVERY_THRESHOLD_OFFSET_DB
from repro.phy.esnr import (
    delivery_margin_db,
    esnr_db,
    mcs_for_esnr,
    packet_delivery_probability,
    select_mcs,
)
from repro.phy.modulation import get_modulation
from repro.phy.rates import MCS_TABLE


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
        assert esnr_db(snrs) > 15.0

    def test_ber_average_is_more_pessimistic(self):
        snrs = [20.0] * 47 + [-10.0]
        assert esnr_ber_average(snrs, get_modulation("16qam")) < esnr_db(snrs)

    def test_empty_input(self):
        assert esnr_db([]) == -np.inf

    def test_monotonic_in_every_subcarrier(self, rng):
        base = rng.uniform(5, 20, size=16)
        improved = base.copy()
        improved[3] += 6.0
        assert esnr_db(improved) > esnr_db(base)

    @given(offset=st.floats(min_value=-5, max_value=5), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance_approximately(self, offset, seed):
        """Raising every subcarrier by X dB raises the ESNR by about X dB."""
        rng = np.random.default_rng(seed)
        snrs = rng.uniform(8, 20, size=32)
        base = esnr_db(snrs)
        shifted = esnr_db(snrs + offset)
        assert shifted - base == pytest.approx(offset, abs=1.5)

    @given(snrs=st.lists(st.floats(min_value=-20.0, max_value=40.0), min_size=1, max_size=48))
    @settings(max_examples=100, deadline=None)
    def test_is_the_geometric_mean_of_one_plus_snr(self, snrs):
        """Averaging log2(1 + SNR) is a geometric mean of (1 + SNR)."""
        linear = np.power(10.0, np.asarray(snrs) / 10.0)
        expected = np.exp(np.mean(np.log1p(linear))) - 1.0
        assert 10.0 ** (esnr_db(snrs) / 10.0) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @given(
        snrs=st.lists(st.floats(min_value=-20.0, max_value=40.0), min_size=1, max_size=48),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_order_of_subcarriers_is_irrelevant(self, snrs, seed):
        shuffled = np.random.default_rng(seed).permutation(snrs)
        assert esnr_db(shuffled) == pytest.approx(esnr_db(snrs), abs=1e-9)

    def test_accepts_any_iterable_of_snrs(self):
        snrs = [3.0, 11.0, 17.5, 24.0]
        expected = esnr_db(snrs)
        assert esnr_db(tuple(snrs)) == expected
        assert esnr_db(np.asarray(snrs)) == expected
        assert esnr_db(snr for snr in snrs) == expected

    def test_an_array_a_list_and_a_tuple_give_identical_bits(self, rng):
        array = rng.uniform(-5.0, 35.0, size=48)
        values = [esnr_db(array), esnr_db(array.tolist()), esnr_db(tuple(array))]
        assert len({np.float64(v).tobytes() for v in values}) == 1

    def test_dead_subcarriers_floor_the_esnr(self):
        assert esnr_db([-np.inf] * 4) == pytest.approx(-120.0)
        one_dead = esnr_db([20.0] * 47 + [-np.inf])
        assert np.isfinite(one_dead)
        assert 19.0 < one_dead < 20.0


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
        assert esnr_db(snrs) >= mcs.min_esnr_db

    @given(
        snrs=st.lists(st.floats(min_value=-10.0, max_value=45.0), min_size=1, max_size=48),
        margin=st.floats(min_value=-4.0, max_value=8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_selects_the_fastest_mcs_that_qualifies(self, snrs, margin):
        esnr = esnr_db(snrs)
        qualifying = [mcs for mcs in MCS_TABLE if mcs.min_esnr_db + margin <= esnr]
        expected = (
            max(qualifying, key=lambda mcs: mcs.data_rate_mbps()) if qualifying else MCS_TABLE[0]
        )
        assert select_mcs(snrs, margin_db=margin) == expected
        assert mcs_for_esnr(esnr, margin) == expected


class TestMcsForEsnr:
    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=lambda mcs: f"mcs{mcs.index}")
    def test_threshold_is_inclusive(self, mcs):
        assert mcs_for_esnr(mcs.min_esnr_db) == mcs
        assert mcs_for_esnr(mcs.min_esnr_db + 2.0, margin_db=2.0) == mcs

    def test_unusable_esnr_gives_the_most_robust_entry(self):
        assert mcs_for_esnr(-np.inf) == MCS_TABLE[0]
        assert mcs_for_esnr(float("nan")) == MCS_TABLE[0]
        assert select_mcs([]) == MCS_TABLE[0]


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

    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=lambda mcs: f"mcs{mcs.index}")
    def test_at_threshold_every_mcs_sits_on_the_same_logistic_point(self, mcs):
        # The logistic is centred 2.5 dB below each threshold, with 1 dB
        # steepness: delivery at the threshold is 1 / (1 + e^-2.5) ~ 0.92.
        prob = packet_delivery_probability([mcs.min_esnr_db] * 16, mcs, 12_000)
        assert prob == pytest.approx(1.0 / (1.0 + np.exp(-2.5)))

    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=lambda mcs: f"mcs{mcs.index}")
    def test_the_cliff_is_centred_and_scaled_by_the_two_constants(self, mcs):
        centre = mcs.min_esnr_db - DELIVERY_THRESHOLD_OFFSET_DB
        assert delivery_margin_db([centre] * 16, mcs) == pytest.approx(0.0, abs=1e-9)
        assert packet_delivery_probability([centre] * 16, mcs, 12_000) == pytest.approx(0.5)
        one_step = [centre + DELIVERY_STEEPNESS_DB] * 16
        assert packet_delivery_probability(one_step, mcs, 12_000) == pytest.approx(
            1.0 / (1.0 + np.exp(-1.0))
        )

    def test_packets_up_to_12000_bits_share_one_probability(self):
        mcs = MCS_TABLE[4]
        snrs = [mcs.min_esnr_db - 1.0] * 16
        reference = packet_delivery_probability(snrs, mcs, 12_000)
        for bits in (1, 800, 11_999):
            assert packet_delivery_probability(snrs, mcs, bits) == reference

    def test_probability_is_in_unit_interval(self, rng):
        mcs = MCS_TABLE[6]
        for _ in range(20):
            snrs = rng.uniform(-5, 35, size=16)
            prob = packet_delivery_probability(snrs, mcs, 12000)
            assert 0.0 <= prob <= 1.0
