"""Property tests for the ESNR mappings (repro.phy.esnr).

Four families of properties:

* :func:`~repro.phy.esnr.esnr_db` is monotone under per-subcarrier SNR
  increases (and exact on flat channels);
* :func:`~repro.phy.esnr.select_mcs` is consistent with the per-MCS
  thresholds at +/-epsilon around every boundary;
* the ordering between the uncoded-BER-averaging ESNR (the
  :func:`oracles.phy.esnr_ber_average` oracle) and the mutual-information
  ESNR is pinned: both are bounded by the best
  subcarrier, they coincide on flat channels, and a deep fade drags the
  BER average (far) below the MI average -- the worst-subcarrier
  domination that motivated switching rate selection to the MI mapping;
* the per-MCS thresholds sit where the code can still correct the
  uncoded errors of the oracle's AWGN BER curves.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.phy import bit_error_probability, esnr_ber_average
from repro.phy.esnr import delivery_margin_db, esnr_db, packet_delivery_probability, select_mcs
from repro.phy.rates import MCS_TABLE


class TestMutualInformationEsnr:
    def test_flat_channel_is_exact(self):
        for snr in (-5.0, 0.0, 7.5, 22.0, 40.0):
            assert esnr_db(np.full(16, snr)) == pytest.approx(snr, abs=1e-9)

    def test_monotone_under_single_subcarrier_increase(self, rng):
        for _ in range(50):
            snrs = rng.uniform(-5.0, 35.0, size=int(rng.integers(2, 17)))
            base = esnr_db(snrs)
            bumped = snrs.copy()
            index = int(rng.integers(0, snrs.size))
            bumped[index] += float(rng.uniform(0.1, 10.0))
            assert esnr_db(bumped) > base

    def test_monotone_under_uniform_increase(self, rng):
        for _ in range(20):
            snrs = rng.uniform(-5.0, 35.0, size=8)
            assert esnr_db(snrs + 3.0) > esnr_db(snrs)

    def test_bounded_by_best_and_worst_subcarrier(self, rng):
        for _ in range(50):
            snrs = rng.uniform(-5.0, 35.0, size=8)
            esnr = esnr_db(snrs)
            assert float(np.min(snrs)) - 1e-9 <= esnr <= float(np.max(snrs)) + 1e-9

    def test_empty_channel_is_minus_infinity(self):
        assert esnr_db([]) == -np.inf


class TestSelectMcsBoundaries:
    """select_mcs at +/-epsilon around every per-MCS threshold.

    On a flat channel the ESNR equals the SNR exactly, so a flat channel
    epsilon above a threshold must satisfy exactly the MCS at (and below)
    that threshold, and epsilon below must not satisfy it.
    """

    EPSILON = 0.1

    def test_just_above_each_threshold_selects_that_mcs(self):
        for mcs in MCS_TABLE:
            flat = np.full(8, mcs.min_esnr_db + self.EPSILON)
            assert select_mcs(flat).index == mcs.index

    def test_just_below_each_threshold_selects_the_previous_mcs(self):
        for mcs in MCS_TABLE:
            flat = np.full(8, mcs.min_esnr_db - self.EPSILON)
            selected = select_mcs(flat)
            if mcs.index == 0:
                # Nothing qualifies below the first threshold; the most
                # robust MCS is the documented fallback.
                assert selected.index == 0
            else:
                assert selected.index == mcs.index - 1

    def test_margin_shifts_the_boundary(self):
        for mcs in MCS_TABLE[1:]:
            flat = np.full(8, mcs.min_esnr_db + self.EPSILON)
            assert select_mcs(flat, margin_db=1.0).index == mcs.index - 1
            assert select_mcs(flat, margin_db=-1.0).index >= mcs.index

    def test_thresholds_are_strictly_increasing(self):
        thresholds = [mcs.min_esnr_db for mcs in MCS_TABLE]
        assert thresholds == sorted(thresholds)
        assert len(set(thresholds)) == len(thresholds)


class TestEsnrOrderingPinned:
    """The esnr_ber_average oracle vs esnr_db, pinned."""

    def test_flat_channels_coincide(self):
        for mcs in MCS_TABLE:
            # Within the informative range of the BER curve inversion.
            flat = np.full(8, mcs.min_esnr_db - 2.0)
            ber = esnr_ber_average(flat, mcs.modulation)
            mi = esnr_db(flat)
            assert ber == pytest.approx(mi, abs=0.05)

    def test_both_bounded_by_the_best_subcarrier(self, rng):
        for mcs in MCS_TABLE:
            for _ in range(20):
                snrs = rng.uniform(-5.0, 35.0, size=8)
                best = float(np.max(snrs))
                assert esnr_ber_average(snrs, mcs.modulation) <= best + 1e-6
                assert esnr_db(snrs) <= best + 1e-9

    def test_deep_fade_drags_the_ber_average_below(self):
        # One faded subcarrier dominates the BER average but barely
        # moves the MI average -- the asymmetry that makes the BER
        # variant a poor predictor for coded systems.
        for mcs in MCS_TABLE:
            snrs = np.full(8, 25.0)
            snrs[0] = 0.0
            ber = esnr_ber_average(snrs, mcs.modulation)
            mi = esnr_db(snrs)
            assert ber < mi
            assert mi - ber > 3.0  # far below, not marginally

    def test_ber_average_saturates_to_the_best_subcarrier(self):
        # Once every subcarrier's uncoded BER underflows, the BER-domain
        # average carries no information and the mapping pins to the best
        # subcarrier -- above the MI average by construction.  This is
        # the one regime where the usual ordering flips, documented here.
        snrs = np.array([38.0, 40.0, 42.0, 44.0])
        modulation = MCS_TABLE[0].modulation  # BPSK: deepest underflow
        ber = esnr_ber_average(snrs, modulation)
        mi = esnr_db(snrs)
        assert ber == pytest.approx(float(np.max(snrs)), abs=1e-6)
        assert ber > mi


class TestThresholdsAgainstUncodedBer:
    """Where the per-MCS ESNR thresholds sit on the AWGN BER curves of
    the :mod:`oracles.phy` oracle: the code must be able to clean up the
    uncoded errors left at the threshold, and a weaker (punctured) code
    gets a threshold with fewer uncoded errors than the rate-1/2 mother
    code on the same constellation."""

    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=lambda mcs: f"mcs{mcs.index}")
    def test_threshold_leaves_correctable_uncoded_errors(self, mcs):
        # Hard-decision Viterbi decoding of the K=7 code stops cleaning up
        # near a 4% channel bit error rate at rate 1/2; punctured rates
        # tolerate far less.
        ber = bit_error_probability(mcs.modulation, mcs.min_esnr_db)
        limit = 0.04 if mcs.coding_rate == (1, 2) else 0.01
        assert 1e-4 < ber < limit

    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk", "16qam", "64qam"])
    def test_stronger_code_tolerates_more_uncoded_errors(self, modulation):
        schemes = [mcs for mcs in MCS_TABLE if mcs.modulation_name == modulation]
        assert len(schemes) == 2
        robust, fast = sorted(schemes, key=lambda mcs: mcs.coding_rate[0] / mcs.coding_rate[1])
        assert bit_error_probability(robust.modulation, robust.min_esnr_db) > (
            bit_error_probability(fast.modulation, fast.min_esnr_db)
        )


class TestDeliveryMargin:
    def test_margin_matches_the_logistic_centre(self, rng):
        # p(delivery) crosses 0.5 exactly where the margin crosses 0 --
        # the shared-centre contract the fidelity band relies on.
        for mcs in MCS_TABLE:
            centre = mcs.min_esnr_db - 2.5
            just_above = np.full(8, centre + 0.2)
            just_below = np.full(8, centre - 0.2)
            assert delivery_margin_db(just_above, mcs) > 0
            assert delivery_margin_db(just_below, mcs) < 0
            assert packet_delivery_probability(just_above, mcs, 1000) > 0.5
            assert packet_delivery_probability(just_below, mcs, 1000) < 0.5

    def test_margin_is_probability_monotone(self, rng):
        mcs = MCS_TABLE[4]
        snrs = [rng.uniform(mcs.min_esnr_db - 8, mcs.min_esnr_db + 8, size=8) for _ in range(20)]
        margins = [delivery_margin_db(s, mcs) for s in snrs]
        probabilities = [packet_delivery_probability(s, mcs, 12_000) for s in snrs]
        order = np.argsort(margins)
        assert list(np.array(probabilities)[order]) == sorted(probabilities)
