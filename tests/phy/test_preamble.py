"""Tests for training fields and preamble correlation."""

import numpy as np
import pytest

from oracles.phy import long_training_field, long_training_symbol, per_antenna_samples
from repro.constants import SHORT_TRAINING_SYMBOL_LENGTH
from repro.exceptions import DimensionError
from repro.phy.preamble import Preamble, cross_correlate, short_training_field


class TestTrainingFields:
    def test_stf_is_periodic(self):
        stf = short_training_field()
        period = SHORT_TRAINING_SYMBOL_LENGTH
        assert len(stf) == 160
        assert np.allclose(stf[:period], stf[period : 2 * period], atol=1e-10)

    def test_stf_has_unit_scale_power(self):
        stf = short_training_field()
        assert np.mean(np.abs(stf) ** 2) > 0

    def test_ltf_length(self):
        assert len(long_training_symbol()) == 80
        assert len(long_training_field()) == 160

    def test_ltf_repeats(self):
        field = long_training_field()
        assert np.allclose(field[:80], field[80:], atol=1e-12)


class TestMimoPreamble:
    @pytest.mark.parametrize("n_antennas", [1, 2, 3, 4])
    def test_length_scales_with_antennas(self, n_antennas):
        preamble = Preamble(n_antennas=n_antennas)
        assert preamble.length == 160 + n_antennas * 160

    def test_ltf_slots_are_time_orthogonal(self):
        preamble = Preamble(n_antennas=3)
        samples = per_antenna_samples(preamble)
        for antenna in range(3):
            start, end = preamble.ltf_slot_bounds(antenna)
            for other in range(3):
                slot = samples[other, start:end]
                if other == antenna:
                    assert np.linalg.norm(slot) > 0
                else:
                    assert np.allclose(slot, 0)

    def test_all_antennas_share_the_stf(self):
        preamble = Preamble(n_antennas=2)
        samples = per_antenna_samples(preamble)
        assert np.linalg.norm(samples[0, :160]) > 0
        assert np.linalg.norm(samples[1, :160]) > 0

    def test_invalid_antenna_index(self):
        with pytest.raises(DimensionError):
            Preamble(n_antennas=2).ltf_slot_bounds(5)

    def test_zero_antennas_rejected(self):
        with pytest.raises(DimensionError):
            Preamble(n_antennas=0)


class TestCrossCorrelation:
    def test_detects_template_in_noise(self, rng):
        stf = short_training_field()
        noise = 0.05 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        signal = noise.copy()
        signal[300 : 300 + len(stf)] += stf
        correlation = cross_correlate(signal, stf)
        assert int(np.argmax(correlation)) == 300
        assert correlation[300] > 0.9

    def test_no_template_gives_low_correlation(self, rng):
        stf = short_training_field()
        noise = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        assert cross_correlate(noise, stf).max() < 0.5

    def test_correlation_is_normalised(self, rng):
        stf = short_training_field()
        signal = np.concatenate([np.zeros(50), 5.0 * stf, np.zeros(50)])
        assert cross_correlate(signal, stf).max() == pytest.approx(1.0, abs=1e-6)

    def test_short_signal_returns_empty(self):
        stf = short_training_field()
        assert cross_correlate(np.zeros(10, dtype=complex), stf).size == 0

    def test_empty_template_raises(self):
        with pytest.raises(DimensionError):
            cross_correlate(np.zeros(100, dtype=complex), np.zeros(0, dtype=complex))

    def test_phase_rotation_does_not_hurt_correlation(self, rng):
        """Correlation magnitude must be invariant to a carrier phase."""
        stf = short_training_field()
        rotated = stf * np.exp(1j * 1.3)
        assert cross_correlate(rotated, stf).max() == pytest.approx(1.0, abs=1e-6)
