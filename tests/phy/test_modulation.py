"""Tests for constellation mapping and demapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.phy import bit_error_probability, symbol_error_probability
from repro.exceptions import ConfigurationError, DimensionError
from repro.phy.modulation import MODULATIONS, get_modulation
from repro.utils.bits import random_bits


class TestConstellations:
    @pytest.mark.parametrize("name", ["bpsk", "qpsk", "16qam", "64qam"])
    def test_unit_average_energy(self, name):
        modulation = get_modulation(name)
        energy = np.mean(np.abs(modulation.points) ** 2)
        assert energy == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("name,expected", [("bpsk", 1), ("qpsk", 2), ("16qam", 4), ("64qam", 6)])
    def test_bits_per_symbol(self, name, expected):
        assert get_modulation(name).bits_per_symbol == expected

    @pytest.mark.parametrize("name", ["bpsk", "qpsk", "16qam", "64qam"])
    def test_points_are_distinct(self, name):
        points = get_modulation(name).points
        distances = np.abs(points[:, None] - points[None, :])
        np.fill_diagonal(distances, np.inf)
        assert distances.min() > 1e-6

    def test_gray_mapping_neighbours_differ_by_one_bit(self):
        """Adjacent QAM points along one axis must differ in exactly one bit."""
        modulation = get_modulation("16qam")
        points = modulation.points
        # Find, for each point, its nearest neighbours and check Hamming distance.
        labels = np.arange(len(points))
        for label in labels:
            distances = np.abs(points - points[label])
            distances[label] = np.inf
            nearest = np.argmin(distances)
            hamming = bin(label ^ int(nearest)).count("1")
            assert hamming == 1

    def test_aliases(self):
        assert get_modulation("4qam") is get_modulation("qpsk")
        assert get_modulation("QAM64") is get_modulation("64qam")

    def test_unknown_modulation_raises(self):
        with pytest.raises(ConfigurationError):
            get_modulation("1024qam")


class TestMapping:
    @pytest.mark.parametrize("name", list(MODULATIONS))
    def test_hard_decision_roundtrip(self, name, rng):
        modulation = get_modulation(name)
        bits = random_bits(modulation.bits_per_symbol * 100, rng)
        symbols = modulation.modulate(bits)
        assert symbols.shape == (100,)
        recovered = modulation.demodulate_hard(symbols)
        assert np.array_equal(recovered, bits)

    @pytest.mark.parametrize("name", list(MODULATIONS))
    def test_roundtrip_with_small_noise(self, name, rng):
        modulation = get_modulation(name)
        bits = random_bits(modulation.bits_per_symbol * 200, rng)
        symbols = modulation.modulate(bits)
        noisy = symbols + 0.01 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        assert np.array_equal(modulation.demodulate_hard(noisy), bits)

    def test_wrong_bit_count_raises(self, rng):
        with pytest.raises(DimensionError):
            get_modulation("16qam").modulate(random_bits(5, rng))

    @given(seed=st.integers(0, 1000), name=st.sampled_from(["bpsk", "qpsk", "16qam", "64qam"]))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed, name):
        rng = np.random.default_rng(seed)
        modulation = get_modulation(name)
        bits = random_bits(modulation.bits_per_symbol * 16, rng)
        assert np.array_equal(modulation.demodulate_hard(modulation.modulate(bits)), bits)


class TestErrorProbabilities:
    """The AWGN error curves of the BER-averaging ESNR oracle."""

    def test_ber_decreases_with_snr(self):
        modulation = get_modulation("16qam")
        bers = [bit_error_probability(modulation, snr) for snr in (0, 10, 20, 30)]
        assert all(b1 > b2 for b1, b2 in zip(bers, bers[1:]))

    def test_higher_order_modulations_need_more_snr(self):
        snr = 12.0
        assert bit_error_probability(get_modulation("bpsk"), snr) < bit_error_probability(
            get_modulation("64qam"), snr
        )

    def test_probability_is_bounded(self):
        for name in MODULATIONS:
            modulation = get_modulation(name)
            assert 0 <= symbol_error_probability(modulation, -20) <= 1
            assert 0 <= symbol_error_probability(modulation, 40) <= 1
