"""Tests for the payload-bit helper and the bit-error test tools."""

import numpy as np
import pytest

from helpers import bit_error_rate, bit_errors
from repro.exceptions import DimensionError
from repro.utils.bits import random_bits


class TestBitErrors:
    def test_counts_differences(self):
        a = np.array([0, 1, 1, 0], dtype=np.int8)
        b = np.array([0, 0, 1, 1], dtype=np.int8)
        assert bit_errors(a, b) == 2
        assert bit_error_rate(a, b) == pytest.approx(0.5)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(DimensionError):
            bit_errors(np.zeros(3, dtype=np.int8), np.zeros(4, dtype=np.int8))

    def test_empty_arrays(self):
        assert bit_error_rate(np.array([]), np.array([])) == 0.0

    def test_random_bits_are_binary(self, rng):
        bits = random_bits(1000, rng)
        assert set(np.unique(bits)).issubset({0, 1})

    def test_random_bits_follow_the_seed(self):
        bits = random_bits(64, np.random.default_rng(3))
        assert bits.shape == (64,) and bits.dtype == np.int8
        assert np.array_equal(bits, random_bits(64, np.random.default_rng(3)))
