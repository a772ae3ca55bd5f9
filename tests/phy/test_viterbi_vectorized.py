"""Bit-exact equivalence of the vectorized Viterbi decoder against the
readable per-state oracle decoder, across hard, soft, punctured
and erasure inputs."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.phy import viterbi_decode_reference
from repro.phy.coding.convolutional import (
    ConvolutionalEncoder,
    default_encoder,
)
from repro.phy.coding.puncturing import depuncture, puncture
from repro.phy.coding.viterbi import viterbi_decode

RATES = [(1, 2), (2, 3), (3, 4)]


def _flip(coded: np.ndarray, rng: np.random.Generator, p: float) -> np.ndarray:
    noisy = coded.astype(float).copy()
    flips = rng.random(noisy.size) < p
    noisy[flips] = 1.0 - noisy[flips]
    return noisy


class TestHardEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_frames_with_bit_errors(self, rng_factory, seed):
        rng = rng_factory(seed)
        n = int(rng.integers(1, 600))
        bits = rng.integers(0, 2, n).astype(np.int8)
        noisy = _flip(default_encoder().encode(bits), rng, 0.04)
        fast = viterbi_decode(noisy, n)
        slow = viterbi_decode_reference(noisy, n)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("rate", RATES)
    def test_punctured_frames_with_erasures(self, rng, rate):
        n = 240
        bits = rng.integers(0, 2, n).astype(np.int8)
        mother = default_encoder().encode(bits)
        received = _flip(puncture(mother, rate), rng, 0.02)
        depunctured = depuncture(received, rate, mother.size)
        assert np.isnan(depunctured).any() or rate == (1, 2)
        fast = viterbi_decode(depunctured, n)
        slow = viterbi_decode_reference(depunctured, n)
        assert np.array_equal(fast, slow)

    def test_unterminated_frames(self, rng):
        bits = rng.integers(0, 2, 120).astype(np.int8)
        coded = _flip(default_encoder().encode(bits, terminate=False), rng, 0.03)
        fast = viterbi_decode(coded, 120, terminated=False)
        slow = viterbi_decode_reference(coded, 120, terminated=False)
        assert np.array_equal(fast, slow)

    def test_clean_frame_decodes_exactly(self, rng):
        bits = rng.integers(0, 2, 333).astype(np.int8)
        decoded = viterbi_decode(default_encoder().encode(bits).astype(float), 333)
        assert np.array_equal(decoded, bits)


class TestSoftEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_llr_frames(self, rng_factory, seed):
        rng = rng_factory(100 + seed)
        n = int(rng.integers(1, 500))
        bits = rng.integers(0, 2, n).astype(np.int8)
        coded = default_encoder().encode(bits)
        llrs = (1.0 - 2.0 * coded) * 3.0 + rng.normal(0.0, 1.5, coded.size)
        fast = viterbi_decode(llrs, n, soft=True)
        slow = viterbi_decode_reference(llrs, n, soft=True)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("rate", RATES)
    def test_punctured_llrs_with_erasures(self, rng, rate):
        n = 180
        bits = rng.integers(0, 2, n).astype(np.int8)
        mother = default_encoder().encode(bits)
        kept = puncture(mother, rate)
        llrs = (1.0 - 2.0 * kept) * 2.0 + rng.normal(0.0, 2.0, kept.size)
        depunctured = depuncture(llrs, rate, mother.size)
        fast = viterbi_decode(depunctured, n, soft=True)
        slow = viterbi_decode_reference(depunctured, n, soft=True)
        assert np.array_equal(fast, slow)

    def test_erasures_contribute_zero_metric(self, rng):
        # A frame whose erased positions carry huge LLRs must decode the
        # same as one where they carry zeros: erasures are fully masked.
        n = 100
        bits = rng.integers(0, 2, n).astype(np.int8)
        mother = default_encoder().encode(bits)
        kept = puncture(mother, (3, 4))
        llrs = (1.0 - 2.0 * kept) * 2.0 + rng.normal(0.0, 1.0, kept.size)
        depunctured = depuncture(llrs, (3, 4), mother.size)
        assert np.isnan(depunctured).any()
        reference = viterbi_decode(depunctured, n, soft=True)
        poisoned = np.where(np.isnan(depunctured), 1e9, depunctured)
        erased_as_nan = np.where(np.isnan(depunctured), np.nan, poisoned)
        assert np.array_equal(viterbi_decode(erased_as_nan, n, soft=True), reference)


class TestCustomEncoders:
    def test_non_default_polynomials(self, rng):
        encoder = ConvolutionalEncoder(g0=0o5, g1=0o7, constraint_length=3)
        bits = rng.integers(0, 2, 80).astype(np.int8)
        noisy = _flip(encoder.encode(bits), rng, 0.05)
        fast = viterbi_decode(noisy, 80, encoder=encoder)
        slow = viterbi_decode_reference(noisy, 80, encoder=encoder)
        assert np.array_equal(fast, slow)

    def test_trellis_tables_are_cached_and_shared(self):
        first = ConvolutionalEncoder()
        second = ConvolutionalEncoder()
        next_a, out_a = first.transitions()
        next_b, out_b = second.transitions()
        assert next_a is next_b
        assert out_a is out_b
        assert not next_a.flags.writeable

    def test_predecessor_tables_invert_transitions(self):
        encoder = default_encoder()
        next_state, _ = encoder.transitions()
        prev_states, prev_bits = encoder.predecessors()
        for state in range(encoder.n_states):
            for j in range(2):
                assert next_state[prev_states[state, j], prev_bits[state, j]] == state
