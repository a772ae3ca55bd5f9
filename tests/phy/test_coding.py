"""Tests for the FEC pipeline: scrambler, convolutional code, Viterbi,
puncturing, interleaver and the combined codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bit_error_rate
from repro.exceptions import ConfigurationError, DimensionError
from repro.phy.coding.codec import Codec
from repro.phy.coding.convolutional import ConvolutionalEncoder, default_encoder
from repro.phy.coding.interleaver import deinterleave, interleave
from repro.phy.coding.puncturing import PUNCTURE_PATTERNS, depuncture, puncture, punctured_length
from repro.phy.coding.scrambler import descramble, scramble, scrambler_sequence
from repro.phy.coding.viterbi import viterbi_decode
from repro.phy.rates import MCS_TABLE
from repro.utils.bits import random_bits


class TestScrambler:
    def test_scramble_is_involution(self, rng):
        bits = random_bits(500, rng)
        assert np.array_equal(descramble(scramble(bits)), bits)

    def test_sequence_period_is_127(self):
        sequence = scrambler_sequence(254)
        assert np.array_equal(sequence[:127], sequence[127:254])

    def test_sequence_is_balanced(self):
        sequence = scrambler_sequence(127)
        assert abs(int(np.sum(sequence)) - 64) <= 1

    @pytest.mark.parametrize("length", [0, 5, 127, 128, 3000])
    def test_sequence_matches_bit_by_bit_lfsr(self, length):
        # The register starts all ones; x^7 + x^4 + 1 is primitive, so
        # 127 bits or more walk every non-zero register state.
        state = 0x7F
        expected = []
        for _ in range(length):
            feedback = ((state >> 6) ^ (state >> 3)) & 1
            expected.append(feedback)
            state = ((state << 1) | feedback) & 0x7F
        sequence = scrambler_sequence(length)
        assert sequence.dtype == np.int8
        assert sequence.tolist() == expected

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            scrambler_sequence(-1)


class TestConvolutionalEncoder:
    @pytest.mark.parametrize("n_bits", [0, 1, 100])
    @pytest.mark.parametrize("terminate", [True, False])
    def test_rate_is_one_half(self, rng, n_bits, terminate):
        bits = random_bits(n_bits, rng)
        coded = default_encoder().encode(bits, terminate=terminate)
        tail = ConvolutionalEncoder().tail_bits if terminate else 0
        assert coded.dtype == np.int8
        assert coded.size == 2 * (bits.size + tail)

    def test_known_vector(self):
        """The 802.11 encoder output for an impulse is its generator pair."""
        encoder = ConvolutionalEncoder()
        coded = encoder.encode(np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.int8), terminate=False)
        # First coded pair of a leading one is (1, 1) for g0=133, g1=171.
        assert coded[0] == 1 and coded[1] == 1

    def test_linear_code_property(self, rng):
        """The code is linear: encode(a xor b) = encode(a) xor encode(b)."""
        encoder = ConvolutionalEncoder()
        a = random_bits(64, rng)
        b = random_bits(64, rng)
        coded_sum = encoder.encode((a ^ b).astype(np.int8), terminate=False)
        sum_coded = encoder.encode(a, terminate=False) ^ encoder.encode(b, terminate=False)
        assert np.array_equal(coded_sum, sum_coded)

    def test_transitions_tables_shapes(self):
        encoder = ConvolutionalEncoder()
        prev_states, prev_bits = encoder.predecessors()
        assert prev_states.shape == (64, 2)
        assert prev_bits.shape == (64, 2)
        assert prev_states.max() < 64
        assert encoder.incoming_metrics().shape == (16, 2, 2, 32)

    def test_bad_constraint_length(self):
        with pytest.raises(ConfigurationError):
            ConvolutionalEncoder(constraint_length=1)


class TestViterbi:
    def test_decodes_clean_stream(self, rng):
        bits = random_bits(200, rng)
        decoded = viterbi_decode(default_encoder().encode(bits).astype(float), bits.size)
        assert np.array_equal(decoded, bits)

    def test_corrects_scattered_errors(self, rng):
        bits = random_bits(300, rng)
        coded = default_encoder().encode(bits).astype(float)
        corrupted = coded.copy()
        error_positions = rng.choice(coded.size, size=12, replace=False)
        corrupted[error_positions] = 1 - corrupted[error_positions]
        decoded = viterbi_decode(corrupted, bits.size)
        assert bit_error_rate(decoded, bits) < 0.02

    def test_handles_erasures(self, rng):
        bits = random_bits(100, rng)
        coded = default_encoder().encode(bits).astype(float)
        coded[10] = np.nan
        coded[45] = np.nan
        decoded = viterbi_decode(coded, bits.size)
        assert np.array_equal(decoded, bits)

    def test_odd_length_rejected(self):
        from repro.exceptions import DecodingError

        with pytest.raises(DecodingError):
            viterbi_decode(np.zeros(7), 3)


class TestPuncturing:
    @pytest.mark.parametrize("rate", sorted(PUNCTURE_PATTERNS))
    def test_punctured_length_matches_rate(self, rate, rng):
        coded = random_bits(1200, rng)
        punctured = puncture(coded, rate)
        num, den = rate
        assert punctured.size == pytest.approx(coded.size * den / (2 * num), abs=2)

    @pytest.mark.parametrize("rate", sorted(PUNCTURE_PATTERNS))
    def test_depuncture_restores_positions(self, rate, rng):
        coded = random_bits(240, rng).astype(float)
        punctured = puncture(coded, rate)
        restored = depuncture(punctured, rate, coded.size)
        kept = ~np.isnan(restored)
        assert np.array_equal(restored[kept], coded[kept])
        assert punctured_length(coded.size, rate) == int(np.sum(kept))

    def test_unknown_rate_raises(self, rng):
        with pytest.raises(ConfigurationError):
            puncture(random_bits(10, rng), (5, 6))

    def test_wrong_punctured_length_raises(self):
        with pytest.raises(ConfigurationError):
            depuncture(np.zeros(5), (3, 4), 12)

    def test_viterbi_recovers_through_puncturing(self, rng):
        bits = random_bits(200, rng)
        mother = default_encoder().encode(bits)
        punctured = puncture(mother, (3, 4))
        restored = depuncture(punctured.astype(float), (3, 4), mother.size)
        decoded = viterbi_decode(restored, bits.size)
        assert np.array_equal(decoded, bits)


class TestInterleaver:
    @pytest.mark.parametrize("n_bpsc", [1, 2, 4, 6])
    def test_roundtrip(self, n_bpsc, rng):
        n_cbps = 48 * n_bpsc
        bits = random_bits(n_cbps * 3, rng)
        assert np.array_equal(deinterleave(interleave(bits, n_bpsc), n_bpsc), bits)

    def test_interleaving_is_a_permutation(self, rng):
        n_bpsc = 4
        n_cbps = 48 * n_bpsc
        bits = np.arange(n_cbps, dtype=np.int64)
        shuffled = interleave(bits, n_bpsc)
        assert sorted(shuffled.tolist()) == sorted(bits.tolist())
        assert not np.array_equal(shuffled, bits)

    def test_adjacent_bits_are_spread_apart(self, rng):
        """Adjacent coded bits must land on different subcarriers."""
        n_bpsc = 2
        n_cbps = 96
        positions = interleave(np.arange(n_cbps), n_bpsc)
        # Find where bits 0 and 1 ended up; their subcarrier indices
        # (position // n_bpsc) must differ.
        where_0 = int(np.where(positions == 0)[0][0])
        where_1 = int(np.where(positions == 1)[0][0])
        assert where_0 // n_bpsc != where_1 // n_bpsc

    def test_wrong_length_raises(self, rng):
        with pytest.raises(DimensionError):
            interleave(random_bits(47, rng), 1)


class TestCodec:
    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=[f"mcs{m.index}" for m in MCS_TABLE])
    def test_roundtrip_every_mcs(self, mcs, rng):
        codec = Codec(mcs)
        bits = random_bits(1000, rng)
        coded = codec.encode(bits)
        assert coded.size % codec.coded_bits_per_symbol == 0
        decoded = codec.decode(coded.astype(float), bits.size)
        assert np.array_equal(decoded, bits)

    def test_output_fills_whole_ofdm_symbols(self, rng):
        codec = Codec(MCS_TABLE[4])
        for n_bits in (1, 10, 100, 777):
            coded = codec.encode(random_bits(n_bits, rng))
            assert coded.size % codec.coded_bits_per_symbol == 0

    def test_symbol_count_matches_rate_table(self):
        codec = Codec(MCS_TABLE[5])  # 18 Mb/s at 10 MHz -> 144 bits per symbol
        assert codec.n_ofdm_symbols(1440) == pytest.approx(11, abs=1)

    def test_wrong_coded_length_raises(self, rng):
        codec = Codec(MCS_TABLE[0])
        with pytest.raises(DimensionError):
            codec.decode(np.zeros(10), 100)

    def test_corrects_channel_errors(self, rng):
        codec = Codec(MCS_TABLE[2])
        bits = random_bits(800, rng)
        coded = codec.encode(bits).astype(float)
        flip = rng.choice(coded.size, size=int(coded.size * 0.01), replace=False)
        coded[flip] = 1 - coded[flip]
        decoded = codec.decode(coded, bits.size)
        assert bit_error_rate(decoded, bits) < 0.01

    @given(
        n_bits=st.integers(1, 600),
        mcs_index=st.integers(0, 7),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, n_bits, mcs_index, seed):
        rng = np.random.default_rng(seed)
        codec = Codec(MCS_TABLE[mcs_index])
        bits = random_bits(n_bits, rng)
        assert np.array_equal(codec.decode(codec.encode(bits).astype(float), n_bits), bits)
