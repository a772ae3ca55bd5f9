"""Bit-exact equivalence of the vectorized Viterbi decoder against the
readable per-state oracle decoder, across noisy, punctured, erased,
out-of-range and probe-chain inputs and several trellis sizes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.phy import branch_metrics_hard, trellis_transitions, viterbi_decode_reference
from repro.phy.coding.convolutional import (
    ConvolutionalEncoder,
    default_encoder,
)
from repro.phy.coding import codec as codec_module
from repro.phy.coding.puncturing import depuncture, puncture
from repro.phy.coding.viterbi import viterbi_decode
from repro.phy.rates import MCS_TABLE
from repro.sim.fidelity import simulate_probe_delivery

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


class TestProbeChainFrames:
    """Frames captured from the full-PHY probe at the delivery cliff, where
    hard-decision path-metric ties are common.  3 dB below an MCS's ESNR
    threshold, a flat-channel 256-bit probe fails now and then at the
    lower MCSs and always carries raw coded-bit errors."""

    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=lambda mcs: f"mcs{mcs.index}")
    def test_cliff_frames_match_reference(self, monkeypatch, mcs):
        captured = []

        def recording_decode(coded, n_data_bits, **kwargs):
            captured.append((np.array(coded, dtype=float), n_data_bits, kwargs))
            return viterbi_decode(coded, n_data_bits, **kwargs)

        monkeypatch.setattr(codec_module, "viterbi_decode", recording_decode)
        rng = np.random.default_rng((19, mcs.index))
        snrs = np.full(8, mcs.min_esnr_db - 3.0)
        for _ in range(3):
            simulate_probe_delivery(snrs, mcs, rng)
        assert len(captured) == 3
        for coded, n_data_bits, kwargs in captured:
            fast = viterbi_decode(coded, n_data_bits, **kwargs)
            slow = viterbi_decode_reference(coded, n_data_bits, **kwargs)
            assert np.array_equal(fast, slow)
            # The frame is noisy: its decoded path disagrees with some
            # received (non-erased) coded bits.
            path = default_encoder().encode(fast)
            received = ~np.isnan(coded)
            assert np.any(path[received] != coded[received])


class TestUnusualHardInputs:
    @pytest.mark.parametrize("seed", range(3))
    def test_values_outside_zero_one_with_erasures(self, rng_factory, seed):
        rng = rng_factory(200 + seed)
        n = 150
        bits = rng.integers(0, 2, n).astype(np.int8)
        coded = _flip(default_encoder().encode(bits), rng, 0.03)
        odd = rng.random(coded.size) < 0.1
        coded[odd] = rng.choice([2.0, -1.0, 0.4, 0.6, 1.5, 0.5, -0.4, 7.0], odd.sum())
        coded[rng.random(coded.size) < 0.1] = np.nan
        fast = viterbi_decode(coded, n)
        slow = viterbi_decode_reference(coded, n)
        assert np.array_equal(fast, slow)

    def test_all_erased_frame(self):
        coded = np.full(2 * (40 + default_encoder().tail_bits), np.nan)
        assert np.array_equal(viterbi_decode(coded, 40), viterbi_decode_reference(coded, 40))


class TestCustomEncoders:
    def test_non_default_polynomials(self, rng):
        encoder = ConvolutionalEncoder(g0=0o5, g1=0o7, constraint_length=3)
        bits = rng.integers(0, 2, 80).astype(np.int8)
        noisy = _flip(encoder.encode(bits), rng, 0.05)
        fast = viterbi_decode(noisy, 80, encoder=encoder)
        slow = viterbi_decode_reference(noisy, 80, encoder=encoder)
        assert np.array_equal(fast, slow)

    # 4, 16 and 256 states: the packed traceback words span a fraction of
    # one 64-bit lane, and four lanes.
    @pytest.mark.parametrize(
        "g0, g1, constraint_length",
        [(0o5, 0o7, 3), (0o23, 0o35, 5), (0o561, 0o753, 9)],
    )
    @pytest.mark.parametrize("terminated", [True, False])
    def test_state_counts_around_one_word(self, rng, g0, g1, constraint_length, terminated):
        encoder = ConvolutionalEncoder(g0=g0, g1=g1, constraint_length=constraint_length)
        n = 60
        bits = rng.integers(0, 2, n).astype(np.int8)
        noisy = _flip(encoder.encode(bits, terminate=terminated), rng, 0.06)
        noisy[rng.random(noisy.size) < 0.05] = np.nan
        fast = viterbi_decode(noisy, n, encoder=encoder, terminated=terminated)
        slow = viterbi_decode_reference(noisy, n, encoder=encoder, terminated=terminated)
        assert np.array_equal(fast, slow)

    def test_trellis_tables_are_cached_and_shared(self):
        first = ConvolutionalEncoder()
        second = ConvolutionalEncoder()
        prev_a, bits_a = first.predecessors()
        prev_b, bits_b = second.predecessors()
        assert prev_a is prev_b
        assert bits_a is bits_b
        assert first.incoming_metrics() is second.incoming_metrics()
        assert not prev_a.flags.writeable
        assert not first.incoming_metrics().flags.writeable
        steps, table = first.block_metrics()
        assert second.block_metrics()[1] is table
        assert not table.flags.writeable
        assert table.dtype == np.int8
        assert table.nbytes <= 2 << 20
        assert table.shape == (16**steps, 2**steps, 2**steps, first.n_states >> steps)

    def test_predecessor_tables_invert_transitions(self):
        encoder = default_encoder()
        next_state, _ = trellis_transitions(encoder)
        prev_states, prev_bits = encoder.predecessors()
        for state in range(encoder.n_states):
            for j in range(2):
                assert next_state[prev_states[state, j], prev_bits[state, j]] == state

    @pytest.mark.parametrize("constraint_length", [3, 7])
    def test_incoming_metrics_are_hamming_metrics_of_every_pattern(self, constraint_length):
        encoder = ConvolutionalEncoder(constraint_length=constraint_length)
        _, outputs = trellis_transitions(encoder)
        prev_states, prev_bits = encoder.predecessors()
        table = encoder.incoming_metrics()
        n_half = encoder.n_states // 2
        assert table.shape == (16, 2, 2, n_half)
        code_values = [0.0, 1.0, np.nan, 2.0]  # BIT_ZERO, BIT_ONE, BIT_ERASED, BIT_OTHER
        for pattern in range(16):
            pair = np.array([code_values[pattern // 4], code_values[pattern % 4]])
            branch = branch_metrics_hard(pair, outputs)
            for state in range(encoder.n_states):
                for j in range(2):
                    expected = branch[prev_states[state, j], prev_bits[state, j]]
                    assert table[pattern, j, state // n_half, state % n_half] == expected


#: (g0, g1, constraint length) of codes with 4, 8, 16, 64 and 256 states.
CODES = [(0o5, 0o7, 3), (0o13, 0o17, 4), (0o23, 0o35, 5), (0o133, 0o171, 7), (0o561, 0o753, 9)]


class TestMultiStepBlocks:
    """The decoder advances several trellis steps per add-compare-select;
    a frame whose step count is not a multiple of the block gets virtual
    steps in front of its first real one."""

    @pytest.mark.parametrize(
        "constraint_length, steps", [(2, 1), (3, 2), (4, 3), (7, 3), (8, 2), (9, 2)]
    )
    def test_block_steps_follow_memory_and_table_size(self, constraint_length, steps):
        encoder = ConvolutionalEncoder(constraint_length=constraint_length)
        assert encoder.block_metrics()[0] == steps

    @pytest.mark.parametrize("constraint_length", [3, 7])
    def test_block_table_sums_one_step_metrics_along_each_path(self, rng, constraint_length):
        encoder = ConvolutionalEncoder(constraint_length=constraint_length)
        steps, table = encoder.block_metrics()
        next_state, outputs = trellis_transitions(encoder)
        n_low = encoder.n_states >> steps
        code_values = [0.0, 1.0, np.nan, 2.0]
        for _ in range(300):
            pattern = int(rng.integers(table.shape[0]))
            low, high, end = (int(rng.integers(n)) for n in table.shape[1:])
            digits = [(pattern >> (4 * (steps - 1 - i))) & 15 for i in range(steps)]
            # Run the block's input bits (H, first step lowest) forward from
            # the predecessor state K * 2**steps + J.
            state = end * (1 << steps) + low
            expected = 0.0
            for i, digit in enumerate(digits):
                pair = np.array([code_values[digit // 4], code_values[digit % 4]])
                bit = (high >> i) & 1
                expected += branch_metrics_hard(pair, outputs)[state, bit]
                state = next_state[state, bit]
            assert state == high * n_low + end
            assert table[pattern, low, high, end] == expected

    # With 6 tail bits, 90, 91 and 92 data bits make 96, 97 and 98 steps.
    @pytest.mark.parametrize("n_bits", [90, 91, 92])
    def test_step_counts_around_the_block(self, rng, n_bits):
        assert (n_bits + default_encoder().tail_bits) % 3 == n_bits - 90
        bits = rng.integers(0, 2, n_bits).astype(np.int8)
        noisy = _flip(default_encoder().encode(bits), rng, 0.05)
        noisy[rng.random(noisy.size) < 0.1] = np.nan
        assert np.array_equal(viterbi_decode(noisy, n_bits), viterbi_decode_reference(noisy, n_bits))

    # Memory 2 < 3 steps: two-step blocks, with and without a virtual step.
    @pytest.mark.parametrize("n_bits", [0, 1, 40, 41])
    @pytest.mark.parametrize("terminated", [True, False])
    def test_code_with_less_memory_than_three_steps(self, rng, n_bits, terminated):
        encoder = ConvolutionalEncoder(g0=0o5, g1=0o7, constraint_length=3)
        if not terminated and n_bits == 0:
            noisy = np.zeros(0)
        else:
            bits = rng.integers(0, 2, n_bits).astype(np.int8)
            noisy = _flip(encoder.encode(bits, terminate=terminated), rng, 0.08)
        fast = viterbi_decode(noisy, n_bits, encoder=encoder, terminated=terminated)
        slow = viterbi_decode_reference(noisy, n_bits, encoder=encoder, terminated=terminated)
        assert fast.shape == (n_bits,)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("n_bits", [30, 31, 32])
    @pytest.mark.parametrize("terminated", [True, False])
    def test_all_erased_frames(self, n_bits, terminated):
        tail = default_encoder().tail_bits if terminated else 0
        coded = np.full(2 * (n_bits + tail), np.nan)
        fast = viterbi_decode(coded, n_bits, terminated=terminated)
        slow = viterbi_decode_reference(coded, n_bits, terminated=terminated)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("seed", range(3))
    def test_tie_heavy_frames(self, rng_factory, seed):
        # Coin-flip coded bits, half of them erased: most path metrics tie.
        rng = rng_factory(300 + seed)
        n = 100 + seed
        coded = rng.integers(0, 2, 2 * (n + default_encoder().tail_bits)).astype(float)
        coded[rng.random(coded.size) < 0.5] = np.nan
        assert np.array_equal(viterbi_decode(coded, n), viterbi_decode_reference(coded, n))

    @pytest.mark.parametrize("n_bits", [60, 61, 62])
    def test_unterminated_frame_whose_final_states_tie(self, rng, n_bits):
        # The last `memory` pairs are erased, so every final state ties
        # with the best path's metric.
        encoder = default_encoder()
        bits = rng.integers(0, 2, n_bits).astype(np.int8)
        coded = _flip(encoder.encode(bits, terminate=False), rng, 0.03)
        coded[-2 * encoder.tail_bits :] = np.nan
        fast = viterbi_decode(coded, n_bits, terminated=False)
        slow = viterbi_decode_reference(coded, n_bits, terminated=False)
        assert np.array_equal(fast, slow)

    @given(
        code=st.sampled_from(CODES),
        n_bits=st.integers(1, 50),
        terminated=st.booleans(),
        flip=st.sampled_from([0.0, 0.05, 0.5]),
        erase=st.sampled_from([0.0, 0.2, 0.9]),
        other=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, code, n_bits, terminated, flip, erase, other, seed):
        rng = np.random.default_rng(seed)
        encoder = ConvolutionalEncoder(*code)
        bits = rng.integers(0, 2, n_bits).astype(np.int8)
        coded = _flip(encoder.encode(bits, terminate=terminated), rng, flip)
        coded[rng.random(coded.size) < erase] = np.nan
        odd = rng.random(coded.size) < other
        coded[odd] = rng.choice([2.0, -1.0, 0.6, 1.5, 7.0], odd.sum())
        fast = viterbi_decode(coded, n_bits, encoder=encoder, terminated=terminated)
        slow = viterbi_decode_reference(coded, n_bits, encoder=encoder, terminated=terminated)
        assert np.array_equal(fast, slow)
