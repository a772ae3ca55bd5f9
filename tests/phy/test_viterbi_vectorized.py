"""Bit-exact equivalence of the vectorized Viterbi decoder against the
readable per-state oracle decoder, across noisy, punctured, erased,
out-of-range and probe-chain inputs and several trellis sizes."""

from __future__ import annotations

import numpy as np
import pytest

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
            simulate_probe_delivery(snrs, mcs, rng, probe_bits=256)
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
