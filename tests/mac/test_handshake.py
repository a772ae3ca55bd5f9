"""Tests for the light-weight handshake and alignment-space encoding."""

import numpy as np
import pytest

from oracles.channel import MultipathChannel
from oracles.mimo import orthonormal_complement
from repro.exceptions import DimensionError
from repro.mac.handshake import (
    alignment_feedback_symbols,
    differential_encode_subspaces,
    handshake_overhead,
    quantized_alignment_bits,
)
from repro.phy.rates import MCS_TABLE


def _smooth_subspaces(rng, n_subcarriers=64):
    """Per-subcarrier decoding subspaces from a real multipath channel (they
    change slowly across subcarriers, as the paper observes)."""
    channel = MultipathChannel.random(2, 1, rng, n_taps=3)
    response = channel.frequency_response(n_subcarriers)
    out = np.zeros((n_subcarriers, 2, 1), dtype=complex)
    for k in range(n_subcarriers):
        out[k] = orthonormal_complement(response[k])[:, :1]
    return out


class TestDifferentialEncoding:
    def test_roundtrip(self, rng):
        subspaces = _smooth_subspaces(rng)
        first, differences = differential_encode_subspaces(subspaces)
        # The receiver's inverse: a running sum of the differences.
        recovered = np.concatenate([first[None], first + np.cumsum(differences, axis=0)])
        assert np.allclose(recovered, subspaces, atol=1e-12)

    def test_shapes(self, rng):
        subspaces = _smooth_subspaces(rng)
        first, differences = differential_encode_subspaces(subspaces)
        assert first.shape == (2, 1)
        assert differences.shape == (63, 2, 1)

    def test_rejects_wrong_rank(self, rng):
        with pytest.raises(DimensionError):
            differential_encode_subspaces(np.zeros((4, 2)))

    def test_differences_are_small_on_smooth_channels(self, rng):
        subspaces = _smooth_subspaces(rng)
        _, differences = differential_encode_subspaces(subspaces)
        assert np.median(np.abs(differences)) < np.median(np.abs(subspaces[0]))


class TestFeedbackSize:
    def test_smooth_channel_compresses_well(self, rng):
        subspaces = _smooth_subspaces(rng)
        symbols = alignment_feedback_symbols(subspaces)
        assert 1 <= symbols <= 4

    def test_random_subspaces_cost_more_than_smooth_ones(self, rng):
        smooth = _smooth_subspaces(rng)
        random_subspaces = np.exp(
            2j * np.pi * rng.random((64, 2, 1))
        ) / np.sqrt(2)
        assert quantized_alignment_bits(random_subspaces) > quantized_alignment_bits(smooth)

    def test_bits_grow_with_subspace_size(self, rng):
        small = _smooth_subspaces(rng)
        channel = MultipathChannel.random(3, 2, rng, n_taps=3)
        response = channel.frequency_response(64)
        big = np.zeros((64, 3, 2), dtype=complex)
        for k in range(64):
            big[k] = orthonormal_complement(response[k][:, :1])[:, :2]
        assert quantized_alignment_bits(big) > quantized_alignment_bits(small)


class TestOverhead:
    def test_reference_point_is_about_four_percent(self):
        """§3.5: 2 SIFS + 4 OFDM symbols is ~4 % of a 1500-byte exchange at
        18 Mb/s (counting the extra symbols against the data time)."""
        overhead = handshake_overhead(MCS_TABLE[5], payload_bytes=1500, alignment_symbols=3)
        assert overhead.symbol_fraction == pytest.approx(0.045, abs=0.02)

    def test_overhead_shrinks_for_longer_packets(self):
        short = handshake_overhead(MCS_TABLE[5], payload_bytes=500)
        long = handshake_overhead(MCS_TABLE[5], payload_bytes=3000)
        assert long.fraction < short.fraction

    def test_overhead_grows_at_higher_rates(self):
        slow = handshake_overhead(MCS_TABLE[0])
        fast = handshake_overhead(MCS_TABLE[7])
        assert fast.fraction > slow.fraction

    def test_components_add_up(self):
        overhead = handshake_overhead(MCS_TABLE[4])
        assert overhead.overhead_us == pytest.approx(
            overhead.extra_sifs_us + overhead.extra_symbols * 8.0
        )
