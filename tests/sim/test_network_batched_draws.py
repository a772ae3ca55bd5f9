"""Tests for the batched network-construction pipeline.

The load-bearing guarantee: the v2 ``"batched"`` draws -- two generator
calls per pair, the link budget, tap scaling and one stacked FFT per
antenna-shape group as array code -- are *bit-identical* to the per-pair
oracle loop, for every antenna mix, all the way down to the post-draw generator state (so every downstream
draw, and therefore every simulated metric, is unchanged).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bank_pairs, custom_pairs_scenario, random_taps
from oracles.channel import MultipathChannel
from oracles.network import PerPairNetwork
from repro.channel.multipath import (
    frequency_response_batch,
    tap_scales,
    taps_from_normals,
)
from repro.exceptions import ConfigurationError
from repro.sim.network import Network, _subcarrier_bins
from repro.sim.node import Station
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import (
    dense_lan_scenario,
    three_pair_scenario,
)


def _build_both(scenario, seed, **kwargs):
    rng_batched = np.random.default_rng(seed)
    rng_reference = np.random.default_rng(seed)
    batched = Network(
        scenario.stations, scenario.pairs, rng_batched, channel_draws="batched", **kwargs
    )
    reference = PerPairNetwork(
        scenario.stations, scenario.pairs, rng_reference, channel_draws="batched", **kwargs
    )
    return batched, reference, rng_batched, rng_reference


def _assert_identical(batched, reference, rng_batched, rng_reference):
    assert set(bank_pairs(batched.channels)) == set(bank_pairs(reference.channels))
    for a, b in bank_pairs(reference.channels):
        for tx, rx in ((a, b), (b, a)):
            assert batched.link_snr_db(tx, rx) == reference.link_snr_db(tx, rx)
            assert np.array_equal(
                batched.true_channel(tx, rx), reference.true_channel(tx, rx)
            ), (tx, rx)
    # Both paths consumed exactly the same random numbers, so everything
    # drawn afterwards (estimation noise fallback, MAC draws) agrees too.
    assert rng_batched.bit_generator.state == rng_reference.bit_generator.state


class TestBatchedDrawsBitIdentical:
    @pytest.mark.parametrize(
        "antenna_counts",
        [[1, 1], [2, 2], [3, 3, 3], [1, 2, 3], [3, 1, 2, 2, 1]],
    )
    def test_antenna_mixes(self, antenna_counts):
        scenario = custom_pairs_scenario(antenna_counts)
        _assert_identical(*_build_both(scenario, seed=3, n_subcarriers=8))

    def test_dense_lan_on_dense_testbed(self):
        scenario = dense_lan_scenario(n_pairs=8, seed=11)
        _assert_identical(
            *_build_both(scenario, seed=2, n_subcarriers=8, testbed=scenario.make_testbed())
        )

    def test_full_subcarrier_resolution(self):
        scenario = three_pair_scenario()
        _assert_identical(*_build_both(scenario, seed=9, n_subcarriers=48))

    @pytest.mark.parametrize("n_subcarriers", [0, 49, 64])
    def test_subcarrier_count_beyond_the_data_bins_is_refused(self, n_subcarriers):
        scenario = three_pair_scenario()
        with pytest.raises(ConfigurationError, match="between 1 and 48"):
            Network(
                scenario.stations,
                scenario.pairs,
                np.random.default_rng(0),
                n_subcarriers=n_subcarriers,
            )

    def test_downstream_metrics_identical(self):
        """Same channels -> bit-identical simulated metrics."""
        config = SimulationConfig(duration_us=8_000.0, n_subcarriers=8)
        scenario = three_pair_scenario()
        batched, reference, _, _ = _build_both(scenario, seed=6, n_subcarriers=8)
        on_batched = run_simulation(
            scenario, "n+", seed=21, config=config, network=batched
        )
        on_reference = run_simulation(
            scenario, "n+", seed=21, config=config, network=reference
        )
        assert on_batched.to_dict() == on_reference.to_dict()

    def test_empty_network_still_builds(self):
        """No stations -> no pairs, on every draw path."""
        for mode in ("batched", "grouped"):
            network = Network([], [], np.random.default_rng(0), channel_draws=mode)
            assert len(bank_pairs(network.channels)) == 0 and len(network.channels._normals) == 0

    def test_unknown_draw_mode_rejected(self):
        scenario = three_pair_scenario()
        for mode in ("turbo", "per-pair"):
            with pytest.raises(ConfigurationError):
                Network(
                    scenario.stations,
                    scenario.pairs,
                    np.random.default_rng(0),
                    channel_draws=mode,
                )


class _CountingGenerator:
    """A generator stand-in that forwards every call and counts it by name."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


class TestTwoGeneratorCallsPerPair:
    def test_call_count(self):
        scenario = dense_lan_scenario(n_pairs=6, seed=4)
        kwargs = dict(testbed=scenario.make_testbed(), n_subcarriers=8)
        counting = _CountingGenerator(np.random.default_rng(8))
        network = Network(scenario.stations, scenario.pairs, counting, **kwargs)
        n = len(scenario.stations)
        n_pairs = n * (n - 1) // 2
        # One placement draw, the first pair's shadowing normal, then per
        # pair a coin and one normal fill.
        assert counting.calls == Counter(choice=1, random=n_pairs, standard_normal=n_pairs + 1)
        rng_reference = np.random.default_rng(8)
        reference = PerPairNetwork(scenario.stations, scenario.pairs, rng_reference, **kwargs)
        _assert_identical(network, reference, counting._rng, rng_reference)


@st.composite
def _draw_cases(draw):
    """Stations, subcarrier count and seed for one build."""
    n = draw(st.integers(2, 12))
    ids = sorted(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True)))
    stations = [Station(node, draw(st.integers(1, 3))) for node in ids]
    n_subcarriers = draw(st.sampled_from([1, 8, 48]))
    seed = draw(st.integers(0, 2**32 - 1))
    return stations, n_subcarriers, seed


class TestDrawSplitProperty:
    @settings(max_examples=100, deadline=None)
    @given(_draw_cases())
    def test_batched_build_equals_the_per_pair_loop(self, case):
        stations, n_subcarriers, seed = case
        builds = []
        for network_class in (Network, PerPairNetwork):
            rng = np.random.default_rng(seed)
            network = network_class(stations, [], rng, n_subcarriers=n_subcarriers)
            builds.append((network, rng))
        (batched, rng_batched), (reference, rng_reference) = builds
        _assert_identical(batched, reference, rng_batched, rng_reference)


class TestMultipathBatchPrimitives:
    def test_scaled_normals_match_sequential_random(self):
        """One ``standard_normal`` draw, :func:`tap_scales` and
        :func:`taps_from_normals` give each channel's taps bit-identical
        to sequential :meth:`MultipathChannel.random` calls -- for the
        whole stack and for any one row of it alone."""
        rng_batch = np.random.default_rng(17)
        rng_seq = np.random.default_rng(17)
        decays = np.array([0.6, 1.5, 3.0, 0.6])
        gains = np.array([1.0, 4.0, 0.25, 10.0])
        normals = rng_batch.standard_normal((4, 3, 2, 2, 3))
        scales = tap_scales(3, decays, gains)
        assert scales.shape == (4, 3)
        taps = taps_from_normals(normals, scales)
        assert taps.shape == (4, 3, 2, 3)
        for index in range(4):
            channel = MultipathChannel.random(
                n_rx=2,
                n_tx=3,
                rng=rng_seq,
                n_taps=3,
                decay_samples=float(decays[index]),
                average_gain=float(gains[index]),
            )
            assert np.array_equal(taps[index], channel.taps)
            one = taps_from_normals(normals[[index]], scales[[index]])
            assert np.array_equal(one[0], channel.taps)
        assert rng_batch.bit_generator.state == rng_seq.bit_generator.state

    def test_frequency_response_batch_matches_per_channel(self):
        rng = np.random.default_rng(4)
        taps = random_taps(2, 3, rng, n_channels=5, n_taps=4)
        for bins in (np.arange(64), _subcarrier_bins(16)):
            responses = frequency_response_batch(taps, bins)
            assert responses.shape == (5, bins.size, 2, 3)
            for index in range(5):
                expected = MultipathChannel(taps=taps[index]).frequency_response(64)[bins]
                assert np.array_equal(responses[index], expected)
                alone = frequency_response_batch(taps[index : index + 1], bins)
                assert np.array_equal(alone[0], expected)

    def test_tap_scales_validates_the_tap_count(self):
        with pytest.raises(ConfigurationError):
            tap_scales(999, np.ones(2), np.ones(2))


class TestSubcarrierBinCache:
    def test_bins_are_cached_and_read_only(self):
        first = _subcarrier_bins(8)
        second = _subcarrier_bins(8)
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1

    def test_bins_match_the_ofdm_layout(self):
        from repro.phy.ofdm import OfdmConfig

        data_bins = np.array(OfdmConfig().data_indices)
        assert np.array_equal(_subcarrier_bins(64), data_bins)
        assert np.array_equal(_subcarrier_bins(data_bins.size + 5), data_bins)
        eight = _subcarrier_bins(8)
        assert eight.size == 8
        assert set(eight) <= set(data_bins)
