"""Tests for the batched network-construction pipeline.

The load-bearing guarantee: the batched draws -- grouped tap scaling, one
stacked FFT per antenna-shape group -- are *bit-identical* to the
per-pair oracle loop, for every antenna mix, with and without forced
link SNRs, all the way down to the post-draw generator state (so every
downstream draw, and therefore every simulated metric, is unchanged).
"""

import numpy as np
import pytest

from helpers import bank_pairs, custom_pairs_scenario
from oracles.network import PerPairNetwork
from repro.channel.multipath import MultipathChannel, frequency_response_batch
from repro.exceptions import ConfigurationError
from repro.sim.network import Network, _subcarrier_bins
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

    def test_forced_snr_links(self):
        scenario = three_pair_scenario()
        forced = {(0, 1): 12.0, (2, 3): 25.0, (5, 4): 7.5}
        _assert_identical(
            *_build_both(scenario, seed=5, n_subcarriers=8, forced_link_snrs_db=forced)
        )

    def test_dense_lan_on_dense_testbed(self):
        scenario = dense_lan_scenario(n_pairs=8, seed=11)
        _assert_identical(
            *_build_both(scenario, seed=2, n_subcarriers=8, testbed=scenario.make_testbed())
        )

    def test_full_subcarrier_resolution(self):
        scenario = three_pair_scenario()
        _assert_identical(*_build_both(scenario, seed=9, n_subcarriers=64))

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
            assert len(bank_pairs(network.channels)) == 0 and len(network.channels._stacks) == 0

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


class TestMultipathBatchPrimitives:
    def test_random_batch_matches_sequential_random(self):
        rng_batch = np.random.default_rng(17)
        rng_seq = np.random.default_rng(17)
        decays = np.array([0.6, 1.5, 3.0, 0.6])
        gains = np.array([1.0, 4.0, 0.25, 10.0])
        taps = MultipathChannel.random_batch(
            n_rx=2,
            n_tx=3,
            rng=rng_batch,
            n_channels=4,
            n_taps=3,
            decay_samples=decays,
            average_gain=gains,
        )
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
        assert rng_batch.bit_generator.state == rng_seq.bit_generator.state

    def test_frequency_response_batch_matches_per_channel(self):
        rng = np.random.default_rng(4)
        taps = MultipathChannel.random_batch(2, 2, rng, n_channels=5, n_taps=4)
        responses = frequency_response_batch(taps, 64)
        assert responses.shape == (5, 64, 2, 2)
        for index in range(5):
            expected = MultipathChannel(taps=taps[index]).frequency_response(64)
            assert np.array_equal(responses[index], expected)

    def test_random_batch_validates_taps_and_raw(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            MultipathChannel.random_batch(1, 1, rng, n_channels=2, n_taps=999)
        with pytest.raises(ConfigurationError):
            MultipathChannel.random_batch(1, 1, rng=None, n_channels=2)
        from repro.exceptions import DimensionError

        with pytest.raises(DimensionError):
            MultipathChannel.random_batch(
                1, 1, rng=None, n_channels=2, n_taps=3, raw=np.zeros((2, 3, 2, 2, 2))
            )


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
