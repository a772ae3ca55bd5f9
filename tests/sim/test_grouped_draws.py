"""Tests pinning the grouped (v3) channel-draw contract.

The contract under test (see ``Network._draw_channels_grouped``):
randomness is consumed scalars-first -- one shadowing draw for every
pair, one line-of-sight draw for every pair, then ONE tap draw per
antenna-shape group -- with no per-pair rng calls at all, and the draw
sequence depends only on the *sorted* station ids.  Any accidental
reordering of those draws changes every seeded v3 result, which is what
the replayed-stream test and the golden-metrics snapshot fail loudly on.
"""

import dataclasses
import random

import numpy as np
import pytest

from helpers import bank_pairs, custom_pairs_scenario
from repro.sim.network import Network
from repro.sim.runner import (
    RunSpec,
    SimulationConfig,
    build_network,
    run_simulation,
)
from repro.sim.scenarios import (
    dense_lan_scenario,
    scenario_factory,
    three_pair_scenario,
)


def _grouped(scenario, seed, **kwargs):
    return Network(
        scenario.stations,
        scenario.pairs,
        np.random.default_rng(seed),
        n_subcarriers=kwargs.pop("n_subcarriers", 8),
        channel_draws="grouped",
        **kwargs,
    )


def _assert_same_channels(first, second):
    assert set(bank_pairs(first.channels)) == set(bank_pairs(second.channels))
    for a, b in bank_pairs(first.channels):
        assert np.array_equal(first.true_channel(a, b), second.true_channel(a, b)), (a, b)
        assert first.link_snr_db(a, b) == second.link_snr_db(a, b)


class TestGroupedDrawContract:
    def test_rng_stream_layout_is_scalars_first(self):
        """Replay the documented draw sequence by hand; the construction
        must leave the generator in exactly the replayed state."""
        scenario = custom_pairs_scenario([1, 2, 3, 2, 1])
        network = _grouped(scenario, seed=17)

        replay = np.random.default_rng(17)
        stations = sorted(network.stations)
        n = len(stations)
        n_pairs = n * (n - 1) // 2
        replay.choice(network.testbed.n_locations, size=n, replace=False)  # placements
        replay.normal(0.0, network.testbed.shadowing_sigma_db, size=n_pairs)  # shadowing
        replay.random(n_pairs)  # line-of-sight coins
        antennas = np.array([network.stations[s].n_antennas for s in stations])
        ai, bi = np.triu_indices(n, k=1)
        shape_key = antennas[ai] * (antennas.max() + 1) + antennas[bi]
        for key in np.unique(shape_key):
            rows = np.flatnonzero(shape_key == key)
            m = int(antennas[ai[rows[0]]])
            r = int(antennas[bi[rows[0]]])
            replay.standard_normal((rows.size, network.testbed.n_taps, 2, r, m))
        assert network.rng.bit_generator.state == replay.bit_generator.state

    def test_shuffled_station_order_is_deterministic(self):
        """Draws depend on sorted node ids, never on list order."""
        scenario = custom_pairs_scenario([3, 1, 2, 2, 1, 3])
        shuffled = list(scenario.stations)
        random.Random(0).shuffle(shuffled)
        reference = _grouped(scenario, seed=5)
        permuted = Network(
            shuffled,
            scenario.pairs,
            np.random.default_rng(5),
            n_subcarriers=8,
            channel_draws="grouped",
        )
        _assert_same_channels(reference, permuted)
        for node_id in reference.stations:
            assert (
                reference.stations[node_id].location
                == permuted.stations[node_id].location
            )

    def test_shuffled_pair_order_is_deterministic(self):
        """Traffic-pair order shapes the simulation, not the draws --
        and shuffled pairs leave the drawn channels untouched."""
        scenario = custom_pairs_scenario([1, 2, 3, 2])
        shuffled_pairs = list(scenario.pairs)
        random.Random(1).shuffle(shuffled_pairs)
        reference = _grouped(scenario, seed=9)
        permuted = Network(
            scenario.stations,
            shuffled_pairs,
            np.random.default_rng(9),
            n_subcarriers=8,
            channel_draws="grouped",
        )
        _assert_same_channels(reference, permuted)

    def test_grouped_differs_from_v2_by_design(self):
        """The schema bump exists because the contracts disagree."""
        scenario = three_pair_scenario()
        grouped = _grouped(scenario, seed=6)
        batched = Network(
            scenario.stations,
            scenario.pairs,
            np.random.default_rng(6),
            n_subcarriers=8,
            channel_draws="batched",
        )
        assert not np.array_equal(grouped.true_channel(0, 1), batched.true_channel(0, 1))


class TestGoldenMetricsSnapshot:
    """Seeded v3 results, frozen.  A change here means the grouped draw
    (or estimate-prefetch) order drifted -- which is only legitimate
    alongside another CACHE_SCHEMA_VERSION bump and a refreshed snapshot.
    """

    CONFIG = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)

    def test_three_pair_nplus_snapshot(self):
        scenario = dataclasses.replace(three_pair_scenario(), channel_draws="grouped")
        metrics = run_simulation(scenario, "n+", seed=42, config=self.CONFIG)
        assert metrics.elapsed_us == pytest.approx(20574.0, rel=1e-9)
        assert metrics.total_throughput_mbps() == pytest.approx(
            29.138524351122776, rel=1e-6
        )
        per_link = {
            name: link.throughput_mbps(metrics.elapsed_us)
            for name, link in metrics.links.items()
        }
        assert per_link["tx1->rx1"] == pytest.approx(4.666083406240887, rel=1e-6)
        assert per_link["tx2->rx2"] == pytest.approx(5.0137066200058324, rel=1e-6)
        assert per_link["tx3->rx3"] == pytest.approx(19.45873432487606, rel=1e-6)


class TestContractResolution:
    def test_scenario_hint_decides_the_contract(self):
        scenario = dense_lan_scenario(n_pairs=3, seed=1, channel_draws="grouped")
        assert RunSpec.resolve(scenario).channel_draws == "grouped"
        assert RunSpec.resolve(three_pair_scenario()).channel_draws == "batched"

    def test_build_network_honours_the_contract(self):
        scenario = dense_lan_scenario(n_pairs=3, seed=1, channel_draws="grouped")
        config = SimulationConfig(n_subcarriers=8)
        network = build_network(scenario, run_seed=2, config=config)
        assert network.channel_draws == "grouped"
        batched = dataclasses.replace(scenario, channel_draws="batched")
        assert build_network(batched, run_seed=2, config=config).channel_draws == "batched"

    def test_config_has_no_contract_field(self):
        fields = {field.name for field in dataclasses.fields(SimulationConfig)}
        assert "channel_draws" not in fields


class TestDenseLan500Tier:
    def test_registered_with_grouped_contract(self):
        scenario = scenario_factory("dense-lan-500")()
        assert len(scenario.stations) == 500
        assert len(scenario.pairs) == 250
        assert scenario.channel_draws == "grouped"
        assert scenario.make_testbed().n_locations >= 500
        bursty = scenario_factory("dense-lan-500-bursty")()
        assert bursty.packet_rate_pps == 150.0
        assert bursty.channel_draws == "grouped"

    def test_500_station_network_builds(self):
        """124750 pairs drawn scalars-first; SNRs land in the testbed's
        operating range and reciprocity holds."""
        scenario = scenario_factory("dense-lan-500")()
        config = SimulationConfig(n_subcarriers=4)
        network = build_network(scenario, run_seed=0, config=config)
        assert network.channel_draws == "grouped"
        assert len(bank_pairs(network.channels)) == 500 * 499 // 2
        testbed = network.testbed
        snrs = np.array(
            [network.link_snr_db(p.transmitter.node_id, p.receivers[0].node_id)
             for p in scenario.pairs]
        )
        assert np.all(snrs >= testbed.min_snr_db) and np.all(snrs <= testbed.max_snr_db)
        forward = network.true_channel(0, 1)
        assert np.shares_memory(forward, network.true_channel(1, 0))
