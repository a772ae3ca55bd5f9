"""Tests for the scenario builders and the simulation runner."""

import numpy as np
import pytest

from helpers import custom_pairs_scenario
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.variants import resolve_protocol
from repro.sim.network import Network
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import (
    heterogeneous_ap_scenario,
    three_pair_scenario,
    two_pair_scenario,
)
from repro.sim.sweep import run_sweep

FAST = SimulationConfig(duration_us=15_000.0, n_subcarriers=8)


class TestScenarios:
    def test_three_pair_scenario_shape(self):
        scenario = three_pair_scenario()
        assert len(scenario.stations) == 6
        assert [p.transmitter.n_antennas for p in scenario.pairs] == [1, 2, 3]
        assert scenario.max_antennas == 3

    def test_two_pair_scenario(self):
        scenario = two_pair_scenario()
        assert [p.transmitter.n_antennas for p in scenario.pairs] == [1, 2]

    def test_heterogeneous_scenario(self):
        scenario = heterogeneous_ap_scenario()
        ap2_pair = scenario.pairs[1]
        assert ap2_pair.transmitter.n_antennas == 3
        assert len(ap2_pair.receivers) == 2
        by_name = {station.name: station for station in scenario.stations}
        assert by_name["c1"].n_antennas == 1

    def test_custom_scenario(self):
        scenario = custom_pairs_scenario([2, 2, 4])
        assert len(scenario.pairs) == 3
        assert scenario.max_antennas == 4


class TestMacFactory:
    def test_known_protocols(self):
        for name in ("802.11n", "n+", "beamforming"):
            assert resolve_protocol(name).agent_class.protocol_name == name

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            resolve_protocol("aloha").agent_class


class TestRunSimulation:
    @pytest.mark.parametrize("protocol", ["802.11n", "n+", "beamforming"])
    def test_protocols_deliver_traffic(self, protocol):
        metrics = run_simulation(three_pair_scenario(), protocol, seed=1, config=FAST)
        assert metrics.elapsed_us >= FAST.duration_us
        assert metrics.total_throughput_mbps() > 1.0

    def test_all_pairs_get_service_in_802_11n(self):
        metrics = run_simulation(three_pair_scenario(), "802.11n", seed=3, config=FAST)
        for name, value in metrics.per_link_throughputs().items():
            assert value >= 0.0
        assert sum(l.transmissions for l in metrics.links.values()) > 5

    def test_nplus_records_joins(self):
        metrics = run_simulation(three_pair_scenario(), "n+", seed=5, config=FAST)
        total_joins = sum(l.joins for l in metrics.links.values())
        assert total_joins > 0

    def test_dot11n_never_joins(self):
        metrics = run_simulation(three_pair_scenario(), "802.11n", seed=5, config=FAST)
        assert sum(l.joins for l in metrics.links.values()) == 0

    def test_single_antenna_pair_never_joins_in_nplus(self):
        metrics = run_simulation(three_pair_scenario(), "n+", seed=7, config=FAST)
        assert metrics.links["tx1->rx1"].joins == 0

    def test_same_seed_is_reproducible(self):
        a = run_simulation(three_pair_scenario(), "n+", seed=11, config=FAST)
        b = run_simulation(three_pair_scenario(), "n+", seed=11, config=FAST)
        assert a.per_link_throughputs() == b.per_link_throughputs()

    def test_different_seeds_differ(self):
        a = run_simulation(three_pair_scenario(), "n+", seed=11, config=FAST)
        b = run_simulation(three_pair_scenario(), "n+", seed=12, config=FAST)
        assert a.per_link_throughputs() != b.per_link_throughputs()

    def test_round_budget_guard(self):
        config = SimulationConfig(duration_us=15_000.0, n_subcarriers=8, max_rounds=1)
        with pytest.raises(SimulationError):
            run_simulation(three_pair_scenario(), "802.11n", seed=1, config=config)

    def test_network_reuse_keeps_channels_fixed(self, rng):
        scenario = three_pair_scenario()
        network = Network(scenario.stations, scenario.pairs, rng, n_subcarriers=8)
        baseline = run_simulation(scenario, "802.11n", seed=2, config=FAST, network=network)
        nplus = run_simulation(scenario, "n+", seed=2, config=FAST, network=network)
        assert baseline.elapsed_us > 0 and nplus.elapsed_us > 0

    def test_heterogeneous_scenario_runs_all_protocols(self):
        for protocol in ("802.11n", "beamforming", "n+"):
            metrics = run_simulation(heterogeneous_ap_scenario(), protocol, seed=4, config=FAST)
            assert metrics.total_throughput_mbps() > 0.5


class TestRunMany:
    def test_structure_of_results(self):
        results = run_sweep(
            three_pair_scenario, ["802.11n", "n+"], n_runs=2, seed=0, config=FAST
        ).results
        assert set(results) == {"802.11n", "n+"}
        assert len(results["n+"]) == 2

    def test_nplus_beats_baseline_on_average(self):
        """The headline result: n+ delivers more total throughput than
        802.11n over a handful of runs (even short ones)."""
        config = SimulationConfig(duration_us=40_000.0, n_subcarriers=8)
        results = run_sweep(
            three_pair_scenario, ["802.11n", "n+"], n_runs=4, seed=3, config=config
        ).results
        baseline = np.mean([m.total_throughput_mbps() for m in results["802.11n"]])
        nplus = np.mean([m.total_throughput_mbps() for m in results["n+"]])
        assert nplus > baseline
