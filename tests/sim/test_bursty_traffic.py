"""Tests for non-saturated (Poisson) traffic through the full simulator."""

import numpy as np

from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import three_pair_scenario


class TestPoissonLoadedRuns:
    def test_light_load_is_mostly_delivered(self):
        config = SimulationConfig(
            duration_us=40_000.0, n_subcarriers=8, packet_rate_pps=100.0
        )
        totals = []
        offered_mbps = 3 * 100.0 * 12_000 / 1e6
        for seed in (1, 2, 3):
            metrics = run_simulation(three_pair_scenario(), "n+", seed=seed, config=config)
            totals.append(metrics.total_throughput_mbps())
        # Delivered throughput tracks the (light) offered load, within the
        # variance of a short Poisson sample.
        assert 0.3 * offered_mbps < np.mean(totals) < 2.0 * offered_mbps

    def test_delivered_bits_never_exceed_attempted_bits(self):
        config = SimulationConfig(
            duration_us=40_000.0, n_subcarriers=8, packet_rate_pps=300.0
        )
        metrics = run_simulation(three_pair_scenario(), "802.11n", seed=4, config=config)
        for link in metrics.links.values():
            assert link.delivered_bits <= link.attempted_bits

    def test_heavier_load_yields_more_throughput(self):
        light = SimulationConfig(duration_us=40_000.0, n_subcarriers=8, packet_rate_pps=50.0)
        heavy = SimulationConfig(duration_us=40_000.0, n_subcarriers=8, packet_rate_pps=600.0)
        light_total = run_simulation(
            three_pair_scenario(), "n+", seed=5, config=light
        ).total_throughput_mbps()
        heavy_total = run_simulation(
            three_pair_scenario(), "n+", seed=5, config=heavy
        ).total_throughput_mbps()
        assert heavy_total > light_total

    def test_saturated_default_still_works(self):
        config = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)
        metrics = run_simulation(three_pair_scenario(), "n+", seed=6, config=config)
        assert metrics.total_throughput_mbps() > 1.0
