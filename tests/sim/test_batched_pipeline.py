"""Tests for the runner's batched round queries.

The load-bearing guarantees:

* the event loop produces metrics bit-identical to the per-agent oracle
  loop (and to the condensed slot-polling oracle) for saturated and
  bursty traffic, on the paper topologies and dense LANs;
* the batched ``has_traffic`` / ``next_traffic_time_us`` / join-eligibility
  masks agree with the per-agent methods at every round of a real run
  (checked by a cross-checking loop subclass);
* results do not depend on the order the agents were built in (shuffled
  pair order, same network, same metrics);
* the vectorised idle-gap computation reproduces the slot-stepping
  oracle bit for bit.
"""

import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.runner import (
    PerAgentLoop,
    has_traffic,
    run_simulation_condensed_reference,
    slot_aligned_idle_end_reference,
)
from repro.sim import runner
from repro.sim.runner import (
    SimulationConfig,
    _ESTIMATION_STREAM_TAG,
    _EventDrivenLoop,
    _slot_aligned_idle_end,
    build_network,
    run_simulation,
)
from repro.sim.scenarios import (
    Scenario,
    dense_lan_scenario,
    scenario_factory,
    three_pair_scenario,
)

FAST = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)


@pytest.fixture
def per_agent(monkeypatch):
    """``run_simulation`` on the per-agent oracle loop."""

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_EventDrivenLoop", PerAgentLoop)
            return run_simulation(*args, **kwargs)

    return run


class TestPipelineEquivalence:
    """batched == per-agent == condensed, bit for bit."""

    @pytest.mark.parametrize("protocol", ["802.11n", "n+", "beamforming"])
    def test_three_pair_all_protocols(self, protocol, per_agent):
        batched = run_simulation(three_pair_scenario(), protocol, seed=11, config=FAST)
        scans = per_agent(three_pair_scenario(), protocol, seed=11, config=FAST)
        condensed = run_simulation_condensed_reference(
            three_pair_scenario(), protocol, seed=11, config=FAST
        )
        assert batched.to_dict() == scans.to_dict() == condensed.to_dict()

    @pytest.mark.parametrize("name", ["dense-lan-20", "dense-lan-30", "dense-lan-50"])
    def test_dense_lans(self, name, per_agent):
        scenario = scenario_factory(name)()
        config = SimulationConfig(duration_us=4_000.0, n_subcarriers=8)
        batched = run_simulation(scenario, "n+", seed=3, config=config)
        scans = per_agent(scenario, "n+", seed=3, config=config)
        assert batched.to_dict() == scans.to_dict()

    @pytest.mark.parametrize("rate_pps", [60.0, 300.0])
    def test_bursty_traffic(self, rate_pps, per_agent):
        config = SimulationConfig(
            duration_us=25_000.0, n_subcarriers=8, packet_rate_pps=rate_pps
        )
        batched = run_simulation(three_pair_scenario(), "n+", seed=5, config=config)
        scans = per_agent(three_pair_scenario(), "n+", seed=5, config=config)
        condensed = run_simulation_condensed_reference(
            three_pair_scenario(), "n+", seed=5, config=config
        )
        assert batched.to_dict() == scans.to_dict() == condensed.to_dict()

    def test_bursty_dense_lan(self, per_agent):
        scenario = scenario_factory("dense-lan-20-bursty")()
        config = SimulationConfig(duration_us=6_000.0, n_subcarriers=8)
        batched = run_simulation(scenario, "n+", seed=2, config=config)
        scans = per_agent(scenario, "n+", seed=2, config=config)
        assert batched.to_dict() == scans.to_dict()


class _CheckedBatchedLoop(_EventDrivenLoop):
    """Event loop that cross-checks every batched query against the
    per-agent oracle, mid-run, on live simulation state.

    The cross-checks are side-effect-free: the per-agent scans re-refill
    agents the batched path already refilled (or skipped as provable
    no-ops), so the simulation trajectory is untouched -- which the tests
    confirm by comparing the final metrics against an unchecked run.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked_contention_rounds = 0
        self.checked_join_rounds = 0

    def _contending_agents(self, now):
        batched = super()._contending_agents(now)
        reference = [a for a in self.agents.values() if has_traffic(a, now)]
        assert [a.node_id for a in batched] == sorted(a.node_id for a in reference)
        self.checked_contention_rounds += 1
        return batched

    def _next_traffic_time_us(self, now):
        batched = super()._next_traffic_time_us(now)
        reference = PerAgentLoop._next_traffic_time_us(self, now)
        assert batched == reference
        return batched

    def _join_eligible(self, now, exhausted):
        batched = super()._join_eligible(now, exhausted)
        reference = PerAgentLoop._join_eligible(self, now, exhausted)
        assert [a.node_id for a in batched] == sorted(a.node_id for a in reference)
        self.checked_join_rounds += 1
        return batched


def _run_checked(scenario, seed, config):
    network = build_network(scenario, seed, config)
    network.reseed_estimation_noise((seed, _ESTIMATION_STREAM_TAG))
    loop = _CheckedBatchedLoop(
        scenario, "n+", np.random.default_rng(seed), config, network, seed=seed
    )
    return loop, loop.run()


class TestMaskEquivalence:
    """The batched masks vs per-agent ``has_traffic``/``can_join``, checked
    at every single round of live dense-LAN runs."""

    @pytest.mark.parametrize("name", ["dense-lan-20", "dense-lan-30", "dense-lan-50"])
    def test_masks_on_saturated_dense_lans(self, name):
        scenario = scenario_factory(name)()
        config = SimulationConfig(duration_us=3_000.0, n_subcarriers=8)
        loop, metrics = _run_checked(scenario, 7, config)
        assert loop.checked_contention_rounds > 0
        if name == "dense-lan-20":
            # The denser LANs are collision-bound in a short window; the
            # join phase (and its mask check) only runs after a clean win.
            assert loop.checked_join_rounds > 0
        # The cross-checking did not perturb the simulation.
        unchecked = run_simulation(
            scenario,
            "n+",
            seed=7,
            config=config,
            network=build_network(scenario, 7, config),
        )
        assert metrics.to_dict() == unchecked.to_dict()

    def test_masks_on_bursty_dense_lan(self):
        scenario = scenario_factory("dense-lan-20-bursty")()
        config = SimulationConfig(duration_us=6_000.0, n_subcarriers=8)
        loop, metrics = _run_checked(scenario, 9, config)
        assert loop.checked_contention_rounds > 0

    def test_traffic_arrays_are_sorted_and_static_columns_match(self):
        scenario = scenario_factory("dense-lan-20")()
        config = SimulationConfig(duration_us=1_000.0, n_subcarriers=8)
        network = build_network(scenario, 1, config)
        loop = _EventDrivenLoop(
            scenario, "n+", np.random.default_rng(1), config, network, seed=1
        )
        arrays = loop.arrays
        assert list(arrays.node_ids) == sorted(arrays.node_ids)
        by_id = {agent.node_id: agent for agent in loop.agents.values()}
        for row, node_id in enumerate(arrays.node_ids):
            agent = by_id[int(node_id)]
            assert arrays.n_antennas[row] == agent.n_antennas
            assert arrays.supports_joining[row] == agent.supports_joining
        # Saturated scenario: after the first round's refills everyone is
        # backlogged and nobody has a pending arrival to poll for.
        loop._contending_agents(0.0)
        assert arrays.backlogged.all()
        assert np.isinf(arrays.next_arrival_us).all()


@functools.lru_cache(maxsize=None)
def _dense_lan_20_arrays():
    scenario = scenario_factory("dense-lan-20")()
    network = build_network(scenario, 1, FAST)
    return _EventDrivenLoop(
        scenario, "n+", np.random.default_rng(1), FAST, network, seed=1
    ).arrays


class TestRowMask:
    @given(ids=st.lists(st.integers(-3, 45)))
    @settings(max_examples=200, deadline=None)
    def test_the_row_mask_is_isin(self, ids):
        """Unknown ids, duplicates and the empty list included."""
        arrays = _dense_lan_20_arrays()
        expected = np.isin(arrays.node_ids, ids)
        assert arrays.row_mask(ids).tolist() == expected.tolist()
        assert arrays.row_mask(set(ids)).tolist() == expected.tolist()


class TestShuffledAgentOrderDeterminism:
    """Metrics are a function of the topology, not of agent build order."""

    @pytest.mark.parametrize("loop", ["batched", "per-agent"])
    @pytest.mark.parametrize("rate_pps", [None, 250.0])
    def test_reversed_pair_order_is_identical(self, loop, rate_pps, per_agent):
        scenario = dense_lan_scenario(n_pairs=6, seed=9, packet_rate_pps=rate_pps)
        shuffled = Scenario(
            scenario.name,
            scenario.stations,
            list(reversed(scenario.pairs)),
            testbed_factory=scenario.testbed_factory,
            packet_rate_pps=scenario.packet_rate_pps,
        )
        config = SimulationConfig(duration_us=6_000.0, n_subcarriers=8)
        network = build_network(scenario, 4, config)
        simulate = run_simulation if loop == "batched" else per_agent
        forward = simulate(scenario, "n+", seed=4, config=config, network=network)
        reversed_order = simulate(shuffled, "n+", seed=4, config=config, network=network)
        assert forward.to_dict() == reversed_order.to_dict()


class TestSlotAlignedIdleEnd:
    """The vectorised idle-gap computation vs the stepping oracle."""

    def test_matches_reference_on_random_gaps(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            now = float(rng.uniform(0.0, 1e6))
            arrival = now + float(rng.uniform(0.0, 2e5))
            duration = float(rng.uniform(0.0, 1e6))
            fast = _slot_aligned_idle_end(now, arrival, duration)
            reference = slot_aligned_idle_end_reference(now, arrival, duration)
            assert fast == reference

    def test_immediate_cases(self):
        assert _slot_aligned_idle_end(100.0, 50.0, 1e6) == (
            slot_aligned_idle_end_reference(100.0, 50.0, 1e6)
        )
        assert _slot_aligned_idle_end(100.0, float("inf"), 90.0) == (
            slot_aligned_idle_end_reference(100.0, float("inf"), 90.0)
        )

    def test_infinite_arrival_stops_at_window_end(self):
        fast = _slot_aligned_idle_end(0.0, float("inf"), 5_000.0)
        reference = slot_aligned_idle_end_reference(0.0, float("inf"), 5_000.0)
        assert fast == reference

    def test_gap_longer_than_one_chunk(self):
        """A gap of ~70k slots spans several 64k-element cumsum chunks."""
        now = 123.456
        arrival = now + 70_000 * 9.0 + 1.0
        fast = _slot_aligned_idle_end(now, arrival, 1e9)
        reference = slot_aligned_idle_end_reference(now, arrival, 1e9)
        assert fast == reference


class TestDenseLan100:
    def test_new_scenarios_are_registered(self):
        from repro.sim.scenarios import available_scenarios

        names = available_scenarios()
        for name in (
            "dense-lan-100",
            "dense-lan-200",
            "dense-lan-100-bursty",
            "dense-lan-200-bursty",
        ):
            assert name in names
        assert len(scenario_factory("dense-lan-100")().stations) == 100
        assert len(scenario_factory("dense-lan-200")().stations) == 200
        assert scenario_factory("dense-lan-100-bursty")().packet_rate_pps == 150.0

    def test_dense_lan_100_smoke(self):
        """A dense-lan-100 run completes end to end (shrunk under
        REPRO_QUICK, default-duration otherwise)."""
        scenario = scenario_factory("dense-lan-100")()
        duration = 20_000.0 if os.environ.get("REPRO_QUICK") else 100_000.0
        config = SimulationConfig(duration_us=duration, n_subcarriers=8)
        metrics = run_simulation(scenario, "n+", seed=1, config=config)
        assert len(metrics.links) == 50
        assert metrics.elapsed_us >= duration
