"""Tests for the scenario builders and the simulation runner."""

import numpy as np
import pytest

from helpers import custom_pairs_scenario
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.plan import PlanCache
from repro.mac.variants import resolve_protocol
from repro.sim.network import Network
from repro.sim import runner
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import (
    _SCENARIOS,
    heterogeneous_ap_scenario,
    register_scenario,
    scenario_factory,
    three_pair_scenario,
    two_pair_scenario,
)
from repro.sim.sweep import run_sweep

FAST = SimulationConfig(duration_us=15_000.0, n_subcarriers=8)
# Light enough that every station idles between packets.
LIGHT = SimulationConfig(duration_us=15_000.0, n_subcarriers=8, packet_rate_pps=50.0)


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

    def test_a_name_registers_once(self):
        register_scenario("register-once", two_pair_scenario)
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_scenario("register-once", three_pair_scenario)
            assert scenario_factory("register-once") is two_pair_scenario
        finally:
            _SCENARIOS.pop("register-once")

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

    def test_round_budget_guard(self, monkeypatch):
        monkeypatch.setattr(runner, "MAX_ROUNDS", 1)
        with pytest.raises(SimulationError, match="round budget"):
            run_simulation(three_pair_scenario(), "802.11n", seed=1, config=FAST)

    def test_time_never_moves_backwards(self, monkeypatch):
        """An idle step that lands before the current round is refused."""
        calls = []

        def backwards(loop, now):
            calls.append(now)
            assert len(calls) == 1, "the loop stepped back in time"
            return now - 1.0

        monkeypatch.setattr(runner._EventDrivenLoop, "_idle_poll_time", backwards)
        config = SimulationConfig(
            duration_us=15_000.0, n_subcarriers=8, packet_rate_pps=50.0
        )
        with pytest.raises(SimulationError, match="current time"):
            run_simulation(three_pair_scenario(), "n+", seed=1, config=config)
        assert calls

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


def _record_rounds(monkeypatch):
    """Log every ``_EventDrivenLoop._round`` call as ``(now, clock, next)``:
    its start, the loop's clock when it began, and what it returned."""
    calls = []
    original = runner._EventDrivenLoop._round

    def recording(loop, now):
        clock = loop.now_us
        returned = original(loop, now)
        calls.append((now, clock, returned))
        return returned

    monkeypatch.setattr(runner._EventDrivenLoop, "_round", recording)
    return calls


def _capture_loops(monkeypatch):
    """Collect every ``_EventDrivenLoop`` a run constructs."""
    loops = []
    original = runner._EventDrivenLoop.__init__

    def capturing(loop, *args, **kwargs):
        original(loop, *args, **kwargs)
        loops.append(loop)

    monkeypatch.setattr(runner._EventDrivenLoop, "__init__", capturing)
    return loops


class TestRoundLoop:
    """The run loop: each round returns the next round's start, or
    ``None`` once the observation window has closed."""

    def test_rounds_start_in_time_order(self, monkeypatch):
        calls = _record_rounds(monkeypatch)
        run_simulation(three_pair_scenario(), "n+", seed=3, config=LIGHT)
        starts = [now for now, _, _ in calls]
        assert starts[0] == 0.0
        assert len(set(starts)) > 2
        assert all(a <= b for a, b in zip(starts, starts[1:]))

    def test_each_round_starts_where_the_previous_one_said(self, monkeypatch):
        calls = _record_rounds(monkeypatch)
        run_simulation(three_pair_scenario(), "n+", seed=3, config=FAST)
        assert len(calls) > 2
        for (_, _, returned), (now, _, _) in zip(calls, calls[1:]):
            assert now == returned

    def test_the_clock_is_the_start_of_the_round_being_played(self, monkeypatch):
        calls = _record_rounds(monkeypatch)
        run_simulation(three_pair_scenario(), "n+", seed=3, config=LIGHT)
        assert all(clock == now for now, clock, _ in calls)

    def test_the_run_ends_at_the_first_start_past_the_window(self, monkeypatch):
        calls = _record_rounds(monkeypatch)
        metrics = run_simulation(three_pair_scenario(), "n+", seed=3, config=FAST)
        returned = [next_round for _, _, next_round in calls]
        assert returned[-1] is None and None not in returned[:-1]
        last = calls[-1][0]
        assert last >= FAST.duration_us
        assert all(now < FAST.duration_us for now, _, _ in calls[:-1])
        assert metrics.elapsed_us == last

    def test_a_round_may_start_at_the_current_time(self, monkeypatch):
        """Only a start *before* the clock is refused: a zero-length idle
        step replays the same instant and the run carries on."""
        original = runner._EventDrivenLoop._idle_poll_time
        stalled = []

        def stall_once(loop, now):
            if not stalled:
                stalled.append(now)
                return now
            return original(loop, now)

        monkeypatch.setattr(runner._EventDrivenLoop, "_idle_poll_time", stall_once)
        calls = _record_rounds(monkeypatch)
        metrics = run_simulation(three_pair_scenario(), "n+", seed=1, config=LIGHT)
        starts = [now for now, _, _ in calls]
        assert stalled and starts.count(stalled[0]) >= 2
        assert metrics.elapsed_us >= LIGHT.duration_us

    @pytest.mark.parametrize("outcome", ["finished", "raised"])
    def test_agents_are_detached_however_the_run_ends(self, monkeypatch, outcome):
        """Agents and the traffic arrays point at each other; the loop
        breaks that cycle when the run finishes and when it raises."""
        if outcome == "raised":
            monkeypatch.setattr(
                runner._EventDrivenLoop, "_idle_poll_time", lambda loop, now: now - 1.0
            )
        loops = _capture_loops(monkeypatch)
        if outcome == "raised":
            with pytest.raises(SimulationError):
                run_simulation(three_pair_scenario(), "n+", seed=1, config=LIGHT)
        else:
            run_simulation(three_pair_scenario(), "n+", seed=1, config=LIGHT)
        (loop,) = loops
        assert loop.agents
        assert all(
            agent._traffic_listener is None for agent in loop.agents.values()
        )

    def test_each_run_creates_one_plan_cache_through_the_module_name(
        self, monkeypatch
    ):
        """Tracers and the tests' never-hitting cache substitute
        ``repro.sim.runner.PlanCache``; every run must build its cache there."""
        created = []

        class CountingPlanCache(PlanCache):
            def __init__(self):
                super().__init__()
                created.append(self)

        monkeypatch.setattr(runner, "PlanCache", CountingPlanCache)
        loops = _capture_loops(monkeypatch)
        for seed in (3, 4):
            run_simulation(three_pair_scenario(), "n+", seed=seed, config=FAST)
        assert len(created) == 2
        assert [loop.plan_cache for loop in loops] == created
        assert all(cache.hits > 0 for cache in created)

class TestRunMany:
    def test_structure_of_results(self):
        results = run_sweep(
            "three-pair", ["802.11n", "n+"], n_runs=2, seed=0, config=FAST
        ).results
        assert set(results) == {"802.11n", "n+"}
        assert len(results["n+"]) == 2

    def test_nplus_beats_baseline_on_average(self):
        """The headline result: n+ delivers more total throughput than
        802.11n over a handful of runs (even short ones)."""
        config = SimulationConfig(duration_us=40_000.0, n_subcarriers=8)
        results = run_sweep(
            "three-pair", ["802.11n", "n+"], n_runs=4, seed=3, config=config
        ).results
        baseline = np.mean([m.total_throughput_mbps() for m in results["802.11n"]])
        nplus = np.mean([m.total_throughput_mbps() for m in results["n+"]])
        assert nplus > baseline
