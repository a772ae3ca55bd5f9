"""Link quarantine: the accounted, non-exceptional outcome of a guarded
numerical fallback during planning (see :mod:`repro.utils.guarded`)."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_agent
from oracles.runner import RecomputingPlanCache
from repro.mac.beamforming import BeamformingMac
from repro.mac.nplus import NPlusMac
from repro.sim import runner
from repro.sim.medium import Medium
from repro.sim.network import Network
from repro.sim.runner import RunSpec, SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import (
    heterogeneous_ap_scenario,
    scenario_factory,
    three_pair_scenario,
)


@pytest.fixture
def three_pair_network(rng):
    scenario = three_pair_scenario()
    network = Network(scenario.stations, scenario.pairs, rng, n_subcarriers=8)
    return scenario, network


@pytest.fixture
def heterogeneous_network(rng):
    scenario = heterogeneous_ap_scenario()
    network = Network(scenario.stations, scenario.pairs, rng, n_subcarriers=8)
    return scenario, network


class TestQuarantineMechanism:
    def test_quarantine_pins_the_link_epoch(self, three_pair_network, rng):
        scenario, network = three_pair_network
        agent = make_agent(NPlusMac, scenario.pairs[0], network, rng)
        receiver_id = agent.pair.receivers[0].node_id
        assert not agent.link_quarantined(receiver_id)
        agent.quarantine_link(receiver_id)
        assert agent.link_quarantined(receiver_id)
        assert agent._quarantine_signature() == (receiver_id,)

    def test_epoch_bump_lifts_the_quarantine(self, three_pair_network, rng):
        # A quarantine lasts exactly one channel epoch: when the channel
        # changes (a fade starts or ends), the link gets a fresh chance.
        scenario, network = three_pair_network
        agent = make_agent(NPlusMac, scenario.pairs[0], network, rng)
        receiver_id = agent.pair.receivers[0].node_id
        agent.quarantine_link(receiver_id)
        network.bump_link_epoch(agent.node_id, receiver_id)
        assert not agent.link_quarantined(receiver_id)
        assert agent._quarantine_signature() == ()

    def test_unrelated_epoch_bump_keeps_the_quarantine(
        self, three_pair_network, rng
    ):
        scenario, network = three_pair_network
        agent = make_agent(NPlusMac, scenario.pairs[0], network, rng)
        receiver_id = agent.pair.receivers[0].node_id
        agent.quarantine_link(receiver_id)
        other = scenario.pairs[1]
        network.bump_link_epoch(
            other.transmitter.node_id, other.receivers[0].node_id
        )
        assert agent.link_quarantined(receiver_id)


class TestQuarantinedPlanning:
    def test_plan_initial_skips_a_quarantined_receiver(
        self, heterogeneous_network, rng
    ):
        scenario, network = heterogeneous_network
        agent = make_agent(BeamformingMac, scenario.pairs[1], network, rng)  # two clients
        agent.refill(0.0)
        receiver_ids = [r.node_id for r in agent.pair.receivers]
        agent.quarantine_link(receiver_ids[0])
        streams = agent.plan_initial(0.0, Medium())
        assert streams
        assert {s.receiver_id for s in streams} == {receiver_ids[1]}
        assert agent.quarantined_rounds == 1

    def test_plan_initial_declines_when_every_receiver_is_quarantined(
        self, heterogeneous_network, rng
    ):
        scenario, network = heterogeneous_network
        agent = make_agent(BeamformingMac, scenario.pairs[1], network, rng)
        agent.refill(0.0)
        for receiver in agent.pair.receivers:
            agent.quarantine_link(receiver.node_id)
        assert agent.plan_initial(0.0, Medium()) == []
        assert agent.plan_initial(0.0, Medium()) == []
        # one count per declined/trimmed planning call
        assert agent.quarantined_rounds == 2

    def test_quarantine_does_not_count_without_traffic(
        self, three_pair_network, rng
    ):
        scenario, network = three_pair_network
        agent = make_agent(BeamformingMac, scenario.pairs[0], network, rng)
        agent.quarantine_link(agent.pair.receivers[0].node_id)
        # queues never refilled: no candidates, so nothing was suppressed
        assert agent.plan_initial(0.0, Medium()) == []
        assert agent.quarantined_rounds == 0


class TestQuarantineMetrics:
    def test_quarantined_rounds_surface_in_metrics(self):
        config = SimulationConfig(duration_us=4000.0, n_subcarriers=4)
        metrics = run_simulation(
            scenario_factory("three-pair")(), "n+", seed=3, config=config
        )
        payload = metrics.to_dict()
        for link in payload["links"].values():
            assert "quarantined_rounds" in link
            assert link["quarantined_rounds"] >= 0

    @pytest.mark.parametrize("protocol", ["beamforming", "n+"])
    def test_a_nan_channel_is_quarantined_not_raised(self, protocol):
        """A non-finite channel reaches planning: the guards zero it and
        flag the member, the planner quarantines the link, and the run
        completes with finite metrics."""
        pair = heterogeneous_ap_scenario().pairs[-1]
        tx, rx = pair.transmitter.node_id, pair.receivers[0].node_id
        metrics = _poisoned_run(protocol, tx, rx)
        assert metrics.links[pair.name].quarantined_rounds > 0
        assert np.isfinite(metrics.total_throughput_mbps())

    @pytest.mark.parametrize("protocol", ["beamforming", "n+"])
    def test_a_degraded_run_does_not_depend_on_the_plan_cache(self, protocol, monkeypatch):
        """A cached plan keeps its degraded mask, so a hit quarantines what
        a miss would: the run equals one that recomputes every plan."""
        pair = heterogeneous_ap_scenario().pairs[-1]
        tx, rx = pair.transmitter.node_id, pair.receivers[0].node_id
        memoized = _poisoned_run(protocol, tx, rx).to_dict()
        monkeypatch.setattr(runner, "PlanCache", RecomputingPlanCache)
        assert _poisoned_run(protocol, tx, rx).to_dict() == memoized

    def test_a_nan_ongoing_link_declines_the_join(self):
        """A NaN on c1 -> AP1, the link of the ongoing reception a joiner
        must protect: AP1's announced decoding subspace degrades, so n+
        declines the join instead of raising, and quarantines none of
        the joiner's own links."""
        metrics = _poisoned_run("n+", 0, 1)
        assert np.isfinite(metrics.total_throughput_mbps())
        assert [link.quarantined_rounds for link in metrics.links.values()] == [0, 0]


def _poisoned_run(protocol, tx, rx):
    """``heterogeneous-ap`` at seed 0, 20 ms, with link ``tx -> rx`` NaN."""
    scenario = heterogeneous_ap_scenario()
    config = RunSpec.resolve(scenario, SimulationConfig(duration_us=20_000.0, n_subcarriers=8))
    network = build_network(scenario, 0, config)
    nan = np.full_like(network.channels.channel(tx, rx), np.nan)
    network.channels.update_links([(tx, rx, nan, network.channels.snr_db(tx, rx))])
    return run_simulation(scenario, protocol, seed=0, config=config, network=network)
