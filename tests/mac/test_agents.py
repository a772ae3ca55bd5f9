"""Tests for the protocol agents (802.11n, beamforming, n+)."""

import pytest

from helpers import make_agent
from oracles.runner import can_join
from repro.constants import BITRATE_MARGIN_DB
from repro.mac import agent as agent_module
from repro.mac.beamforming import BeamformingMac, distribute_streams
from repro.mac.dot11n import Dot11nMac
from repro.mac.nplus import NPlusMac
from repro.mimo.dof import InterferenceStrategy
from repro.sim.medium import Medium
from repro.sim import link_abstraction
from repro.sim.network import Network
from repro.sim.scenarios import heterogeneous_ap_scenario, three_pair_scenario


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


class TestDistributeStreams:
    def test_paper_allocation(self):
        assert distribute_streams(3, [2, 2]) == [2, 1]

    def test_everyone_gets_at_least_one_when_possible(self):
        assert distribute_streams(2, [2, 2]) == [1, 1]

    def test_respects_receive_antennas(self):
        assert distribute_streams(4, [1, 1]) == [1, 1]

    def test_single_receiver(self):
        assert distribute_streams(3, [3]) == [3]


def _spy_on_select_mcs(monkeypatch, module):
    """Record the margin of every ``module.select_mcs`` call."""
    margins = []
    real = module.select_mcs

    def spy(snrs, margin_db=0.0):
        margins.append(margin_db)
        return real(snrs, margin_db)

    monkeypatch.setattr(module, "select_mcs", spy)
    return margins


class TestBitrateMargin:
    def test_an_agent_built_outside_a_run_uses_the_runs_margin(
        self, heterogeneous_network, rng, monkeypatch
    ):
        """The margin is one constant, not a per-agent default that can
        disagree with the one a run passes.  AP2's two-receiver plan is
        measured by the agent itself, once per receiver."""
        margins = _spy_on_select_mcs(monkeypatch, agent_module)
        scenario, network = heterogeneous_network
        agent = make_agent(BeamformingMac, scenario.pairs[1], network, rng)
        agent.refill(0.0)
        assert agent.plan_initial(0.0, Medium())
        assert margins == [BITRATE_MARGIN_DB] * 2

    def test_the_idle_medium_table_uses_the_runs_margin(
        self, three_pair_network, rng, monkeypatch
    ):
        """An idle-medium plan reads its MCS from the network's solo-link
        table, which picks it with the same margin."""
        margins = _spy_on_select_mcs(monkeypatch, link_abstraction)
        scenario, network = three_pair_network
        agent = make_agent(Dot11nMac, scenario.pairs[2], network, rng)
        agent.refill(0.0)
        assert agent.plan_initial(0.0, Medium())
        assert margins == [BITRATE_MARGIN_DB]


class TestDot11nMac:
    def test_plan_initial_uses_all_usable_antennas(self, three_pair_network, rng):
        scenario, network = three_pair_network
        agent = make_agent(Dot11nMac, scenario.pairs[2], network, rng)
        agent.refill(0.0)
        streams = agent.plan_initial(100.0, Medium())
        assert len(streams) == 3
        assert all(s.receiver_id == 5 for s in streams)
        assert sum(s.payload_bits for s in streams) == 12000
        assert all(s.end_us > s.start_us for s in streams)

    def test_power_is_split_across_streams(self, three_pair_network, rng):
        scenario, network = three_pair_network
        agent = make_agent(Dot11nMac, scenario.pairs[1], network, rng)
        agent.refill(0.0)
        streams = agent.plan_initial(0.0, Medium())
        assert streams[0].power == pytest.approx(0.5)

    def test_round_robin_over_receivers(self, heterogeneous_network, rng):
        scenario, network = heterogeneous_network
        agent = make_agent(Dot11nMac, scenario.pairs[1], network, rng)  # AP2 with two clients
        agent.refill(0.0)
        first = agent.plan_initial(0.0, Medium())
        second = agent.plan_initial(0.0, Medium())
        assert first[0].receiver_id != second[0].receiver_id

    def test_no_traffic_returns_empty_plan(self, three_pair_network, rng):
        scenario, network = three_pair_network
        agent = make_agent(Dot11nMac, scenario.pairs[0], network, rng)
        # Do not refill: queues are empty.
        assert agent.plan_initial(0.0, Medium()) == []

    def test_does_not_join(self, three_pair_network, rng):
        scenario, network = three_pair_network
        agent = make_agent(Dot11nMac, scenario.pairs[2], network, rng)
        assert not agent.supports_joining
        assert not can_join(agent, 0.0, Medium(), 100.0)


class TestBeamformingMac:
    def test_serves_both_clients_at_once(self, heterogeneous_network, rng):
        scenario, network = heterogeneous_network
        agent = make_agent(BeamformingMac, scenario.pairs[1], network, rng)
        agent.refill(0.0)
        streams = agent.plan_initial(0.0, Medium())
        receivers = {s.receiver_id for s in streams}
        assert receivers == {3, 4}
        assert len(streams) == 3
        # Streams to one client are marked as protecting the other.
        for stream in streams:
            other = (receivers - {stream.receiver_id}).pop()
            assert stream.protected_receivers.get(other) is InterferenceStrategy.ALIGN

    def test_all_streams_end_together(self, heterogeneous_network, rng):
        scenario, network = heterogeneous_network
        agent = make_agent(BeamformingMac, scenario.pairs[1], network, rng)
        agent.refill(0.0)
        streams = agent.plan_initial(0.0, Medium())
        assert len({s.end_us for s in streams}) == 1


class TestNPlusMac:
    def _start_tx1(self, scenario, network, rng, medium):
        tx1_agent = make_agent(NPlusMac, scenario.pairs[0], network, rng)
        tx1_agent.refill(0.0)
        streams = tx1_agent.plan_initial(100.0, medium)
        medium.add_streams(streams)
        return tx1_agent, streams

    def test_eligibility_rules(self, three_pair_network, rng):
        scenario, network = three_pair_network
        medium = Medium()
        tx3_agent = make_agent(NPlusMac, scenario.pairs[2], network, rng)
        tx3_agent.refill(0.0)
        # Idle medium: nothing to join.
        assert not can_join(tx3_agent, 0.0, medium, 96.0)
        self._start_tx1(scenario, network, rng, medium)
        assert can_join(tx3_agent, 200.0, medium, 96.0)
        # A single-antenna node can never join.
        tx1_like = make_agent(NPlusMac, scenario.pairs[0], network, rng)
        assert not can_join(tx1_like, 200.0, medium, 96.0)

    def test_join_protects_ongoing_receiver(self, three_pair_network, rng):
        scenario, network = three_pair_network
        medium = Medium()
        self._start_tx1(scenario, network, rng, medium)
        tx3_agent = make_agent(NPlusMac, scenario.pairs[2], network, rng)
        tx3_agent.refill(0.0)
        streams = tx3_agent.plan_join(400.0, medium)
        assert streams is not None
        assert len(streams) == 2
        for stream in streams:
            assert 1 in stream.protected_receivers  # rx1 is protected
            assert stream.end_us == pytest.approx(medium.current_end_us)

    def test_join_respects_remaining_dof(self, three_pair_network, rng):
        scenario, network = three_pair_network
        medium = Medium()
        tx2_agent = make_agent(NPlusMac, scenario.pairs[1], network, rng)
        tx2_agent.refill(0.0)
        medium.add_streams(tx2_agent.plan_initial(100.0, medium))
        tx3_agent = make_agent(NPlusMac, scenario.pairs[2], network, rng)
        tx3_agent.refill(0.0)
        streams = tx3_agent.plan_join(400.0, medium)
        assert streams is not None
        assert len(streams) == 1  # 3 antennas - 2 ongoing streams

    def test_header_and_ack_overheads_exceed_baseline(self, three_pair_network, rng):
        scenario, network = three_pair_network
        nplus = make_agent(NPlusMac, scenario.pairs[2], network, rng)
        dot11n = make_agent(Dot11nMac, scenario.pairs[2], network, rng)
        assert nplus.header_duration_us() > dot11n.header_duration_us()
        assert nplus.ack_duration_us() > dot11n.ack_duration_us()

    def test_record_outcome_updates_queue_and_contention(self, three_pair_network, rng):
        scenario, network = three_pair_network
        agent = make_agent(NPlusMac, scenario.pairs[0], network, rng)
        agent.refill(0.0)
        backlog_before = agent.queues[1].backlog_bits
        delivered = agent.record_outcome(1, 12000, delivered=True)
        assert delivered == 12000
        assert agent.queues[1].backlog_bits <= backlog_before
        agent.record_outcome(1, 12000, delivered=False)
        assert agent.contender._cw > 15
