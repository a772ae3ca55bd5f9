"""Runner oracles: the slot-polling loop and the per-agent round queries.

The production runner (:mod:`repro.sim.runner`) is an event-driven loop
whose per-round queries are array operations over
:class:`~repro.sim.traffic.TrafficStateArrays`.  These are the readable
formulations it is asserted bit-identical against:

* :func:`run_simulation_condensed_reference` -- the original ``while``
  loop that polls every 9 us slot and asks every agent every round;
* :class:`PerAgentLoop` -- the event-driven loop with its three query
  hooks replaced by plain per-agent scans (swap it in with
  ``monkeypatch.setattr(runner, "_EventDrivenLoop", PerAgentLoop)``);
* :func:`slot_aligned_idle_end_reference` -- the slot-by-slot walk
  across an idle gap that :func:`repro.sim.runner._slot_aligned_idle_end`
  computes in chunked ``cumsum`` blocks;
* :func:`run_many` -- the serial placement x protocol loop that
  :func:`repro.sim.sweep.run_sweep` (parallel, cached, resumable) is
  asserted byte-identical against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.constants import SLOT_TIME_US
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.variants import ProtocolLike, resolve_protocol
from repro.mac.csma import resolve_contention
from repro.sim.medium import Medium
from repro.sim.metrics import NetworkMetrics
from repro.sim.network import Network
from repro.sim.runner import (
    _ESTIMATION_STREAM_TAG,
    RunSpec,
    SimulationConfig,
    _build_agents,
    _evaluate_group,
    _EventDrivenLoop,
    _groups_from_streams,
    _TransmissionGroup,
    build_fault_schedule,
    build_network,
    mac_seed,
    placement_seed,
    run_simulation,
)
from repro.sim.scenarios import Scenario


class PerAgentLoop(_EventDrivenLoop):
    """The event loop with every per-round query asked agent by agent."""

    def _contending_agents(self, now: float) -> List[object]:
        return [agent for agent in self.agents.values() if agent.has_traffic(now)]

    def _next_traffic_time_us(self, now: float) -> float:
        return min(
            (agent.next_traffic_time_us(now) for agent in self.agents.values()),
            default=float("inf"),
        )

    def _join_eligible(self, now: float, exhausted: set) -> List[object]:
        return [
            agent
            for agent in self.agents.values()
            if agent.supports_joining
            and agent.node_id not in exhausted
            and agent.can_join(now, self.medium, self.run_spec.min_join_airtime_us)
        ]


def slot_aligned_idle_end_reference(
    now_us: float, next_arrival_us: float, duration_us: float
) -> float:
    """Step the clock one slot at a time until the next arrival (or the
    window end), accumulating floating-point rounding along the way."""
    time = now_us + SLOT_TIME_US
    while time < next_arrival_us and time < duration_us:
        time += SLOT_TIME_US
    return time


def run_simulation_condensed_reference(
    scenario: Scenario,
    protocol: ProtocolLike,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    network: Optional[Network] = None,
) -> NetworkMetrics:
    """The original slot-polling ``while`` loop.

    Pays one iteration per 9 us slot of idle airtime, which is why the
    event-driven loop replaced it.  Fault-, fidelity- and
    validation-free configurations only.
    """
    config = RunSpec.resolve(scenario, config)
    # Faults, fidelity escalation and validation all hook into the event
    # loop's round boundaries, which this loop does not have: refuse them
    # rather than silently ignore them.
    if build_fault_schedule(scenario, config, seed) is not None:
        raise ConfigurationError(
            "the condensed reference loop does not support fault injection; "
            "use run_simulation (or disable faults with fault_profile='none')"
        )
    if config.fidelity != "abstraction":
        raise ConfigurationError(
            "the condensed reference loop predates the fidelity layer; "
            "use run_simulation (or fidelity='abstraction')"
        )
    if config.validation != "off":
        raise ConfigurationError(
            "the condensed reference loop predates the invariant layer; "
            "use run_simulation (or validation='off')"
        )
    rng = np.random.default_rng(seed)
    if network is None:
        network = Network(
            scenario.stations,
            scenario.pairs,
            rng,
            testbed=scenario.make_testbed(),
            n_subcarriers=config.n_subcarriers,
            channel_draws=config.channel_draws,
        )
    network.reseed_estimation_noise((seed, _ESTIMATION_STREAM_TAG))
    agents = _build_agents(scenario, network, protocol, rng, config, seed)
    medium = Medium()
    metrics = NetworkMetrics()
    for pair in scenario.pairs:
        metrics.link(pair.name)

    now = 0.0
    rounds = 0
    while now < config.duration_us:
        contending = [agent for agent in agents.values() if agent.has_traffic(now)]
        if not contending:
            now += SLOT_TIME_US
            continue

        rounds += 1
        if rounds > config.max_rounds:
            raise SimulationError("simulation exceeded the configured round budget")

        outcome = resolve_contention([agent.contender for agent in contending], rng)
        groups: List[_TransmissionGroup] = []

        if outcome.collision:
            # Every collided winner transmits; all of their frames are lost.
            end_max = now + outcome.start_delay_us
            ack_us = 0.0
            for node_id in outcome.winners:
                agent = agents[node_id]
                body_start = now + outcome.start_delay_us + agent.header_duration_us()
                streams = agent.plan_initial(body_start, medium)
                if not streams:
                    continue
                medium.add_streams(streams)
                groups.extend(_groups_from_streams(agent, streams, collided=True, joined=False))
                metrics.link(agent.name).collisions += 1
                end_max = max(end_max, max(s.end_us for s in streams))
                ack_us = max(ack_us, agent.ack_duration_us())
            end_of_round = end_max + ack_us
        else:
            winner = agents[outcome.winners[0]]
            body_start = now + outcome.start_delay_us + winner.header_duration_us()
            streams = winner.plan_initial(body_start, medium)
            if not streams:
                # Nothing to send after all (race with traffic); burn a slot.
                now += outcome.start_delay_us
                continue
            medium.add_streams(streams)
            groups.extend(_groups_from_streams(winner, streams, collided=False, joined=False))
            metrics.link(winner.name).transmissions += 1
            ack_us = winner.ack_duration_us()

            sense_start = body_start
            exhausted: set = set()
            while True:
                eligible = [
                    agent
                    for agent in agents.values()
                    if agent.supports_joining
                    and agent.node_id not in exhausted
                    and agent.can_join(sense_start, medium, config.min_join_airtime_us)
                ]
                if not eligible:
                    break
                join_round = resolve_contention([a.contender for a in eligible], rng)
                join_agents = [agents[node_id] for node_id in join_round.winners]
                join_body_start = (
                    sense_start
                    + join_round.start_delay_us
                    + max(a.header_duration_us() for a in join_agents)
                )
                if join_body_start + config.min_join_airtime_us > medium.current_end_us:
                    break
                added_any = False
                for agent in join_agents:
                    join_streams = agent.plan_join(join_body_start, medium)
                    if not join_streams:
                        exhausted.add(agent.node_id)
                        continue
                    medium.add_streams(join_streams)
                    groups.extend(
                        _groups_from_streams(
                            agent,
                            join_streams,
                            collided=join_round.collision,
                            joined=True,
                        )
                    )
                    link = metrics.link(agent.name)
                    link.joins += 1
                    if join_round.collision:
                        link.collisions += 1
                    added_any = True
                sense_start = join_body_start
                if not added_any:
                    continue
            end_of_round = medium.current_end_us + ack_us

        all_streams = medium.active_streams
        for group in groups:
            delivered = _evaluate_group(network, group, all_streams, rng)
            agent = group.agent
            link = metrics.link(agent.name)
            link.attempted_bits += group.payload_bits
            link.airtime_us += sum(s.duration_us for s in group.streams) / max(
                len(group.streams), 1
            )
            if delivered:
                link.delivered_bits += group.payload_bits
                link.packets_delivered += 1
            else:
                link.packets_failed += 1
            agent.record_outcome(
                group.receiver_id, group.payload_bits, delivered,
                collided=group.collided,
            )

        medium.clear()
        now = max(end_of_round, now + SLOT_TIME_US)

    for agent in agents.values():
        link = metrics.link(agent.name)
        link.packets_dropped = sum(
            queue.dropped_packets for queue in agent.queues.values()
        )
        link.quarantined_rounds = agent.quarantined_rounds
    metrics.elapsed_us = now
    return metrics


def run_many(
    scenario_factory: Callable[[], Scenario],
    protocols: Sequence[ProtocolLike],
    n_runs: int,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
) -> Dict[str, List[NetworkMetrics]]:
    """Simulate every protocol on ``n_runs`` placements, one cell at a time.

    Run ``r`` draws its network from ``placement_seed(seed, r)`` and
    simulates every protocol on it with ``mac_seed`` of that run seed.
    Returns ``{spec key: [metrics of run 0, run 1, ...]}``.
    """
    specs = [resolve_protocol(protocol) for protocol in protocols]
    results: Dict[str, List[NetworkMetrics]] = {spec.key: [] for spec in specs}
    for run in range(n_runs):
        run_seed = placement_seed(seed, run)
        scenario = scenario_factory()
        run_spec = RunSpec.resolve(scenario, config)
        network = build_network(scenario, run_seed, run_spec)
        for spec in specs:
            metrics = run_simulation(
                scenario,
                spec,
                seed=mac_seed(run_seed),
                config=run_spec,
                network=network,
            )
            results[spec.key].append(metrics)
    return results
