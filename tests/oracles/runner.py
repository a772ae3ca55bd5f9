"""Runner oracles: the slot-polling loop, the per-agent round queries and
uncached planning.

The production runner (:mod:`repro.sim.runner`) is a round loop that
jumps idle gaps, memoizes planning, and asks its per-round queries as
array operations over :class:`~repro.sim.traffic.TrafficStateArrays`.
These are the readable formulations it is asserted bit-identical against:

* :func:`run_simulation_condensed_reference` -- the original ``while``
  loop that polls every 9 us slot and asks every agent every round;
* :class:`PerAgentLoop` -- the round loop with its three query
  hooks replaced by plain per-agent scans (swap it in with
  ``monkeypatch.setattr(runner, "_EventDrivenLoop", PerAgentLoop)``);
  the scans ask :func:`has_traffic` and :func:`can_join`, the per-agent
  forms of the runner's array queries;
* :class:`RecomputingPlanCache` -- a plan cache that never hits (swap it
  in with ``monkeypatch.setattr(runner, "PlanCache",
  RecomputingPlanCache)``), so every plan is computed from scratch: the
  run the memoized planning is asserted bit-identical against;
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

from repro.constants import MAX_ROUNDS, MIN_JOIN_AIRTIME_US, SLOT_TIME_US
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.variants import ProtocolLike, resolve_protocol
from repro.mac.csma import resolve_contention
from repro.mac.plan import PlanCache
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
    run_simulation,
)
from repro.sim.scenarios import Scenario
from repro.sim.spec import mac_seed, placement_seed


def has_traffic(agent, now_us: float) -> bool:
    """Whether ``agent`` wants to contend right now (refilling first)."""
    agent.refill(now_us)
    return any(queue.has_traffic for queue in agent.queues.values())


def _next_traffic_time_us(agent, now_us: float) -> float:
    """Earliest time ``agent`` could want to contend again: ``now_us`` when
    a queue is backlogged, else the earliest upcoming arrival (``now_us``
    for a source that is always backlogged)."""
    times: List[float] = []
    for receiver_id, queue in agent.queues.items():
        if queue.has_traffic:
            return now_us
        source = agent.sources[receiver_id]
        if getattr(source, "always_backlogged", False):
            times.append(now_us)
        else:
            times.append(source.next_packet_time_us(now_us))
    return min(times) if times else float("inf")


def can_join(agent, now_us: float, medium: Medium, min_airtime_us: float) -> bool:
    """n+'s eligibility for secondary contention (multi-dimensional
    carrier sense says the next degree of freedom is free); ``False`` for
    an agent that does not join."""
    if not agent.supports_joining or not medium.busy:
        return False
    if not has_traffic(agent, now_us):
        return False
    used = medium.used_degrees_of_freedom
    if agent.n_antennas <= used:
        return False
    if agent.node_id in medium.transmitting_nodes():
        return False
    if agent.node_id in medium.receiving_nodes():
        return False
    if medium.current_end_us - now_us < min_airtime_us:
        return False
    # At least one of its receivers must have a spare dimension left
    # after projecting out the ongoing streams.
    return any(
        agent.network.station(r.node_id).n_antennas > used
        and agent.queues[r.node_id].has_traffic
        for r in agent.pair.receivers
    )


class RecomputingPlanCache(PlanCache):
    """A plan cache that never hits: every lookup recomputes its value."""

    def get(self, key: tuple, compute):
        self.misses += 1
        return compute()


class PerAgentLoop(_EventDrivenLoop):
    """The round loop with every per-round query asked agent by agent."""

    def _contending_agents(self, now: float) -> List[object]:
        return [agent for agent in self.agents.values() if has_traffic(agent, now)]

    def _next_traffic_time_us(self, now: float) -> float:
        return min(
            (_next_traffic_time_us(agent, now) for agent in self.agents.values()),
            default=float("inf"),
        )

    def _join_eligible(self, now: float, exhausted: set) -> List[object]:
        return [
            agent
            for agent in self.agents.values()
            if agent.node_id not in exhausted
            and can_join(agent, now, self.medium, MIN_JOIN_AIRTIME_US)
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
    runner's round loop jumps idle gaps instead, and recomputes every
    plan.  Fault-, fidelity- and validation-free configurations only.
    """
    config = RunSpec.resolve(scenario, config)
    # Faults, fidelity escalation and validation all hook into the runner
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
    agents = _build_agents(
        scenario, network, protocol, rng, config, seed, RecomputingPlanCache()
    )
    medium = Medium()
    metrics = NetworkMetrics()
    for pair in scenario.pairs:
        metrics.link(pair.name)

    now = 0.0
    rounds = 0
    while now < config.duration_us:
        contending = [agent for agent in agents.values() if has_traffic(agent, now)]
        if not contending:
            now += SLOT_TIME_US
            continue

        rounds += 1
        if rounds > MAX_ROUNDS:
            raise SimulationError("simulation exceeded the round budget")

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
                    if agent.node_id not in exhausted
                    and can_join(agent, sense_start, medium, MIN_JOIN_AIRTIME_US)
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
                if join_body_start + MIN_JOIN_AIRTIME_US > medium.current_end_us:
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
