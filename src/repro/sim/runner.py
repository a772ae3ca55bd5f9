"""The main simulation loop: contention, transmission, join, delivery.

The simulation advances round by round, where one round is one joint
transmission on the medium:

1. every backlogged node contends (condensed DCF); the winner starts
   transmitting after DIFS + backoff + its light-weight header;
2. if the protocol supports joining (n+), secondary contention rounds run
   while degrees of freedom and airtime remain; every joiner ends exactly
   with the first winner;
3. when the bodies end, each receiver's outcome is evaluated from the
   post-projection SNRs of its streams (with the residual interference of
   imperfect nulling/alignment included), ACKs are exchanged and queues
   and contention windows are updated.

Rounds run in one plain loop: each round returns the time the next one
starts, and idle gaps between Poisson arrivals are crossed in a single
step to the first busy slot instead of being polled slot by slot, so
lightly-loaded or many-node simulations do not pay for empty airtime.

The per-round MAC queries themselves are batched: agents mirror their
traffic state into :class:`~repro.sim.traffic.TrafficStateArrays` and
the runner evaluates the ``has_traffic`` / ``next_traffic_time_us`` /
join-eligibility masks for all agents with a handful of array operations
per round, instead of one Python call per agent -- the difference
between a 6-station paper topology and the ``dense-lan-100/200``
scenarios.  The slot-polling loop and the per-agent scans the round loop
is asserted bit-identical against live in the test suite's oracles
(``tests/oracles/runner.py``).

The per-run environment (placements, channels) is frozen in a
:class:`~repro.sim.network.Network`, so different protocols can be
compared on identical channel realisations, as the paper does by running
all schemes at each set of node locations.  Channel-*estimation* noise is
drawn from a stream seeded per simulation
(:meth:`~repro.sim.network.Network.reseed_estimation_noise`), which makes
every ``(scenario, protocol, seed, config)`` simulation a pure function
of its arguments -- the property the parallel sweep orchestrator
(:mod:`repro.sim.sweep`) relies on to fan runs out across worker
processes and still match a serial sweep byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.constants import MAX_ROUNDS, MIN_JOIN_AIRTIME_US, SLOT_TIME_US
from repro.exceptions import SimulationError
from repro.mac.csma import resolve_contention
from repro.mac.plan import PlanCache
from repro.mac.variants import ProtocolLike, resolve_protocol
from repro.phy.esnr import packet_delivery_probability
from repro.sim.faults import FaultInjector, FaultSchedule, fault_profile
from repro.sim.fidelity import FidelityEngine
from repro.sim.invariants import InvariantSuite
from repro.sim.link_abstraction import receiver_stream_snrs
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.metrics import NetworkMetrics
from repro.sim.network import Network
from repro.sim.scenarios import Scenario
from repro.sim.spec import RunSpec, SimulationConfig
from repro.sim.traffic import TrafficStateArrays

__all__ = [
    "run_simulation",
    "build_network",
    "build_fault_schedule",
]

#: Stream tag mixed into the simulation seed for channel-estimation noise,
#: so the estimation stream is decorrelated from backoff/delivery draws.
_ESTIMATION_STREAM_TAG = 0x657374  # "est"

#: Stream tag mixed into the simulation seed for Poisson packet arrivals.
#: Every (transmitter, receiver) flow draws its arrivals from its own
#: stream seeded ``(seed, tag, tx, rx)``, so arrival sequences do not
#: depend on the order agents are built or refilled in -- the same
#: order-independence contract channel-estimation noise already has.
_ARRIVAL_STREAM_TAG = 0x617272  # "arr"


@dataclass
class _TransmissionGroup:
    """One (transmitter, receiver) reception to evaluate at the end."""

    agent: object
    receiver_id: int
    streams: List[ScheduledStream]
    payload_bits: int
    collided: bool = False
    joined: bool = False


def build_fault_schedule(
    scenario: Scenario, config: Union[SimulationConfig, RunSpec], seed
) -> Optional[FaultSchedule]:
    """Materialise the run's fault episodes, or ``None`` for none.

    This is *the* definition of how a (scenario, config, seed) triple
    becomes a fault schedule -- :func:`run_simulation` and the crash
    capsules both resolve faults here.  Profile episodes are generated
    from dedicated ``(seed, FAULT_STREAM_TAG, ...)`` streams; trace
    episodes are appended verbatim.  Returns ``None`` when nothing is
    configured or everything generated empty, so the caller's no-fault
    path is exactly the pre-fault code.
    """
    run_spec = RunSpec.resolve(scenario, config)
    episodes = []
    if run_spec.fault_profile is not None:
        profile = fault_profile(run_spec.fault_profile)
        schedule = FaultSchedule.from_profile(
            profile, scenario, seed, run_spec.duration_us
        )
        episodes.extend(schedule.episodes)
    episodes.extend(run_spec.trace_episodes)
    if not episodes:
        return None
    return FaultSchedule(episodes)


def _build_agents(
    scenario: Scenario,
    network: Network,
    protocol: ProtocolLike,
    rng: np.random.Generator,
    run_spec: RunSpec,
    seed: int,
    plan_cache: PlanCache,
) -> Dict[int, object]:
    spec = resolve_protocol(protocol)
    agent_class = spec.agent_class
    arrival_seed = (seed, _ARRIVAL_STREAM_TAG)
    agents: Dict[int, object] = {}
    for pair in scenario.pairs:
        agents[pair.transmitter.node_id] = agent_class(
            pair,
            network,
            rng,
            packet_rate_pps=run_spec.packet_rate_pps,
            arrival_seed=arrival_seed,
            plan_cache=plan_cache,
            spec=spec,
        )
    return agents


def _groups_from_streams(
    agent, streams: Sequence[ScheduledStream], collided: bool, joined: bool
) -> List[_TransmissionGroup]:
    groups: Dict[int, _TransmissionGroup] = {}
    for stream in streams:
        group = groups.get(stream.receiver_id)
        if group is None:
            group = _TransmissionGroup(
                agent=agent,
                receiver_id=stream.receiver_id,
                streams=[],
                payload_bits=0,
                collided=collided,
                joined=joined,
            )
            groups[stream.receiver_id] = group
        group.streams.append(stream)
        group.payload_bits += stream.payload_bits
    return [g for g in groups.values() if g.payload_bits > 0 or g.collided]


def _evaluate_group(
    network: Network,
    group: _TransmissionGroup,
    all_streams: Sequence[ScheduledStream],
    rng: np.random.Generator,
    fidelity: Optional[FidelityEngine] = None,
) -> bool:
    """Decide whether the group's payload was delivered."""
    if group.collided:
        return False
    if group.payload_bits <= 0:
        return False
    snrs = receiver_stream_snrs(
        network, group.receiver_id, group.streams, list(all_streams), rng=rng
    )
    probability = 1.0
    for stream in group.streams:
        per_subcarrier = snrs[stream.stream_id]
        probability = min(
            probability,
            packet_delivery_probability(per_subcarrier, stream.mcs, group.payload_bits),
        )
    # The abstraction's coin is drawn unconditionally so the main
    # generator consumes the identical stream under every fidelity tier.
    delivered = bool(rng.random() < probability)
    if fidelity is not None:
        verdict = fidelity.override_verdict(
            group.agent.node_id, group.receiver_id, group.streams, all_streams, snrs
        )
        if verdict is not None:
            delivered = verdict
    return delivered


def _slot_aligned_idle_end(
    now_us: float, next_arrival_us: float, duration_us: float
) -> float:
    """First slot boundary at or past the next arrival (or window end).

    Bit-for-bit equal to stepping the clock one 9 us slot at a time (the
    slot-polling loop's ``time += SLOT_TIME_US``, kept as the test
    oracle): the slot times are generated with ``np.cumsum`` over
    ``[now + slot, slot, slot, ...]``, whose sequential left-to-right
    float64 additions reproduce that accumulation exactly (a closed form
    ``now + k * slot`` would round differently).
    The boundary slot is then located with a binary search, in bounded
    chunks so a day-long gap cannot allocate an unbounded array.
    """
    target = min(next_arrival_us, duration_us)
    time = now_us + SLOT_TIME_US
    while time < target:
        estimated_steps = (target - time) / SLOT_TIME_US
        size = int(min(max(estimated_steps + 2.0, 16.0), 65536.0))
        steps = np.full(size, SLOT_TIME_US)
        steps[0] = time
        times = np.cumsum(steps)
        index = int(np.searchsorted(times, target, side="left"))
        if index < size:
            return float(times[index])
        time = float(times[-1])
    return time


class _EventDrivenLoop:
    """Drives the contention/transmission rounds of one run.

    :meth:`run` is a plain loop over rounds: :meth:`_round` resolves
    contention at ``now``, plays out the joint transmission exactly like a
    slot-polling loop would (the test suite keeps one as an oracle), and
    returns the time that loop would have reached -- or ``None`` once the
    observation window has closed.  Idle gaps (all queues empty, next
    Poisson arrival in the future) are crossed in a single step to the
    first busy slot, instead of one iteration per 9 us slot, which is what
    lets the runner scale to many lightly-loaded nodes.

    The per-round queries -- who has traffic, when does traffic arrive
    next, who may join -- are computed for all agents at once from the
    incrementally maintained :class:`~repro.sim.traffic.TrafficStateArrays`,
    so a round costs Python-level work only for the agents whose state
    changed (participants and due Poisson arrivals) plus O(1) array
    operations, instead of one ``has_traffic`` / ``can_join`` call per
    agent.  The three queries are the hooks :meth:`_contending_agents`,
    :meth:`_next_traffic_time_us` and :meth:`_join_eligible`; the test
    suite's per-agent oracle overrides them with plain scans and asserts
    bit-identical metrics.
    """

    def __init__(
        self,
        scenario: Scenario,
        protocol: ProtocolLike,
        rng: np.random.Generator,
        config: Union[SimulationConfig, RunSpec],
        network: Network,
        seed: int,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.run_spec = run_spec = RunSpec.resolve(scenario, config)
        self.rng = rng
        self.network = network
        # One cache per run, created through this module's ``PlanCache``
        # name so a tracer or a test can substitute it.
        self.plan_cache = PlanCache()
        self.agents = _build_agents(
            scenario, network, protocol, rng, run_spec, seed, self.plan_cache
        )
        self.medium = Medium()
        self.metrics = NetworkMetrics()
        for pair in scenario.pairs:
            self.metrics.link(pair.name)
        #: Start time of the current round; never moves backwards.
        self.now_us = 0.0
        self.rounds = 0
        # No injector for an empty/absent schedule: every fault hook in
        # _round() is behind an ``is not None`` check, so the no-fault
        # execution path is exactly the pre-fault one (strict no-op).
        self.faults: Optional[FaultInjector] = None
        if fault_schedule is not None and not fault_schedule.empty:
            self.faults = FaultInjector(fault_schedule, network, seed)
        # No engine under "abstraction": the delivery path is exactly the
        # pre-fidelity code (strict no-op), like the fault hooks above.
        self.fidelity: Optional[FidelityEngine] = None
        if run_spec.fidelity != "abstraction":
            self.fidelity = FidelityEngine(
                network,
                seed,
                mode=run_spec.fidelity,
                band_db=run_spec.fidelity_band_db,
            )
        # No suite under "off": every invariant hook is behind an
        # ``is not None`` check, so the unvalidated path is exactly the
        # pre-invariant one (strict no-op, like faults and fidelity).
        self.invariants: Optional[InvariantSuite] = None
        if run_spec.validation != "off":
            self.invariants = InvariantSuite(run_spec.validation)
        # Last-N round summaries for crash capsules: when a run dies, the
        # runner boundary attaches this ring to the exception so the
        # capsule records what the simulation was doing when it crashed.
        self.event_ring: deque = deque(maxlen=64)
        self.arrays = TrafficStateArrays(self.agents.values())

    def run(self) -> NetworkMetrics:
        """Run rounds until the observation window closes.

        Time never moves backwards: a round that would start before the
        current one raises :class:`~repro.exceptions.SimulationError`.

        However the run ends, every agent's traffic listener is detached:
        agents and :class:`~repro.sim.traffic.TrafficStateArrays` point at
        each other, and the agents hold the network, so that cycle would
        otherwise keep a finished run's network alive until the cyclic
        garbage collector runs.
        """
        try:
            next_round: Optional[float] = 0.0
            while next_round is not None:
                if next_round < self.now_us:
                    raise SimulationError(
                        f"cannot start a round at {next_round} us, "
                        f"current time is {self.now_us} us"
                    )
                self.now_us = next_round
                next_round = self._round(next_round)
            if self.faults is not None:
                self.faults.finalize()
            for agent in self.agents.values():
                link = self.metrics.link(agent.name)
                link.packets_dropped = sum(
                    queue.dropped_packets for queue in agent.queues.values()
                )
                link.quarantined_rounds = agent.quarantined_rounds
            self.metrics.elapsed_us = self.now_us
            if self.invariants is not None:
                # One closing pass over the final accounting (the last
                # round's check ran before packets_dropped/
                # quarantined_rounds landed).
                self.invariants.check_round(self)
            return self.metrics
        finally:
            for agent in self.agents.values():
                agent.attach_traffic_listener(None)

    # -- per-round queries ------------------------------------------------------

    def _contending_agents(self, now: float) -> List[object]:
        """Agents that want to contend right now (refills their queues)."""
        arrays = self.arrays
        due = arrays.refill_due(now)
        if due.any():
            arrays.refill(now, due)
        backlogged = arrays.backlogged
        if not backlogged.any():
            return []
        if backlogged.all():
            return arrays.agents
        return [arrays.agents[index] for index in np.nonzero(backlogged)[0]]

    def _next_traffic_time_us(self, now: float) -> float:
        """Earliest time any agent could want to contend again."""
        return self.arrays.next_traffic_time_us(now)

    def _join_eligible(self, now: float, exhausted: set) -> List[object]:
        """Agents eligible for this secondary-contention round.

        The mask is n+'s join rule, stated here once and evaluated on the
        arrays for every agent class with ``supports_joining``: the medium
        is busy with enough airtime left, the agent is backlogged, idle,
        and both it and one of its backlogged receivers have an antenna
        beyond the degrees of freedom in use.
        """
        arrays, medium = self.arrays, self.medium
        joinable = arrays.supports_joining
        if exhausted:
            joinable = joinable & ~np.isin(arrays.node_ids, list(exhausted))
        if not joinable.any():
            return []
        # The per-agent rule refills every joinable agent before its other
        # checks -- replay those side effects first so Poisson pops land
        # at the same instants as per-agent scans would, then evaluate the
        # eligibility rule on the arrays.
        due = joinable & arrays.refill_due(now)
        if due.any():
            arrays.refill(now, due)
        if not medium.busy:
            return []
        if medium.current_end_us - now < MIN_JOIN_AIRTIME_US:
            return []
        used = medium.used_degrees_of_freedom
        mask = (
            joinable
            & arrays.backlogged
            & (arrays.n_antennas > used)
            & (arrays.join_rx_antennas > used)
        )
        if not mask.any():
            return []
        busy_nodes = medium.transmitting_nodes() + medium.receiving_nodes()
        mask &= ~np.isin(arrays.node_ids, busy_nodes)
        return [arrays.agents[index] for index in np.nonzero(mask)[0]]

    # -- rounds -----------------------------------------------------------------

    def _idle_poll_time(self, now: float) -> float:
        """First slot boundary at which an agent will have traffic.

        Mirrors slot-by-slot polling (including its quantisation to slot
        multiples of the current time and its stop at the window end)
        without calling into the agents at every slot.
        """
        return _slot_aligned_idle_end(
            now, self._next_traffic_time_us(now), self.run_spec.duration_us
        )

    def _round(self, now: float) -> Optional[float]:
        """Play the round starting at ``now``; return the next round's
        start, or ``None`` when the observation window has closed."""
        run_spec = self.run_spec
        if now >= run_spec.duration_us:
            return None

        faults = self.faults
        if faults is not None:
            # Episodes apply at round boundaries: fades/restores mutate
            # the channels (bumping epochs) and churn updates the
            # away-set before anyone contends or plans at `now`.
            faults.advance(now)

        contending = self._contending_agents(now)
        if faults is not None and contending:
            contending = [a for a in contending if faults.agent_active(a)]
        if not contending:
            wake = self._idle_poll_time(now)
            if faults is not None:
                # Never jump an idle gap over a fault boundary: a
                # returning station (or an ending fade) must be
                # re-examined the moment it happens.
                wake = min(wake, faults.next_boundary_us(now))
            return wake

        self.rounds += 1
        if self.rounds > MAX_ROUNDS:
            raise SimulationError("simulation exceeded the round budget")

        agents, medium, metrics, rng = self.agents, self.medium, self.metrics, self.rng
        outcome = resolve_contention([agent.contender for agent in contending], rng)
        self.event_ring.append(
            {
                "round": self.rounds,
                "now_us": now,
                "contenders": len(contending),
                "winners": list(outcome.winners),
                "collision": bool(outcome.collision),
            }
        )
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
                return now + outcome.start_delay_us
            medium.add_streams(streams)
            groups.extend(_groups_from_streams(winner, streams, collided=False, joined=False))
            metrics.link(winner.name).transmissions += 1
            ack_us = winner.ack_duration_us()

            # Secondary contention for the unused degrees of freedom.
            sense_start = body_start
            exhausted: set = set()
            while True:
                eligible = self._join_eligible(sense_start, exhausted)
                if faults is not None and eligible:
                    eligible = [a for a in eligible if faults.agent_active(a)]
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
                    # Every winner of this round was unable to join.
                    continue
            end_of_round = medium.current_end_us + ack_us

        # Evaluate deliveries with the final set of concurrent streams.
        all_streams = medium.active_streams
        for group in groups:
            delivered = _evaluate_group(
                self.network, group, all_streams, rng, self.fidelity
            )
            if faults is not None and delivered:
                # Loss episodes overlapping the group's body interval
                # lose the packet with their combined rate.  The coins
                # come from the dedicated delivery stream and are only
                # flipped when an episode actually overlaps, so runs
                # without overlap consume no fault randomness.  Under the
                # "erasure" recovery policy the payload rides as n coded
                # fragments of which any k reconstruct it, so the episode
                # must erase more than n - k fragments to cost the packet;
                # a decoded frame's erased share lands in recovered_bits
                # (and only then -- a lost frame recovers nothing, so no
                # bit is ever both recovered and dropped).
                body_start = min(s.start_us for s in group.streams)
                body_end = max(s.end_us for s in group.streams)
                rate = faults.loss_rate(
                    group.agent.node_id, group.receiver_id, body_start, body_end
                )
                if rate > 0.0:
                    recovering = group.agent
                    if recovering.recovery == "erasure":
                        erased = faults.draw_erasure(rate, recovering.erasure_n)
                        if erased > recovering.erasure_n - recovering.erasure_k:
                            delivered = False
                        elif erased > 0:
                            metrics.link(recovering.name).recovered_bits += (
                                group.payload_bits * erased
                            ) // recovering.erasure_n
                    elif faults.draw_loss(rate):
                        delivered = False
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
        if self.invariants is not None:
            self.invariants.check_round(self)
        return max(end_of_round, now + SLOT_TIME_US)


def run_simulation(
    scenario: Scenario,
    protocol: ProtocolLike,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    network: Optional[Network] = None,
    fault_schedule: Optional[FaultSchedule] = None,
) -> NetworkMetrics:
    """Simulate one run of ``protocol`` on ``scenario``.

    The result is a pure function of the arguments: the same
    ``(scenario, protocol, seed, config)`` always yields the same
    :class:`~repro.sim.metrics.NetworkMetrics`, no matter what else was
    simulated before (channel-estimation noise gets its own stream seeded
    from ``seed``).  This is the contract the sweep cache and the parallel
    orchestrator of :mod:`repro.sim.sweep` build on.  The pure per-round
    planning math is memoized in a :class:`~repro.mac.plan.PlanCache`
    created for this run alone.

    Parameters
    ----------
    scenario:
        The topology (stations and traffic pairs).  Scenarios can carry a
        custom testbed (dense LANs need more candidate locations) and a
        suggested Poisson packet rate; both are honoured here.
    protocol:
        Any form :func:`~repro.mac.variants.resolve_protocol` accepts: a
        variant name (``"csma"``, ``"802.11n"``, ``"n+"``,
        ``"beamforming"``), a parameterised string
        (``"n+[recovery=erasure]"``) or a
        :class:`~repro.mac.variants.ProtocolSpec`.  A bare name is
        exactly a default-parameter spec.
    seed:
        Seed for placements, channels, backoff and delivery draws.
    config:
        Simulation parameters; defaults to :class:`SimulationConfig()`.
        A :class:`RunSpec` already resolved for ``scenario`` is used as
        is (a sweep resolves once and passes the spec to every cell).
    network:
        Reuse an existing network (same placements/channels) instead of
        drawing a new one -- this is how protocols are compared on the
        same channel realisation.
    fault_schedule:
        An explicit :class:`~repro.sim.faults.FaultSchedule` to inject,
        overriding whatever :func:`build_fault_schedule` would resolve
        from the scenario/config (mainly a test hook).  ``None`` (the
        default) resolves the schedule from the run's resolved fault
        profile and trace; an *empty* schedule
        -- explicit or resolved -- is a strict no-op, bit-identical to
        a fault-free run.
    """
    protocol = resolve_protocol(protocol)
    run_spec = RunSpec.resolve(scenario, config)
    if fault_schedule is None:
        fault_schedule = build_fault_schedule(scenario, run_spec, seed)
    rng = np.random.default_rng(seed)
    if network is None:
        network = Network(
            scenario.stations,
            scenario.pairs,
            rng,
            testbed=scenario.make_testbed(),
            n_subcarriers=run_spec.n_subcarriers,
            channel_draws=run_spec.channel_draws,
        )
    network.reseed_estimation_noise((seed, _ESTIMATION_STREAM_TAG))
    loop = _EventDrivenLoop(
        scenario,
        protocol,
        rng,
        run_spec,
        network,
        seed=seed,
        fault_schedule=fault_schedule,
    )
    try:
        return loop.run()
    except Exception as exc:
        # Attach the last-N round summaries so the crash-capsule writer
        # (repro.sim.capsule) can record what the run was doing; the
        # exception itself propagates unchanged.
        exc._repro_event_ring = list(loop.event_ring)
        raise


def build_network(
    scenario: Scenario, run_seed: int, config: Union[SimulationConfig, RunSpec]
) -> Network:
    """Draw the placements and channels of one run.

    This is *the* definition of how a run seed becomes a network -- the
    sweep orchestrator and crash-capsule replays both build their
    networks here, which is what keeps serial, parallel, cached and
    replayed results in lockstep.
    """
    run_spec = RunSpec.resolve(scenario, config)
    return Network(
        scenario.stations,
        scenario.pairs,
        np.random.default_rng(run_seed),
        testbed=scenario.make_testbed(),
        n_subcarriers=run_spec.n_subcarriers,
        channel_draws=run_spec.channel_draws,
    )
