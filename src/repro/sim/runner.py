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

Rounds are driven by the indexed event queue of
:class:`~repro.sim.engine.EventScheduler`: each round is one scheduled
event, and idle gaps between Poisson arrivals are skipped in a single
event instead of being polled slot by slot, so lightly-loaded or
many-node simulations no longer pay for empty airtime.

The per-round MAC queries themselves are batched: agents mirror their
traffic state into :class:`~repro.sim.traffic.TrafficStateArrays` and
the runner evaluates the ``has_traffic`` / ``next_traffic_time_us`` /
join-eligibility masks for all agents with a handful of array operations
per round, instead of one Python call per agent -- the difference
between a 6-station paper topology and the ``dense-lan-100/200``
scenarios.  The slot-polling loop and the per-agent scans the event loop
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

import dataclasses
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.constants import SLOT_TIME_US
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.csma import resolve_contention
from repro.mac.plan import PlanCache
from repro.mac.variants import ProtocolLike, resolve_protocol
from repro.phy.esnr import packet_delivery_probability
from repro.sim.engine import EventScheduler
from repro.sim.faults import (
    FaultInjector,
    FaultSchedule,
    LossEpisode,
    fault_profile,
    read_trace,
)
from repro.sim.fidelity import DEFAULT_BAND_DB, FIDELITY_MODES, FidelityEngine
from repro.sim.invariants import VALIDATION_MODES, InvariantSuite
from repro.sim.link_abstraction import receiver_stream_snrs
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.metrics import NetworkMetrics
from repro.sim.network import Network, check_subcarrier_count
from repro.sim.scenarios import Scenario
from repro.sim.traffic import TrafficStateArrays

__all__ = [
    "SimulationConfig",
    "RunSpec",
    "run_simulation",
    "build_network",
    "build_fault_schedule",
    "placement_seed",
    "mac_seed",
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
class SimulationConfig:
    """Parameters of one simulation run.

    The config is resolved against the scenario's hints into a
    :class:`RunSpec`, whose key payload is part of the results-cache key
    used by :mod:`repro.sim.sweep`: two runs with equal resolved specs
    (and equal scenario, protocol and seed) produce identical metrics,
    and any change to a resolved value invalidates the cached entry.

    Attributes
    ----------
    duration_us:
        Length of the observation window in simulated microseconds.  The
        last transmission round may run past it; the metrics normalise by
        the actual elapsed time.
    packet_size_bytes:
        Payload of every generated packet (1500 in the paper).
    n_subcarriers:
        Number of OFDM data subcarriers tracked by the link abstraction,
        between 1 and 48.  16 keeps runs fast while retaining frequency
        selectivity; 48 tracks every data subcarrier; 8 is a common
        test/CI setting.
    min_join_airtime_us:
        A joiner needs at least this much airtime left in the ongoing
        transmission to bother joining (n+ only).
    bitrate_margin_db:
        Safety margin subtracted from the measured effective SNR before
        selecting a bitrate.
    max_rounds:
        Hard cap on transmission rounds (guards against runaway loops); a
        run that exceeds it raises :class:`~repro.exceptions.SimulationError`.
    packet_rate_pps:
        Per-flow Poisson packet arrival rate; a positive rate models
        bursty traffic.  ``None`` (the default) defers to the scenario's
        hint (the bursty dense-LAN scenarios suggest one), else the
        saturated sources of the paper's evaluation; ``0`` forces
        saturated sources even on a bursty scenario.
    fault_profile:
        Name of a registered fault profile (:mod:`repro.sim.faults`) to
        inject -- deep fades, loss episodes, station churn.  ``None``
        defers to the scenario's hint (``"mixed"`` on the
        ``dense-lan-*-faulty`` variants); ``"none"`` or ``""`` disables
        faults even on such a scenario.
    fault_trace:
        Path to a JSON/CSV loss-trace file
        (:func:`repro.sim.faults.read_trace`) whose
        episodes are injected in addition to the profile's.  The cache
        key covers the file's *content*, not its path.
    fidelity:
        PHY fidelity tier (:mod:`repro.sim.fidelity`): ``"abstraction"``
        predicts every delivery from the link abstraction, ``"auto"``
        escalates receptions whose delivery margin falls inside the
        uncertainty band to a real transceiver probe whose verdict
        overrides the abstraction's coin, and ``"full"`` escalates every
        evaluated reception.  ``None`` defers to the scenario's hint,
        else ``"abstraction"``.
    fidelity_band_db:
        Half-width (dB) of the ``"auto"`` uncertainty band around the
        delivery cliff.  ``None`` defers to the scenario's hint, else
        :data:`repro.sim.fidelity.DEFAULT_BAND_DB`.
    validation:
        Runtime invariant checking (:mod:`repro.sim.invariants`):
        ``"off"`` (the default for ``None``) runs no checkers,
        ``"cheap"`` verifies the aggregate conservation laws at
        transmission-round boundaries, ``"full"`` additionally checks
        every link and queue each round (the mode ``repro replay``
        re-executes crash capsules under).  Validation never changes
        seeded results -- a violated invariant raises instead -- so it
        is left out of the sweep cache key.
    """

    duration_us: float = 100_000.0
    packet_size_bytes: int = 1500
    n_subcarriers: int = 16
    min_join_airtime_us: float = 96.0
    bitrate_margin_db: float = 1.0
    max_rounds: int = 200_000
    packet_rate_pps: Optional[float] = None
    fault_profile: Optional[str] = None
    fault_trace: Optional[str] = None
    fidelity: Optional[str] = None
    fidelity_band_db: Optional[float] = None
    validation: Optional[str] = None


@dataclass
class _TransmissionGroup:
    """One (transmitter, receiver) reception to evaluate at the end."""

    agent: object
    receiver_id: int
    streams: List[ScheduledStream]
    payload_bits: int
    collided: bool = False
    joined: bool = False


#: :class:`RunSpec` fields left out of its cache key: ``validation`` never
#: changes results (a violated invariant raises instead of altering the
#: run), and the parsed ``trace_episodes`` are covered by ``fault_trace``,
#: the SHA-256 of the trace file they were read from.
_UNKEYED_FIELDS = ("validation", "trace_episodes")


def _check_mode(name: str, modes: Sequence[str], what: str) -> None:
    if name not in modes:
        raise ConfigurationError(f"unknown {what} {name!r}; choose from {modes}")


@dataclass(frozen=True)
class RunSpec:
    """A :class:`SimulationConfig` with every scenario hint resolved.

    :meth:`resolve` is *the* resolution rule -- the only place where an
    explicit config value is merged with a scenario hint -- and every
    consumer (network build, fault schedule, agents, event loop, sweep
    keys, capsule replay, the fidelity report) reads the resolved values
    from here.  Fields keep their config names and hold the value in
    effect: ``channel_draws`` is the scenario's contract (``"batched"``
    unless it declares another), ``fault_trace`` the SHA-256 of the
    trace file's bytes (its episodes in ``trace_episodes``), and every
    other hinted field the config value when set, else the hint, else
    the default.  :attr:`key_payload` is what a sweep cell's cache key
    hashes: resolved values, not spellings.
    """

    duration_us: float
    packet_size_bytes: int
    n_subcarriers: int
    min_join_airtime_us: float
    bitrate_margin_db: float
    max_rounds: int
    packet_rate_pps: Optional[float]
    channel_draws: str
    fault_profile: Optional[str]
    fault_trace: Optional[str]
    trace_episodes: Tuple[LossEpisode, ...]
    fidelity: str
    fidelity_band_db: float
    validation: str

    @classmethod
    def resolve(
        cls,
        scenario: Scenario,
        config: Union[SimulationConfig, "RunSpec", None] = None,
    ) -> "RunSpec":
        """Resolve ``config`` against ``scenario``'s hints.

        A :class:`RunSpec` is already resolved and passes through
        unchanged.  Raises :class:`~repro.exceptions.ConfigurationError`
        for a subcarrier count outside ``1..48``, an unknown fidelity
        tier, validation mode or fault profile, and for an unreadable or
        malformed fault trace.
        """
        if isinstance(config, RunSpec):
            return config
        config = config or SimulationConfig()
        check_subcarrier_count(config.n_subcarriers)

        def hinted(name: str):
            value = getattr(config, name)
            return getattr(scenario, name) if value is None else value

        rate = hinted("packet_rate_pps")
        if config.packet_rate_pps is not None and config.packet_rate_pps <= 0:
            rate = None  # explicitly saturated
        profile = hinted("fault_profile")
        if profile in ("", "none"):
            profile = None
        elif profile is not None:
            fault_profile(profile)  # unknown names fail here, not mid-run
        trace_digest, trace_episodes = None, ()
        if config.fault_trace:
            trace_digest, schedule = read_trace(config.fault_trace)
            trace_episodes = tuple(schedule.episodes)
        fidelity = hinted("fidelity") or "abstraction"
        _check_mode(fidelity, FIDELITY_MODES, "fidelity")
        band = hinted("fidelity_band_db")
        validation = config.validation or "off"
        _check_mode(validation, VALIDATION_MODES, "validation mode")
        return cls(
            duration_us=config.duration_us,
            packet_size_bytes=config.packet_size_bytes,
            n_subcarriers=config.n_subcarriers,
            min_join_airtime_us=config.min_join_airtime_us,
            bitrate_margin_db=config.bitrate_margin_db,
            max_rounds=config.max_rounds,
            packet_rate_pps=rate,
            channel_draws=scenario.channel_draws or "batched",
            fault_profile=profile,
            fault_trace=trace_digest,
            trace_episodes=trace_episodes,
            fidelity=fidelity,
            fidelity_band_db=float(band) if band is not None else DEFAULT_BAND_DB,
            validation=validation,
        )

    @cached_property
    def key_payload(self) -> dict:
        """The result-determining fields as a JSON-able dict (computed once).

        A fault profile is keyed by its parameters, so retuning a
        registered profile misses the cache.
        """
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in _UNKEYED_FIELDS
        }
        if self.fault_profile is not None:
            payload["fault_profile"] = {
                "name": self.fault_profile,
                "params": dataclasses.asdict(fault_profile(self.fault_profile)),
            }
        return payload


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
    seed: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
) -> Dict[int, object]:
    spec = resolve_protocol(protocol)
    agent_class = spec.agent_class
    arrival_seed = None if seed is None else (seed, _ARRIVAL_STREAM_TAG)
    agents: Dict[int, object] = {}
    for pair in scenario.pairs:
        agents[pair.transmitter.node_id] = agent_class(
            pair,
            network,
            rng,
            packet_size_bytes=run_spec.packet_size_bytes,
            bitrate_margin_db=run_spec.bitrate_margin_db,
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
    """Drives the contention/transmission rounds on an :class:`EventScheduler`.

    Each round is one scheduled event; the handler resolves contention,
    plays out the joint transmission exactly like a slot-polling loop would
    (the test suite keeps one as an oracle), and schedules the next round at
    the time that loop would have reached.  Idle gaps (all queues empty,
    next Poisson arrival in the future) are crossed in a single event
    scheduled at the first busy slot, instead of one iteration per 9 us
    slot, which is what lets the runner scale to many lightly-loaded nodes.

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
        seed: Optional[int] = None,
        plan_cache: Optional[PlanCache] = None,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.run_spec = run_spec = RunSpec.resolve(scenario, config)
        self.rng = rng
        self.network = network
        self.plan_cache = plan_cache
        self.agents = _build_agents(
            scenario, network, protocol, rng, run_spec, seed, plan_cache
        )
        self.medium = Medium()
        self.metrics = NetworkMetrics()
        for pair in scenario.pairs:
            self.metrics.link(pair.name)
        self.scheduler = EventScheduler()
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

        However the run ends, every agent's traffic listener is detached:
        agents and :class:`~repro.sim.traffic.TrafficStateArrays` point at
        each other, and the agents hold the network, so that cycle would
        otherwise keep a finished run's network alive until the cyclic
        garbage collector runs.
        """
        try:
            self.scheduler.schedule_at(0.0, self._round)
            while self.scheduler.step():
                pass
            if self.faults is not None:
                self.faults.finalize()
            for agent in self.agents.values():
                link = self.metrics.link(agent.name)
                link.packets_dropped = sum(
                    queue.dropped_packets for queue in agent.queues.values()
                )
                link.quarantined_rounds = agent.quarantined_rounds
            self.metrics.elapsed_us = self.scheduler.now_us
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
        if medium.current_end_us - now < self.run_spec.min_join_airtime_us:
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

    # -- event handlers ---------------------------------------------------------

    def _schedule_round(self, time_us: float) -> None:
        self.scheduler.schedule_at(time_us, self._round)

    def _idle_poll_time(self, now: float) -> float:
        """First slot boundary at which an agent will have traffic.

        Mirrors slot-by-slot polling (including its quantisation to slot
        multiples of the current time and its stop at the window end)
        without calling into the agents at every slot.
        """
        return _slot_aligned_idle_end(
            now, self._next_traffic_time_us(now), self.run_spec.duration_us
        )

    def _round(self) -> None:
        now = self.scheduler.now_us
        run_spec = self.run_spec
        if now >= run_spec.duration_us:
            return  # window over; nothing rescheduled, the queue drains

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
            self._schedule_round(wake)
            return

        self.rounds += 1
        if self.rounds > run_spec.max_rounds:
            raise SimulationError("simulation exceeded the configured round budget")

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
                self._schedule_round(now + outcome.start_delay_us)
                return
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
                if join_body_start + run_spec.min_join_airtime_us > medium.current_end_us:
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
        self._schedule_round(max(end_of_round, now + SLOT_TIME_US))


def run_simulation(
    scenario: Scenario,
    protocol: ProtocolLike,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    network: Optional[Network] = None,
    plan_cache: bool = True,
    fault_schedule: Optional[FaultSchedule] = None,
) -> NetworkMetrics:
    """Simulate one run of ``protocol`` on ``scenario``.

    The result is a pure function of the arguments: the same
    ``(scenario, protocol, seed, config)`` always yields the same
    :class:`~repro.sim.metrics.NetworkMetrics`, no matter what else was
    simulated before (channel-estimation noise gets its own stream seeded
    from ``seed``).  This is the contract the sweep cache and the parallel
    orchestrator of :mod:`repro.sim.sweep` build on.

    Parameters
    ----------
    scenario:
        The topology (stations and traffic pairs).  Scenarios can carry a
        custom testbed (dense LANs need more candidate locations) and a
        suggested Poisson packet rate; both are honoured here.
    protocol:
        Any form :func:`~repro.mac.variants.resolve_protocol` accepts: a
        registered variant name (``"csma"``, ``"802.11n"``, ``"n+"``,
        ``"beamforming"``), a parameterised string
        (``"n+[recovery=erasure]"``), a ``(name, params)`` pair or a
        :class:`~repro.mac.variants.ProtocolSpec`.  A bare name is
        exactly a default-parameter spec -- bit-identical to every
        pre-framework run.
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
    plan_cache:
        ``True`` (default) memoizes the pure per-round planning math
        (pre-coder decompositions, measured post-projection SNRs) in a
        per-simulation :class:`~repro.mac.plan.PlanCache`, turning
        repeated contention configurations into dictionary hits.
        Channels are static within a run and channel estimates are
        measured once per simulation, so the cached and uncached paths
        produce bit-identical metrics (the test suite asserts it) --
        which is why this knob is deliberately not part of the sweep
        cache key.
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
        plan_cache=PlanCache() if plan_cache else None,
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


def placement_seed(seed: int, run: int) -> int:
    """The seed of run ``run`` in a sweep whose base seed is ``seed``.

    Placements and channels are drawn from ``placement_seed(seed, run)``;
    the MAC simulation of every protocol on that placement uses
    :func:`mac_seed` of it.  :class:`repro.sim.sweep.Cell` applies this
    scheme to every sweep cell, which is what makes cells interchangeable
    (and cacheable per run).
    """
    return seed + 1000 * run


def mac_seed(run_seed: int) -> int:
    """The MAC-simulation seed of a run whose placement seed is ``run_seed``.

    Offset from the placement seed so backoff/delivery draws are
    decorrelated from the channel draws.
    """
    return run_seed + 17


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
