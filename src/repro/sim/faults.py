"""Fault injection: deep fades, bursty loss episodes and station churn.

Everything the simulator builds is frozen at construction time --
channels are static, stations never leave -- which is exactly the
assumption this module breaks.  A :class:`FaultSchedule` is a list of
timed episodes:

* :class:`FadeEpisode` -- a per-link deep fade: the link's channel
  tensor is scaled down by a drawn fade depth for a drawn duration and
  restored bit-exactly afterwards (the pre-fade tensor is snapshotted,
  not re-derived, so an ended fade leaves the channel identical to one
  that never faded; fades that overlap on one link compose, and the
  channel is restored when the last of them ends);
* :class:`LossEpisode` -- a trace-driven loss episode in the
  LinkGuardian style: during ``(start_us, start_us + duration_us)``
  deliveries overlapping the episode are additionally lost with
  ``loss_rate`` (network-wide, or scoped to one link).  Episodes come
  from a seeded generator (:func:`loss_episode_generator`) or from a
  trace file (:func:`read_trace`);
* :class:`ChurnEpisode` -- station churn: the node departs at
  ``start_us`` and returns ``duration_us`` later; while away, agents
  transmitting to or from it neither contend nor join.

Schedules are materialised from a declarative :class:`FaultProfile`
(registered by name, see :data:`FAULT_PROFILES`), read from a trace in
the schedule's own type-tagged JSON (:meth:`FaultSchedule.to_jsonable`),
or both; every episode validates its own fields on construction.

**Determinism**: every episode draw comes from a dedicated stream seeded
``(seed, FAULT_STREAM_TAG, substream, ids...)`` -- one stream per faded
link, per churned node, one for the loss process and one for the
delivery coin flips -- so faulted runs are bit-reproducible and
independent of iteration order, and an empty schedule consumes no
randomness at all (the strict no-op contract the test suite asserts).

At run time the :class:`FaultInjector` applies episodes at event
boundaries (the runner calls :meth:`FaultInjector.advance` at the top
of every round) and bumps the per-link **channel epoch** of every faded
link (:meth:`repro.sim.network.Network.bump_link_epoch`), which is what
invalidates exactly that link's estimate memos and plan-cache entries.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "FAULT_STREAM_TAG",
    "FadeEpisode",
    "LossEpisode",
    "ChurnEpisode",
    "FaultProfile",
    "FaultSchedule",
    "FaultInjector",
    "loss_episode_generator",
    "fault_profile",
    "available_fault_profiles",
    "read_trace",
]

#: Stream tag mixed into the simulation seed for every fault draw, so
#: fault randomness is decorrelated from the backoff/delivery/estimation
#: streams (the same convention as ``_ESTIMATION_STREAM_TAG`` /
#: ``_ARRIVAL_STREAM_TAG`` in :mod:`repro.sim.runner`).
FAULT_STREAM_TAG = 0x666C74  # "flt"

#: Substream selectors under :data:`FAULT_STREAM_TAG`.  Fades draw from
#: ``(seed, tag, _FADE, tx, rx)`` -- one stream per link -- churn from
#: ``(seed, tag, _CHURN, node)``, the loss process from ``(seed, tag,
#: _LOSS)`` and the per-delivery loss coin flips from ``(seed, tag,
#: _DELIVERY)``.  Per-entity streams make the generated schedule
#: independent of the order links/nodes are iterated in.
_FADE_SUBSTREAM = 1
_LOSS_SUBSTREAM = 2
_CHURN_SUBSTREAM = 3
_DELIVERY_SUBSTREAM = 4


def _check_number(name: str, value, positive: bool = False) -> None:
    """Refuse a field that is not a finite number (``> 0`` if ``positive``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"field {name!r} must be a number, got {value!r}")
    if not math.isfinite(value) or (positive and value <= 0):
        bound = "finite and > 0" if positive else "finite"
        raise ValueError(f"field {name!r} must be {bound}, got {value!r}")


def _check_node(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"field {name!r} must be an integer node id, got {value!r}")


class _Timed:
    """The window every episode type shares, checked on construction.

    Generated, traced and replayed episodes all pass this one gate:
    ``start_us`` is finite and ``duration_us`` finite and positive, and
    each subclass checks its own fields in its ``_check``.  A bad field
    raises ``TypeError`` or ``ValueError`` naming it and its value.
    """

    def __post_init__(self) -> None:
        _check_number("start_us", self.start_us)
        _check_number("duration_us", self.duration_us, positive=True)
        self._check()

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class FadeEpisode(_Timed):
    """A deep fade on one link: scale the channel down, then restore."""

    start_us: float
    duration_us: float
    tx_id: int
    rx_id: int
    depth_db: float

    def _check(self) -> None:
        _check_node("tx_id", self.tx_id)
        _check_node("rx_id", self.rx_id)
        _check_number("depth_db", self.depth_db)


@dataclass(frozen=True)
class LossEpisode(_Timed):
    """A loss episode: deliveries overlapping it are lost with ``loss_rate``.

    ``tx_id``/``rx_id`` of ``None`` mean the episode is network-wide
    (every link); otherwise it is scoped to one directed link.  An
    episode names both ends of a link or neither.
    """

    start_us: float
    duration_us: float
    loss_rate: float
    tx_id: Optional[int] = None
    rx_id: Optional[int] = None

    def _check(self) -> None:
        _check_number("loss_rate", self.loss_rate)
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(
                f"field 'loss_rate' must lie in [0, 1], got {self.loss_rate!r}"
            )
        if (self.tx_id is None) != (self.rx_id is None):
            raise ValueError(
                f"a loss episode names both ends of a link (tx_id and rx_id) "
                f"or neither, got tx_id={self.tx_id!r}, rx_id={self.rx_id!r}"
            )
        if self.tx_id is not None:
            _check_node("tx_id", self.tx_id)
            _check_node("rx_id", self.rx_id)


@dataclass(frozen=True)
class ChurnEpisode(_Timed):
    """A station departure: ``node_id`` is away for ``duration_us``."""

    start_us: float
    duration_us: float
    node_id: int

    def _check(self) -> None:
        _check_node("node_id", self.node_id)


@dataclass(frozen=True)
class FaultProfile:
    """Declarative fault intensities, materialised per run into episodes.

    All rates are episode arrival rates (per second of simulated time,
    exponential gaps between episodes of the same entity); ranges are
    uniform draw bounds.  A rate of ``0`` disables that fault class --
    the all-zero default profile generates an empty schedule, which is a
    strict no-op.  Profiles are JSON-able (``dataclasses.asdict``) so
    the sweep cache can digest the resolved parameters, not just the
    registry name.

    Attributes
    ----------
    fade_rate_per_s, fade_depth_db, fade_duration_us:
        Deep-fade episodes per second *per traffic link*, and the
        uniform ranges their depth (dB) and duration are drawn from.
        Fades target the traffic links (where they change outcomes);
        interference-only links keep their drawn channels.
    loss_rate_per_s, loss_duration_us, loss_rate_range:
        Network-wide loss episodes per second and the uniform ranges of
        their duration and loss probability (LinkGuardian-style).
    churn_rate_per_s, churn_downtime_us:
        Departures per second *per station* and the uniform range of
        the downtime before the station returns.
    """

    fade_rate_per_s: float = 0.0
    fade_depth_db: Tuple[float, float] = (10.0, 30.0)
    fade_duration_us: Tuple[float, float] = (2_000.0, 10_000.0)
    loss_rate_per_s: float = 0.0
    loss_duration_us: Tuple[float, float] = (1_000.0, 8_000.0)
    loss_rate_range: Tuple[float, float] = (0.1, 0.9)
    churn_rate_per_s: float = 0.0
    churn_downtime_us: Tuple[float, float] = (4_000.0, 15_000.0)


def _renewal_process(
    rng: np.random.Generator,
    rate_per_s: float,
    duration_us: float,
    draw_episode,
) -> Iterator[tuple]:
    """Episodes of one entity: exponential gaps, non-overlapping.

    The next episode's gap is drawn from the *end* of the previous one,
    so episodes of the same entity never overlap (a trace's may: the
    injector composes overlapping fades).
    ``draw_episode(rng)`` returns ``(duration, *extras)`` and defines
    the per-episode draw order.
    """
    if rate_per_s <= 0:
        return
    mean_gap_us = 1e6 / rate_per_s
    time = float(rng.exponential(mean_gap_us))
    while time < duration_us:
        drawn = draw_episode(rng)
        yield (time, *drawn)
        time += drawn[0] + float(rng.exponential(mean_gap_us))


def loss_episode_generator(
    seed,
    duration_us: float,
    episode_rate_per_s: float,
    duration_range_us: Tuple[float, float] = (1_000.0, 8_000.0),
    loss_rate_range: Tuple[float, float] = (0.1, 0.9),
) -> Iterator[Tuple[float, float, float]]:
    """Generate ``(start_us, duration_us, loss_rate)`` tuples, seeded.

    The LinkGuardian-style loss-trace generator: episode starts follow a
    renewal process with exponential gaps (``episode_rate_per_s`` per
    second), durations and loss rates are uniform in their ranges.  All
    randomness comes from the dedicated ``(seed, FAULT_STREAM_TAG,
    loss)`` stream, so the trace is a pure function of the seed.
    """
    rng = np.random.default_rng((seed, FAULT_STREAM_TAG, _LOSS_SUBSTREAM))

    def draw(generator: np.random.Generator) -> tuple:
        episode_duration = float(generator.uniform(*duration_range_us))
        loss = float(generator.uniform(*loss_rate_range))
        return episode_duration, loss

    yield from _renewal_process(rng, episode_rate_per_s, duration_us, draw)


Episode = Union[FadeEpisode, LossEpisode, ChurnEpisode]

#: Type tag <-> episode class, for the JSON form of a schedule (a fault
#: trace, and a traced sweep's manifest).
_EPISODE_TYPES: Dict[str, type] = {
    "fade": FadeEpisode,
    "loss": LossEpisode,
    "churn": ChurnEpisode,
}
_EPISODE_TAGS = {klass: tag for tag, klass in _EPISODE_TYPES.items()}


@dataclass
class FaultSchedule:
    """The materialised episodes of one run, in no particular order."""

    episodes: List[Episode] = field(default_factory=list)

    @classmethod
    def from_profile(
        cls, profile: FaultProfile, scenario, seed, duration_us: float
    ) -> "FaultSchedule":
        """Materialise a profile into episodes for one simulation.

        Fades are generated per *traffic link* (transmitter to each of
        its receivers), churn per station; each entity draws from its
        own ``(seed, tag, substream, ids...)`` stream so the schedule
        is independent of iteration order.  Loss episodes come from
        :func:`loss_episode_generator` with the same ``seed``.
        """
        episodes: List[Episode] = []

        def fade_draw(rng: np.random.Generator) -> tuple:
            episode_duration = float(rng.uniform(*profile.fade_duration_us))
            depth = float(rng.uniform(*profile.fade_depth_db))
            return episode_duration, depth

        if profile.fade_rate_per_s > 0:
            for pair in scenario.pairs:
                tx_id = pair.transmitter.node_id
                for receiver in pair.receivers:
                    rx_id = receiver.node_id
                    rng = np.random.default_rng(
                        (seed, FAULT_STREAM_TAG, _FADE_SUBSTREAM, tx_id, rx_id)
                    )
                    for start, dur, depth in _renewal_process(
                        rng, profile.fade_rate_per_s, duration_us, fade_draw
                    ):
                        episodes.append(
                            FadeEpisode(start, dur, tx_id, rx_id, depth)
                        )

        if profile.loss_rate_per_s > 0:
            for start, dur, rate in loss_episode_generator(
                seed,
                duration_us,
                profile.loss_rate_per_s,
                profile.loss_duration_us,
                profile.loss_rate_range,
            ):
                episodes.append(LossEpisode(start, dur, rate))

        def churn_draw(rng: np.random.Generator) -> tuple:
            return (float(rng.uniform(*profile.churn_downtime_us)),)

        if profile.churn_rate_per_s > 0:
            for station in scenario.stations:
                rng = np.random.default_rng(
                    (seed, FAULT_STREAM_TAG, _CHURN_SUBSTREAM, station.node_id)
                )
                for start, dur in _renewal_process(
                    rng, profile.churn_rate_per_s, duration_us, churn_draw
                ):
                    episodes.append(ChurnEpisode(start, dur, station.node_id))

        return cls(episodes)

    def to_jsonable(self) -> List[dict]:
        """Type-tagged plain-dict episodes, inverse of :meth:`from_jsonable`.

        This is the one file format of a fault trace (:func:`read_trace`),
        and what a sweep manifest records of a traced run, so a failed
        traced cell replays after its trace file is gone.
        """
        return [
            {"type": _EPISODE_TAGS[type(episode)], **asdict(episode)}
            for episode in self.episodes
        ]

    @classmethod
    def from_jsonable(cls, data, source: str = "") -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_jsonable` output.

        Anything else raises :class:`~repro.exceptions.ConfigurationError`
        naming the episode index, the field and the bad value, after
        ``source`` (a trace file's path, when read from one).
        """
        where = f"{source}: " if source else ""
        if not isinstance(data, list):
            raise ConfigurationError(
                f"{where}expected a JSON list of episode objects, "
                f"got {type(data).__name__}"
            )
        episodes: List[Episode] = []
        for index, entry in enumerate(data):
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"{where}episode {index}: expected an object, "
                    f"got {type(entry).__name__}"
                )
            fields = dict(entry)
            tag = fields.pop("type", None)
            klass = _EPISODE_TYPES.get(tag)
            if klass is None:
                raise ConfigurationError(
                    f"{where}episode {index}: field 'type' must be one of "
                    f"{sorted(_EPISODE_TYPES)}, got {tag!r}"
                )
            try:
                episodes.append(klass(**fields))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{where}episode {index}: {exc}") from None
        return cls(episodes)


def read_trace(path: Union[str, Path]) -> Tuple[str, FaultSchedule]:
    """Read a fault-trace file once: ``(SHA-256 of its bytes, its episodes)``.

    A trace is the JSON list :meth:`FaultSchedule.to_jsonable` writes:
    type-tagged ``fade``, ``loss`` and ``churn`` objects, for example
    ``{"type": "loss", "start_us": 0, "duration_us": 5000,
    "loss_rate": 0.5}``.  A loss episode names both ends of a link
    (``tx_id`` and ``rx_id``; it hits that directed link only) or
    neither (it hits every link).  This is the LinkGuardian-style
    trace-driven path: measured (or generated) traces replay identically
    across runs and protocols.

    An unreadable file, invalid JSON or a malformed episode raises
    :class:`~repro.exceptions.ConfigurationError` (a ``ValueError``)
    naming the file and, for an episode, its index, field and value.
    The digest keys a traced run in the sweep cache.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read fault trace {path}: {exc}") from exc
    try:
        episodes = json.loads(data)
    except ValueError as exc:
        raise ConfigurationError(f"fault trace {path} is not valid JSON: {exc}") from None
    schedule = FaultSchedule.from_jsonable(episodes, source=f"fault trace {path}")
    return hashlib.sha256(data).hexdigest(), schedule


def _stateful_sort_key(episode: Episode) -> tuple:
    """Deterministic application order for episodes starting together."""
    if isinstance(episode, FadeEpisode):
        return (episode.start_us, 0, episode.tx_id, episode.rx_id)
    return (episode.start_us, 1, episode.node_id, 0)  # type: ignore[union-attr]


class FaultInjector:
    """Applies a schedule's episodes to a live simulation.

    The runner calls :meth:`advance` at the top of every round; starts
    and ends that have come due are applied in time order (ends before
    starts at the same instant), so channel state and the away-set are
    always consistent with the current clock.  Fades snapshot the
    pre-fade tensor and restore it verbatim -- an ended fade leaves the
    channel bit-identical to never having faded -- and bump the link's
    channel epoch on both edges, which is what invalidates the link's
    estimate memos and plan-cache entries (and only those).  Fades that
    overlap on one link (a trace's may) share the snapshot taken before
    the first: each scales the channel further, an end restores the
    snapshot and re-applies the fades still active, and the last end
    leaves the pristine channel.

    Loss episodes are stateless: :meth:`loss_rate` combines the
    episodes overlapping a delivery interval as ``1 - prod(1 - r)`` and
    :meth:`draw_loss` flips the coin from the dedicated delivery
    stream.  The stream is only consumed when an episode actually
    overlaps, preserving the strict no-op contract.
    """

    def __init__(self, schedule: FaultSchedule, network, seed: int) -> None:
        self.network = network
        self._pending = sorted(
            (e for e in schedule.episodes if not isinstance(e, LossEpisode)),
            key=_stateful_sort_key,
        )
        self._next = 0
        # Active fades/departures as a heap of (end_us, seq, payload);
        # seq breaks ties so payloads are never compared.
        self._active: List[tuple] = []
        self._seq = 0
        # Faded links by canonical pair: the (tx, rx, snapshot) taken
        # before the first of its fades, and the fades now active on it.
        self._faded: Dict[Tuple[int, int], Tuple[int, int, tuple, List[FadeEpisode]]] = {}
        self._away: Dict[int, int] = {}
        self._losses = sorted(
            (e for e in schedule.episodes if isinstance(e, LossEpisode)),
            key=lambda e: (e.start_us, e.duration_us, e.loss_rate),
        )
        self._delivery_rng = np.random.default_rng(
            (seed, FAULT_STREAM_TAG, _DELIVERY_SUBSTREAM)
        )
        #: Counters exposed for tests and benchmarks.
        self.fades_applied = 0
        self.departures_applied = 0
        self.losses_drawn = 0

    # -- state transitions -------------------------------------------------------

    def advance(self, now_us: float) -> None:
        """Apply every start/end boundary at or before ``now_us``."""
        while True:
            next_end = self._active[0][0] if self._active else float("inf")
            next_start = (
                self._pending[self._next].start_us
                if self._next < len(self._pending)
                else float("inf")
            )
            boundary = min(next_end, next_start)
            if boundary > now_us:
                return
            if next_end <= next_start:
                _, _, payload = heapq.heappop(self._active)
                self._expire(payload)
            else:
                episode = self._pending[self._next]
                self._next += 1
                self._apply(episode)

    def _push_active(self, end_us: float, payload: tuple) -> None:
        heapq.heappush(self._active, (end_us, self._seq, payload))
        self._seq += 1

    def _apply(self, episode: Episode) -> None:
        if isinstance(episode, FadeEpisode):
            tx_id, rx_id = episode.tx_id, episode.rx_id
            pair = (tx_id, rx_id) if tx_id < rx_id else (rx_id, tx_id)
            faded = self._faded.get(pair)
            if faded is None:
                snapshot = self.network.snapshot_link(tx_id, rx_id)
                faded = self._faded[pair] = (tx_id, rx_id, snapshot, [])
            faded[3].append(episode)
            self.network.fade_link(tx_id, rx_id, episode.depth_db)
            self.fades_applied += 1
            self._push_active(episode.end_us, ("fade", pair, episode))
        else:
            assert isinstance(episode, ChurnEpisode)
            self._away[episode.node_id] = self._away.get(episode.node_id, 0) + 1
            self.departures_applied += 1
            self._push_active(episode.end_us, ("churn", episode.node_id))

    def _expire(self, payload: tuple) -> None:
        if payload[0] == "fade":
            # Restore the pre-fade snapshot, then re-apply the fades still
            # active on the link (overlapping fades compose; the channel
            # is pristine again once the last one ends).
            _, pair, episode = payload
            tx_id, rx_id, (response, snr_db), active = self._faded[pair]
            active.remove(episode)
            self.network.restore_link(tx_id, rx_id, response, snr_db)
            for other in active:
                self.network.fade_link(other.tx_id, other.rx_id, other.depth_db)
            if not active:
                del self._faded[pair]
        else:
            node_id = payload[1]
            count = self._away.get(node_id, 0) - 1
            if count <= 0:
                self._away.pop(node_id, None)
            else:
                self._away[node_id] = count

    def finalize(self) -> None:
        """Restore every still-active fade and clear the away-set.

        Called at the end of a run so a fade that outlives the
        observation window cannot leak scaled channels into the next
        simulation on the same (shared) network -- protocols compared on
        one channel realisation must all start from the pristine draw.
        """
        while self._active:
            _, _, payload = heapq.heappop(self._active)
            self._expire(payload)
        self._away.clear()

    def next_boundary_us(self, now_us: float) -> float:
        """The next start/end instant after ``now_us`` (``inf`` when done).

        The runner clamps its idle wake-ups to this so a single
        idle step can never jump over a fade edge or a returning
        station.  After :meth:`advance(now_us) <advance>` the boundary
        is strictly in the future.
        """
        boundary = float("inf")
        if self._active:
            boundary = self._active[0][0]
        if self._next < len(self._pending):
            boundary = min(boundary, self._pending[self._next].start_us)
        return boundary

    # -- churn queries ----------------------------------------------------------

    @property
    def anyone_away(self) -> bool:
        """Whether churn has a station away; while not, every agent is
        :meth:`agent_active`."""
        return bool(self._away)

    def agent_active(self, agent) -> bool:
        """Whether an agent may contend/join: its transmitter and every
        receiver of its pair must be present."""
        if agent.node_id in self._away:
            return False
        return all(r.node_id not in self._away for r in agent.pair.receivers)

    # -- loss queries ------------------------------------------------------------

    def loss_rate(
        self, tx_id: int, rx_id: int, start_us: float, end_us: float
    ) -> float:
        """Combined loss probability over a delivery interval.

        Every episode overlapping ``[start_us, end_us)`` and matching
        the link (or network-wide) contributes independently:
        ``1 - prod(1 - rate)``.  ``0.0`` when nothing overlaps, in which
        case the caller must not draw (no stream consumption).
        """
        passthrough = 1.0
        for episode in self._losses:
            if episode.start_us >= end_us:
                break
            if episode.end_us <= start_us:
                continue
            if episode.tx_id is not None and (
                episode.tx_id != tx_id or episode.rx_id != rx_id
            ):
                continue
            passthrough *= 1.0 - episode.loss_rate
        return 1.0 - passthrough

    def draw_loss(self, rate: float) -> bool:
        """Flip the delivery-loss coin from the dedicated stream."""
        self.losses_drawn += 1
        return bool(self._delivery_rng.random() < rate)

    def draw_erasure(self, rate: float, n_fragments: int) -> int:
        """How many of ``n_fragments`` coded fragments the episode erases.

        The ``erasure`` recovery policy carries a payload as ``n`` coded
        fragments, each lost independently with the episode's combined
        ``rate``; the frame survives as long as ``erasure_k`` fragments
        arrive.  One call counts as one entry of the dedicated delivery
        stream (``losses_drawn``) regardless of ``n_fragments``, mirroring
        :meth:`draw_loss` -- but note the stream itself advances by
        ``n_fragments`` values, so erasure and plain-loss runs draw
        different coin sequences by construction.
        """
        self.losses_drawn += 1
        return int((self._delivery_rng.random(n_fragments) < rate).sum())


# -- profile registry --------------------------------------------------------------

#: Name -> declarative profile.  Stable names are what scenarios and the
#: CLI's ``--fault-profile`` refer to; the sweep cache digests the
#: *resolved* parameters so editing a profile invalidates cached cells.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    # Rates are tuned to the compressed 40-100 ms observation windows the
    # experiments use: a handful of episodes per entity per run, long
    # enough to span several transmission rounds.
    "deep-fades": FaultProfile(fade_rate_per_s=40.0, fade_depth_db=(12.0, 30.0)),
    "bursty-loss": FaultProfile(loss_rate_per_s=60.0, loss_rate_range=(0.2, 0.9)),
    "churn": FaultProfile(churn_rate_per_s=15.0, churn_downtime_us=(4_000.0, 12_000.0)),
    "mixed": FaultProfile(
        fade_rate_per_s=25.0,
        fade_depth_db=(12.0, 30.0),
        loss_rate_per_s=40.0,
        loss_rate_range=(0.2, 0.8),
        churn_rate_per_s=10.0,
        churn_downtime_us=(4_000.0, 12_000.0),
    ),
}


def fault_profile(name: str) -> FaultProfile:
    """Look up a registered fault profile by name."""
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault profile {name!r}; choose from {available_fault_profiles()}"
        ) from None


def available_fault_profiles() -> List[str]:
    """Sorted names of every registered fault profile."""
    return sorted(FAULT_PROFILES)
