"""Transmission planning: from overheard headers to pre-coders and power.

This module is the glue between the MIMO math (:mod:`repro.mimo`) and the
MAC protocols.  Given what a transmitter knows right before it starts --
the receivers it must protect (learned from light-weight RTS/CTS headers,
with channels obtained via reciprocity), its own receivers, and the
hardware limits -- it produces a :class:`TransmissionPlan`: one
per-subcarrier pre-coding vector per stream, plus the transmit-power scale
imposed by the L-threshold rule.

Two entry points:

* :func:`plan_initial_transmission` -- the first contention winner (or any
  802.11n-style transmitter on an idle medium); also covers multi-user
  beamforming to several own receivers.
* :func:`plan_join` -- a joiner that must not interfere with ongoing
  receivers (the heart of n+, §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constants import INTERFERENCE_ADMISSION_THRESHOLD_DB
from repro.exceptions import DimensionError, PrecodingError
from repro.mac.power_control import admission_power_scale, interference_power_db
from repro.mimo.dof import InterferenceStrategy, choose_strategy, max_concurrent_streams
from repro.mimo.precoder import compute_precoders_batch

__all__ = [
    "ProtectedReceiver",
    "PlannedReceiver",
    "StreamPlan",
    "TransmissionPlan",
    "PlanCache",
    "stream_signature",
    "involved_node_ids",
    "plan_initial_transmission",
    "plan_join",
]


def stream_signature(streams) -> tuple:
    """A hashable structural signature of a list of scheduled streams.

    Two stream lists with the same signature produce the same planning
    math under the static-channel invariant: channels are frozen per run
    and channel *estimates* are memoized per simulation
    (:meth:`repro.sim.network.Network.estimated_channel`), so every
    pre-coder, announced subspace and post-projection SNR is a pure
    function of *which* streams are on the air -- ``(transmitter,
    receiver, join order, ordinal within that triple)``, in order -- not
    of run-time identifiers like stream ids, payload sizes or start
    times.  This is what keys the :class:`PlanCache`.
    """
    signature = []
    counts: Dict[tuple, int] = {}
    for stream in streams:
        triple = (stream.transmitter_id, stream.receiver_id, stream.join_order)
        ordinal = counts.get(triple, 0)
        counts[triple] = ordinal + 1
        signature.append(triple + (ordinal,))
    return tuple(signature)


def involved_node_ids(*stream_lists, extra=()) -> frozenset:
    """Every node id touched by the given stream lists (plus ``extra``).

    This is the set whose channel epochs a configuration-keyed memo must
    include (via :meth:`repro.sim.network.Network.epoch_signature`): a
    fault bumping any involved link's epoch changes the signature and so
    retires exactly the entries that could have observed the old channel.
    Shared by the agents' measured-SNR memo and the fidelity engine's
    escalated-verdict memo so both invalidate identically.
    """
    involved = set(extra)
    for streams in stream_lists:
        for stream in streams:
            involved.add(stream.transmitter_id)
            involved.add(stream.receiver_id)
    return frozenset(involved)


class PlanCache:
    """Per-simulation memo of pure planning computations.

    Channels never change within a run and channel estimates are measured
    once per simulation, so the expensive per-round planning math --
    pre-coder decompositions (:func:`plan_initial_transmission`,
    :func:`plan_join`), announced decoding subspaces and the
    post-projection SNRs a receiver would feed back -- is a pure function
    of the contention configuration.  The cache maps a structural key
    (built from :func:`stream_signature` plus whatever else the
    computation depends on) to the computed value; after the first
    occurrence of each configuration the dominant per-round SVD work
    becomes a dictionary hit.

    Entries are never *evicted* within a run.  In a static network there
    is nothing to invalidate on; under fault injection
    (:mod:`repro.sim.faults`) the callers append the network's per-link
    **epoch signature**
    (:meth:`repro.sim.network.Network.epoch_signature`) to their keys,
    so an entry built before a link's channel changed simply stops being
    hit -- a fade invalidates exactly the entries that could have read
    the faded link, and the signature is ``()`` (key shape unchanged,
    zero cost) until a fault actually occurs.  The cache
    must not be shared across simulations (the runner creates one per
    :func:`repro.sim.runner.run_simulation`).

    An idle-medium plan to one receiver -- every 802.11n and CSMA first
    winner, and a beamforming or n+ winner with one backlogged receiver
    -- is no longer memoized here: its pre-coders, SNRs and MCS come from
    the network's solo-link table
    (:func:`repro.sim.link_abstraction.solo_link`), which outlives the
    run and serves every protocol on the network.  Cached arrays are shared
    by reference, so callers must treat them as read-only -- the same
    shared-view invariant the :class:`repro.sim.network.ChannelBank`
    *enforces* for the true channels (they are non-writable views; a
    would-be mutation raises instead of corrupting every plan built from
    the same memory).
    """

    def __init__(self) -> None:
        self._store: Dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple, compute):
        """The memoized value for ``key``, computing it on first use."""
        try:
            value = self._store[key]
        except KeyError:
            value = compute()
            self._store[key] = value
            self.misses += 1
            return value
        self.hits += 1
        return value


@dataclass
class ProtectedReceiver:
    """A receiver of an ongoing stream that the joiner must protect.

    Attributes
    ----------
    receiver_id:
        Node identifier.
    n_antennas:
        N, the receiver's antenna count (from its CTS header).
    n_wanted_streams:
        n, the number of streams it is currently decoding.
    channel:
        ``(n_subcarriers, N, M)`` estimated channel from the joiner to
        this receiver (reciprocity from its overheard CTS).
    u_perp:
        ``(n_subcarriers, N, n)`` decoding subspace it announced, or
        ``None`` when it has no unwanted space (the joiner must null).
    """

    receiver_id: int
    n_antennas: int
    n_wanted_streams: int
    channel: np.ndarray
    u_perp: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.channel = np.asarray(self.channel, dtype=complex)
        if self.channel.ndim != 3:
            raise DimensionError(
                f"channel must have shape (n_subcarriers, N, M), got {self.channel.shape}"
            )
        if self.u_perp is not None:
            self.u_perp = np.asarray(self.u_perp, dtype=complex)
            if self.u_perp.ndim != 3:
                raise DimensionError(
                    f"u_perp must have shape (n_subcarriers, N, n), got {self.u_perp.shape}"
                )

    @property
    def strategy(self) -> InterferenceStrategy:
        """Null or align (Claim 3.1)."""
        return choose_strategy(self.n_antennas, self.n_wanted_streams)

    def constraint_rows_batch(self) -> np.ndarray:
        """Constraint rows of every subcarrier, ``(n_sub, n_constraints, M)``.

        Nulling contributes the channel itself (Claim 3.3); alignment
        contributes ``U_perp^H H`` per subcarrier (Eq. 6), computed here as
        one einsum over the whole stack.
        """
        if self.strategy is InterferenceStrategy.NULL or self.u_perp is None:
            return self.channel
        return np.einsum("knj,knm->kjm", self.u_perp.conj(), self.channel)

    @property
    def n_constraints(self) -> int:
        """Constraint rows this receiver contributes (= protected streams)."""
        if self.strategy is InterferenceStrategy.NULL or self.u_perp is None:
            return self.n_antennas
        return self.u_perp.shape[2]


@dataclass
class PlannedReceiver:
    """One of the transmitter's own receivers.

    Attributes
    ----------
    receiver_id:
        Node identifier.
    n_antennas:
        The receiver's antenna count.
    n_streams:
        Number of streams destined to it in this transmission.
    channel:
        ``(n_subcarriers, N, M)`` estimated channel from the transmitter.
    u_perp:
        ``(n_subcarriers, N, n)`` decoding subspace the receiver will use
        (orthogonal to the interference it already sees).  ``None`` means
        the receiver has no ongoing interference and uses its full space.
    """

    receiver_id: int
    n_antennas: int
    n_streams: int
    channel: np.ndarray
    u_perp: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.channel = np.asarray(self.channel, dtype=complex)
        if self.channel.ndim != 3:
            raise DimensionError(
                f"channel must have shape (n_subcarriers, N, M), got {self.channel.shape}"
            )
        if self.n_streams < 1:
            raise PrecodingError("a planned receiver must take at least one stream")
        if self.u_perp is not None:
            self.u_perp = np.asarray(self.u_perp, dtype=complex)

    def decoding_subspace_batch(self, n_sub: int) -> np.ndarray:
        """U-perp on every subcarrier, ``(n_sub, N, n)``.

        Defaults to the first ``n_streams`` canonical directions when the
        receiver sees no ongoing interference (it then has one spare
        constraint row per wanted stream, as Claim 3.5 requires).
        """
        if self.u_perp is None:
            eye = np.eye(self.n_antennas, dtype=complex)[:, : self.n_streams]
            return np.broadcast_to(eye, (n_sub,) + eye.shape)
        return self.u_perp

    def constraint_rows_batch(self, n_sub: int) -> np.ndarray:
        """Rows ``U'_perp^H H'`` of every subcarrier (Claim 3.5)."""
        subspace = self.decoding_subspace_batch(n_sub)
        return np.einsum("knj,knm->kjm", subspace.conj(), self.channel)


@dataclass
class StreamPlan:
    """The plan of one spatial stream.

    Attributes
    ----------
    stream_index:
        Position of the stream within the transmission.
    receiver_id:
        Destination node.
    precoders:
        ``(n_subcarriers, M)`` pre-coding vectors (unit norm per
        subcarrier before power scaling).
    """

    stream_index: int
    receiver_id: int
    precoders: np.ndarray


@dataclass
class TransmissionPlan:
    """Everything a transmitter needs to start its (possibly joint)
    transmission.

    Attributes
    ----------
    transmitter_id:
        The transmitting node.
    streams:
        Per-stream plans.
    power_scale:
        Multiplicative transmit-power factor (<= 1) imposed by the
        L-threshold rule; 1.0 when no reduction was needed.
    protects:
        Receiver ids this transmission nulls/aligns at, mapped to the
        strategy used -- empty for a first contention winner.
    degraded:
        ``(n_subcarriers,)`` mask of the subcarriers whose pre-coder math
        fell back (:mod:`repro.utils.guarded`); empty when no
        decomposition ran.  A plan with any member flagged must never be
        transmitted: the planner quarantines its links instead.
    """

    transmitter_id: int
    streams: List[StreamPlan]
    power_scale: float = 1.0
    protects: Dict[int, InterferenceStrategy] = field(default_factory=dict)
    degraded: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def power_per_stream(self, total_power: float = 1.0) -> float:
        """Transmit power allocated to each stream (equal split)."""
        if not self.streams:
            return 0.0
        return total_power * self.power_scale / len(self.streams)


def _n_subcarriers(arrays: Sequence[np.ndarray]) -> int:
    sizes = {np.asarray(a).shape[0] for a in arrays}
    if len(sizes) != 1:
        raise DimensionError(f"inconsistent subcarrier counts: {sorted(sizes)}")
    return sizes.pop()


def plan_initial_transmission(
    transmitter_id: int,
    n_tx_antennas: int,
    receivers: Sequence[PlannedReceiver],
    multi_user_beamforming: bool = False,
) -> TransmissionPlan:
    """Plan a transmission on an idle medium (the first contention winner).

    With a single receiver and no beamforming the transmitter simply maps
    one stream per antenna (802.11n spatial multiplexing).  With several
    receivers -- or ``multi_user_beamforming`` -- it zero-forces between
    its own receivers via Eq. 7 with no ongoing constraints.
    """
    receivers = list(receivers)
    if not receivers:
        raise PrecodingError("an initial transmission needs at least one receiver")
    total_streams = sum(r.n_streams for r in receivers)
    if total_streams > n_tx_antennas:
        raise PrecodingError(
            f"{total_streams} streams exceed the transmitter's {n_tx_antennas} antennas"
        )

    n_sub = _n_subcarriers([r.channel for r in receivers])

    if len(receivers) == 1 and not multi_user_beamforming:
        receiver = receivers[0]
        streams = []
        for index in range(receiver.n_streams):
            precoders = np.zeros((n_sub, n_tx_antennas), dtype=complex)
            precoders[:, index] = 1.0
            streams.append(
                StreamPlan(stream_index=index, receiver_id=receiver.receiver_id, precoders=precoders)
            )
        return TransmissionPlan(transmitter_id=transmitter_id, streams=streams)

    # Multi-user beamforming: solve Eq. 7 (with no ongoing receivers) on
    # every subcarrier at once, so each stream lands orthogonally to the
    # other receivers' decoding subspaces.
    stream_receivers: List[int] = []
    for receiver in receivers:
        stream_receivers.extend([receiver.receiver_id] * receiver.n_streams)
    own_rows = [r.constraint_rows_batch(n_sub) for r in receivers]
    precoders, degraded = compute_precoders_batch(
        n_tx_antennas,
        ongoing_rows=np.zeros((n_sub, 0, n_tx_antennas), dtype=complex),
        own_rows=np.concatenate(own_rows, axis=1),
        own_stream_counts=[r.n_streams for r in receivers],
        own_row_counts=[rows.shape[1] for rows in own_rows],
    )
    streams = [
        StreamPlan(stream_index=i, receiver_id=stream_receivers[i], precoders=precoders[:, i, :])
        for i in range(total_streams)
    ]
    return TransmissionPlan(transmitter_id=transmitter_id, streams=streams, degraded=degraded)


def plan_join(
    transmitter_id: int,
    n_tx_antennas: int,
    protected: Sequence[ProtectedReceiver],
    receivers: Sequence[PlannedReceiver],
    noise_power: float = 1.0,
    n_streams: Optional[int] = None,
) -> TransmissionPlan:
    """Plan a transmission that joins ongoing transmissions (§3.3).

    Parameters
    ----------
    transmitter_id:
        The joining node.
    n_tx_antennas:
        M, its antenna count.
    protected:
        The receivers of ongoing streams (from overheard headers).
    receivers:
        The joiner's own receivers.
    noise_power:
        Receiver noise power in the same normalisation as the channels
        (used by the L-threshold admission rule).
    n_streams:
        Total new streams; defaults to the receivers' total, capped by
        Claim 3.2.

    Raises
    ------
    PrecodingError
        If the ongoing streams leave no degree of freedom for the joiner.
    """
    protected = list(protected)
    receivers = list(receivers)
    if not receivers:
        raise PrecodingError("a join needs at least one own receiver")

    k_ongoing = sum(p.n_constraints for p in protected)
    free = max_concurrent_streams(n_tx_antennas, k_ongoing)
    requested = sum(r.n_streams for r in receivers) if n_streams is None else n_streams
    if requested > free:
        raise PrecodingError(
            f"requested {requested} streams but only {free} degrees of freedom are free "
            f"({k_ongoing} ongoing constraints, {n_tx_antennas} antennas)"
        )

    n_sub = _n_subcarriers([p.channel for p in protected] + [r.channel for r in receivers])

    # L-threshold admission: how loud would the joiner be at each
    # protected receiver with no pre-coding at all?
    interference_levels = [
        interference_power_db(p.channel, noise_power=noise_power) for p in protected
    ]
    power_scale = admission_power_scale(
        interference_levels, INTERFERENCE_ADMISSION_THRESHOLD_DB
    )

    stream_receivers: List[int] = []
    for receiver in receivers:
        stream_receivers.extend([receiver.receiver_id] * receiver.n_streams)

    total_streams = len(stream_receivers)
    shared_rows = (
        np.concatenate([p.constraint_rows_batch() for p in protected], axis=1)
        if protected
        else np.zeros((n_sub, 0, n_tx_antennas), dtype=complex)
    )
    if len(receivers) == 1:
        precoders, degraded = compute_precoders_batch(
            n_tx_antennas,
            ongoing_rows=shared_rows,
            n_streams=total_streams,
        )
    else:
        own_rows = [r.constraint_rows_batch(n_sub) for r in receivers]
        precoders, degraded = compute_precoders_batch(
            n_tx_antennas,
            ongoing_rows=shared_rows,
            own_rows=np.concatenate(own_rows, axis=1),
            own_stream_counts=[r.n_streams for r in receivers],
            own_row_counts=[rows.shape[1] for rows in own_rows],
        )

    streams = [
        StreamPlan(stream_index=i, receiver_id=stream_receivers[i], precoders=precoders[:, i, :])
        for i in range(total_streams)
    ]
    protects = {p.receiver_id: p.strategy for p in protected}
    return TransmissionPlan(
        transmitter_id=transmitter_id,
        streams=streams,
        power_scale=power_scale,
        protects=protects,
        degraded=degraded,
    )
