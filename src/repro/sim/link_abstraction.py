"""Link abstraction: from streams on the air to post-projection SNRs.

Instead of simulating every sample of every packet, the MAC-level
simulator computes -- per OFDM subcarrier -- the SNR each wanted stream
would see at its receiver after the receiver projects out the
interference it can see and zero-forces among its wanted streams.  The
computation uses:

* the *true* channels of the run (the pre-coders, in contrast, were
  computed by the transmitters from *estimated* channels).  True
  channels come out of the :class:`repro.sim.network.ChannelBank` as
  read-only (possibly transposed) views of responses it computes on a
  link's first read and shares from then on, so everything here treats
  them as immutable inputs -- slicing and einsum-ing views is fine,
  in-place writes would raise,
* the pre-coding vectors and power of every stream on the air,
* the residual-interference model of the hardware profile for streams
  that were pre-coded to protect this receiver (imperfect nulling and
  alignment, §6.2).

How an interfering stream is handled depends on what the receiver can
know about it:

* a stream whose transmitter *protected* this receiver (nulling or
  alignment) contributes only residual noise;
* a stream that was already on the air when this receiver's transmission
  started -- or another stream from the *same* transmitter -- was present
  in the preamble the receiver used for channel estimation, so the
  receiver projects it out (it costs a signal dimension);
* a stream that appeared later *without* protecting this receiver (a
  secondary-contention collision) is untreatable interference and is
  counted at full power.

All per-subcarrier quantities are computed as stacked ``(n_sub, ...)``
arrays through batched ``np.linalg`` operations, rank-degenerate
channels included; the per-subcarrier formulations they are checked
against live in the test oracles.

The projection and zero-forcing SVDs depend only on the wanted and
projected channel stacks, and within a run the same configuration is
evaluated again and again (delivery re-evaluates what planning measured
on the RTS).  :func:`receiver_stream_snrs` therefore passes the
network's ``zero_forcing_memo`` to the decoder kernel, which keys that
work by the stacks' exact bytes; the residual-interference and noise
terms, including the seeded suppression jitter, are applied on every
call, so results are bit-identical to computing afresh.  Content keys
need no invalidation: a fade changes the channel bytes and misses.

Two answers are fixed before any of that work:

* **Idle medium.**  A traffic link whose transmitter sends ``n``
  identity-precoded streams at power ``1/n`` with nothing else on the air
  has SNRs and an MCS that depend only on the link and its channel epoch.
  :func:`solo_link` reads them from the network's ``solo_links`` table,
  which it fills in batched passes over many traffic links, one per
  ``(N_rx, M_tx, n)`` shape (stacked LAPACK factors each matrix on its
  own, so the bits match the one-link call); an entry whose epoch moved
  is recomputed alone.  Idle-medium plans and solo receptions read it
  instead of calling :func:`receiver_stream_snrs`.
* **A full receiver** (§3's degrees of freedom): an ``N``-antenna
  receiver decoding ``n >= N`` streams has no dimension left to project
  out nonzero interference, so :func:`receiver_stream_snrs` returns the
  floor SNR for every wanted stream without any SVD -- exactly what the
  full kernel computes, since its complement of width ``N - rank < n``
  leaves the streams inseparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import BITRATE_MARGIN_DB
from repro.mac.bitrate import choose_bitrate
from repro.mimo.decoder import post_projection_snr_batch
from repro.mimo.dof import InterferenceStrategy
from repro.phy.rates import MCS
from repro.sim.medium import ScheduledStream
from repro.utils import guarded
from repro.utils.db import linear_to_db
from repro.utils.linalg import singular_value_ranks

__all__ = [
    "FLOOR_SNR_DB",
    "SoloLink",
    "solo_link",
    "receiver_stream_snrs",
    "unprotected_interference_power_batch",
    "interference_directions_at",
    "announced_decoding_subspace",
]


#: The SNR (dB) of a stream its receiver cannot separate: SNR 0 at the
#: :func:`~repro.utils.db.linear_to_db` floor.
FLOOR_SNR_DB = float(linear_to_db(0.0))


@dataclass(frozen=True, eq=False)
class SoloLink:
    """What an idle medium determines about one traffic link.

    The transmitter sends ``len(precoders)`` streams, stream ``j``
    pre-coded by the ``j``-th unit vector at power :attr:`power`, and
    nothing else is on the air.  ``snrs_db`` holds each stream's
    per-subcarrier post-projection SNRs (read-only, stream order),
    ``mcs`` the bitrate the receiver feeds back for them, and ``epoch``
    the link's :meth:`~repro.sim.network.Network.epoch_signature` they
    were computed at.
    """

    precoders: Tuple[np.ndarray, ...]
    snrs_db: Tuple[np.ndarray, ...]
    mcs: MCS
    epoch: tuple

    @property
    def n_streams(self) -> int:
        """Streams of the plan."""
        return len(self.precoders)

    @property
    def power(self) -> float:
        """Transmit power of each stream (an equal split of 1)."""
        return 1.0 / self.n_streams


def _solo_key(network, transmitter_id: int, receiver_id: int, max_streams) -> tuple:
    """``(tx, rx, n)``: one stream per usable antenna, at most ``max_streams``."""
    n_streams = min(
        network.station(transmitter_id).n_antennas,
        network.station(receiver_id).n_antennas,
    )
    if max_streams is not None:
        n_streams = min(n_streams, max_streams)
    return transmitter_id, receiver_id, n_streams


def _fill_solo_links(network, keys: Iterable[tuple]) -> None:
    """Compute the :class:`SoloLink` of every ``(tx, rx, n)`` key.

    One pass per ``(N_rx, M_tx, n)`` shape: one channel read, one
    effective-column einsum and one decoder call over the ``links x
    n_sub`` stack.  Every member is its own matrix to LAPACK and to the
    noise and floor arithmetic, so each link's SNRs are bit-identical to
    :func:`receiver_stream_snrs` of its streams alone, and its MCS is
    :func:`~repro.mac.bitrate.choose_bitrate` of them, as the agents pick
    it.
    """
    shapes: Dict[tuple, List[tuple]] = {}
    for key in keys:
        tx_id, rx_id, n_streams = key
        shape = (
            network.station(rx_id).n_antennas,
            network.station(tx_id).n_antennas,
            n_streams,
        )
        shapes.setdefault(shape, []).append(key)
    n_sub = network.n_subcarriers
    for (n_rx, n_tx, n_streams), group in shapes.items():
        channels = np.stack(network.channels.channels([key[:2] for key in group]))
        identity = np.eye(n_tx, n_streams, dtype=complex)
        precoders = tuple(np.tile(identity[:, j], (n_sub, 1)) for j in range(n_streams))
        for vector in precoders:
            vector.setflags(write=False)
        columns = np.sqrt(1.0 / n_streams) * np.einsum("lknm,mj->lknj", channels, identity)
        snr, _ = post_projection_snr_batch(
            columns.reshape(-1, n_rx, n_streams),
            None,
            noise_power=network.noise_power,
        )
        snrs_db = linear_to_db(snr).reshape(len(group), n_sub, n_streams)
        for key, link_db in zip(group, snrs_db):
            streams = tuple(
                np.ascontiguousarray(link_db[:, index]) for index in range(n_streams)
            )
            for stream in streams:
                stream.setflags(write=False)
            network.solo_links[key] = SoloLink(
                precoders=precoders,
                snrs_db=streams,
                mcs=choose_bitrate(np.concatenate(streams), BITRATE_MARGIN_DB),
                epoch=network.epoch_signature(key[:2]),
            )


def solo_link(
    network, transmitter_id: int, receiver_id: int, max_streams: Optional[int] = None
) -> SoloLink:
    """The idle-medium :class:`SoloLink` of a traffic link.

    The link sends one stream per usable antenna (``min(M, N)``), capped
    at ``max_streams`` when given.  Entries live in the network's
    ``solo_links`` table, keyed ``(tx, rx, n)``, so every protocol run on
    the network shares them.

    A key read for the first time is computed in one batched pass with
    as many other traffic links of ``network.pairs`` (same stream cap,
    no entry yet) as the table already holds, so the table doubles with
    each miss.  A network whose runs read most of its links fills them
    in a handful of passes, and one whose runs read a few of many (the
    500-station LAN's 20 ms runs read about 6 of its 250) computes few
    entries it never reads.  An entry whose link epoch moved since (a
    fade or its restore) is recomputed alone.
    """
    key = _solo_key(network, transmitter_id, receiver_id, max_streams)
    table = network.solo_links
    entry = table.get(key)
    if entry is None:
        traffic = (
            _solo_key(network, pair.transmitter.node_id, receiver.node_id, max_streams)
            for pair in network.pairs
            for receiver in pair.receivers
        )
        others = [k for k in traffic if k != key and k not in table][: len(table)]
        _fill_solo_links(network, [key, *others])
    elif entry.epoch != network.epoch_signature(key[:2]):
        _fill_solo_links(network, [key])
    else:
        return entry
    return table[key]


def _inseparable(n_wanted: int, interference: Optional[np.ndarray]) -> bool:
    """Whether §3's degrees-of-freedom count already answers the receiver.

    ``n_wanted >= N`` streams fill an ``N``-antenna receiver, so any
    nonzero interference it must project out leaves them inseparable.
    The count applies when the sanitized interference stack is nonzero on
    every subcarrier; a zero or poisoned subcarrier leaves the answer to
    the full kernel.
    """
    if interference is None or n_wanted < interference.shape[1]:
        return False
    clean, _ = guarded.sanitize_stack(interference)
    return bool(clean.any(axis=(1, 2)).all())


def unprotected_interference_power_batch(
    channel: np.ndarray, stream: ScheduledStream
) -> np.ndarray:
    """Average per-receive-antenna power the stream would create at a
    receiver with no protective pre-coding, on every subcarrier.

    For a unit-norm pre-coder drawn independently of the channel, the
    expected per-antenna interference power is ``power * ||H||_F^2 / (N M)``.
    """
    n_rx, n_tx = channel.shape[1:]
    return stream.power * np.sum(np.abs(channel) ** 2, axis=(1, 2)) / (n_rx * n_tx)


def _effective_columns(channel: np.ndarray, stream: ScheduledStream) -> np.ndarray:
    """The effective channel column of a stream on every subcarrier,
    shape ``(n_sub, N)``."""
    return np.sqrt(stream.power) * np.einsum("knm,km->kn", channel, stream.precoders)


def interference_directions_at(
    network, receiver_id: int, streams: Sequence[ScheduledStream]
) -> np.ndarray:
    """Effective channel columns of ``streams`` at a receiver.

    Returns a complex array of shape ``(n_subcarriers, N, len(streams))``
    -- the directions along which those streams arrive, which is what the
    receiver projects out and what defines its unwanted space.
    """
    streams = list(streams)
    n_sub = network.n_subcarriers
    n_rx = network.station(receiver_id).n_antennas
    out = np.zeros((n_sub, n_rx, len(streams)), dtype=complex)
    for index, stream in enumerate(streams):
        channel = network.true_channel(stream.transmitter_id, receiver_id)
        out[:, :, index] = _effective_columns(channel, stream)
    return out


def announced_decoding_subspace(
    network,
    receiver_id: int,
    wanted_streams: Sequence[ScheduledStream],
    interference_streams: Sequence[ScheduledStream],
) -> np.ndarray:
    """The per-subcarrier U-perp a receiver announces in its light-weight CTS.

    U-perp spans the directions the receiver actually uses to decode its
    wanted streams: the wanted effective channels projected orthogonal to
    the interference the receiver already sees.  A joiner that keeps its
    signal orthogonal to U-perp (Claim 3.4) therefore cannot disturb the
    receiver's decoding.

    Returns ``(u_perp, degraded)``: U-perp of shape ``(n_subcarriers, N,
    n_wanted)`` and the ``(n_subcarriers,)`` mask of the subcarriers
    whose channels were non-finite or whose SVD did not converge
    (:mod:`repro.utils.guarded`), where U-perp carries no information.
    """
    wanted = list(wanted_streams)
    n_wanted = len(wanted)
    wanted_dirs = interference_directions_at(network, receiver_id, wanted)
    interference_dirs = (
        interference_directions_at(network, receiver_id, interference_streams)
        if interference_streams
        else None
    )

    columns = wanted_dirs
    poisoned = False
    if interference_dirs is not None and interference_dirs.shape[2]:
        u, s, _, poisoned = guarded.svd_stack(interference_dirs, full_matrices=False)
        ranks = singular_value_ranks(s)
        width = int(ranks.max())
        # Rank-masked interference basis: a subcarrier whose interference
        # has a lower rank contributes zero columns past it.
        ortho = u[:, :, :width] * (np.arange(width) < ranks[:, None])[:, None, :]
        columns = columns - ortho @ (ortho.conj().transpose(0, 2, 1) @ columns)

    # The thin SVD's left factor is orthonormal even where the projected
    # wanted columns are rank deficient, so a degenerate subcarrier comes
    # back padded with arbitrary orthonormal directions.
    u, _, _, degraded = guarded.svd_stack(columns, full_matrices=False)
    return u[:, :, :n_wanted], degraded | poisoned


def receiver_stream_snrs(
    network,
    receiver_id: int,
    wanted_streams: Sequence[ScheduledStream],
    concurrent_streams: Sequence[ScheduledStream],
    rng: Optional[np.random.Generator] = None,
) -> Dict[int, np.ndarray]:
    """Per-subcarrier post-projection SNRs of the wanted streams.

    Parameters
    ----------
    network:
        The :class:`repro.sim.network.Network` of the run (provides true
        channels, the hardware profile and the noise normalisation).
    receiver_id:
        The receiving node.
    wanted_streams:
        The streams this receiver wants to decode (all from one
        transmitter).
    concurrent_streams:
        Every stream on the air during the reception, including the wanted
        ones.
    rng:
        Optional generator for the residual-suppression spread; omit for a
        deterministic mean-suppression model.

    Returns
    -------
    dict
        Maps each wanted stream's ``stream_id`` to an array of
        per-subcarrier SNRs in dB.  Wanted streams that fill the receiver
        while it projects out interference that is nonzero on every
        subcarrier get :data:`FLOOR_SNR_DB` without any decomposition
        (the module's degrees-of-freedom rule); the jitter is drawn first,
        so ``rng`` advances as it does on the full path.
    """
    wanted = list(wanted_streams)
    if not wanted:
        return {}
    wanted_ids = {s.stream_id for s in wanted}
    transmitter_id = wanted[0].transmitter_id
    first_wanted_order = min(s.join_order for s in wanted)
    n_sub = network.n_subcarriers
    noise = network.noise_power

    # Pre-fetch channels from every involved transmitter to this receiver.
    transmitters = {s.transmitter_id for s in concurrent_streams} | {transmitter_id}
    senders = [tx for tx in transmitters if tx != receiver_id]
    channels = dict(zip(senders, network.true_channels(senders, receiver_id)))

    projection_streams: List[ScheduledStream] = []
    residual_streams: List[ScheduledStream] = []
    raw_streams: List[ScheduledStream] = []
    for stream in concurrent_streams:
        if stream.stream_id in wanted_ids:
            continue
        if stream.transmitter_id == receiver_id:
            # A node does not interfere with its own reception (half duplex:
            # it would not be receiving at all; guard anyway).
            continue
        if stream.protects(receiver_id):
            residual_streams.append(stream)
        elif stream.transmitter_id == transmitter_id or stream.join_order <= first_wanted_order:
            projection_streams.append(stream)
        else:
            raw_streams.append(stream)

    interference = (
        np.stack(
            [_effective_columns(channels[s.transmitter_id], s) for s in projection_streams],
            axis=2,
        )
        if projection_streams
        else None
    )

    # One draw per (subcarrier, stream) in row-major order, matching the
    # draw order of the per-subcarrier loop so seeded runs reproduce.
    jitter = None
    if residual_streams and rng is not None:
        jitter = network.hardware.draw_suppression_jitter(
            rng, size=(n_sub, len(residual_streams))
        )
    if _inseparable(len(wanted), interference):
        return {stream.stream_id: np.full(n_sub, FLOOR_SNR_DB) for stream in wanted}

    wanted_matrix = np.stack(
        [_effective_columns(channels[s.transmitter_id], s) for s in wanted], axis=2
    )  # (n_sub, N, n_wanted)
    residual_power = np.zeros(n_sub)
    for index, stream in enumerate(residual_streams):
        strategy = stream.protected_receivers.get(receiver_id, InterferenceStrategy.NULL)
        unprotected = unprotected_interference_power_batch(
            channels[stream.transmitter_id], stream
        )
        residual_power += network.hardware.residual_interference_power_batch(
            unprotected,
            aligned=strategy is InterferenceStrategy.ALIGN,
            suppression_jitter_db=None if jitter is None else jitter[:, index],
        )
    for stream in raw_streams:
        residual_power += unprotected_interference_power_batch(
            channels[stream.transmitter_id], stream
        )

    snr, _ = post_projection_snr_batch(
        wanted_matrix,
        interference,
        noise_power=noise,
        signal_power=1.0,
        residual_interference_power=residual_power,
        memo=network.zero_forcing_memo,
    )
    per_stream_db = linear_to_db(snr)  # (n_sub, n_wanted)
    return {
        stream.stream_id: np.ascontiguousarray(per_stream_db[:, index])
        for index, stream in enumerate(wanted)
    }
