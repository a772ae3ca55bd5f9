"""Link abstraction: from streams on the air to post-projection SNRs.

Instead of simulating every sample of every packet, the MAC-level
simulator computes -- per OFDM subcarrier -- the SNR each wanted stream
would see at its receiver after the receiver projects out the
interference it can see and zero-forces among its wanted streams.  The
computation uses:

* the *true* channels of the run (the pre-coders, in contrast, were
  computed by the transmitters from *estimated* channels).  True
  channels come out of the :class:`repro.sim.network.ChannelBank` as
  read-only (possibly transposed) views of shared per-group tensors, so
  everything here treats them as immutable inputs -- slicing and
  einsum-ing views is fine, in-place writes would raise,
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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.mimo.decoder import post_projection_snr_batch
from repro.mimo.dof import InterferenceStrategy
from repro.sim.medium import ScheduledStream
from repro.utils.db import linear_to_db
from repro.utils.linalg import singular_value_ranks

__all__ = [
    "receiver_stream_snrs",
    "unprotected_interference_power_batch",
    "interference_directions_at",
    "announced_decoding_subspace",
]


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

    Returns an array of shape ``(n_subcarriers, N, n_wanted)``.
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
    if interference_dirs is not None and interference_dirs.shape[2]:
        u, s, _ = np.linalg.svd(interference_dirs, full_matrices=False)
        ranks = singular_value_ranks(s)
        width = int(ranks.max())
        # Rank-masked interference basis: a subcarrier whose interference
        # has a lower rank contributes zero columns past it.
        ortho = u[:, :, :width] * (np.arange(width) < ranks[:, None])[:, None, :]
        columns = columns - ortho @ (ortho.conj().transpose(0, 2, 1) @ columns)

    # The thin SVD's left factor is orthonormal even where the projected
    # wanted columns are rank deficient, so a degenerate subcarrier comes
    # back padded with arbitrary orthonormal directions.
    u, _, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, :, :n_wanted]


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
        per-subcarrier SNRs in dB.
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
    channels = {
        tx: network.true_channel(tx, receiver_id) for tx in transmitters if tx != receiver_id
    }

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

    wanted_matrix = np.stack(
        [_effective_columns(channels[s.transmitter_id], s) for s in wanted], axis=2
    )  # (n_sub, N, n_wanted)
    interference = (
        np.stack(
            [_effective_columns(channels[s.transmitter_id], s) for s in projection_streams],
            axis=2,
        )
        if projection_streams
        else None
    )

    residual_power = np.zeros(n_sub)
    if residual_streams:
        # One draw per (subcarrier, stream) in row-major order, matching the
        # draw order of the per-subcarrier loop so seeded runs reproduce.
        jitter = (
            network.hardware.draw_suppression_jitter(
                rng, size=(n_sub, len(residual_streams))
            )
            if rng is not None
            else None
        )
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

    per_stream_db = linear_to_db(
        post_projection_snr_batch(
            wanted_matrix,
            interference,
            noise_power=noise,
            signal_power=1.0,
            residual_interference_power=residual_power,
            memo=network.zero_forcing_memo,
        )
    )  # (n_sub, n_wanted)
    return {
        stream.stream_id: np.ascontiguousarray(per_stream_db[:, index])
        for index, stream in enumerate(wanted)
    }
