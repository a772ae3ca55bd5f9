"""The batched link abstraction must reproduce the per-subcarrier
reference formulation (effective columns, announced subspaces, SNRs)."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.mimo import (
    announced_subspace_reference,
    effective_column_reference,
    post_projection_snr_reference,
    unprotected_interference_power_reference,
)
from repro.mimo.dof import InterferenceStrategy
from repro.phy.rates import MCS_TABLE
from repro.sim.link_abstraction import (
    announced_decoding_subspace,
    interference_directions_at,
    receiver_stream_snrs,
    unprotected_interference_power_batch,
)
from repro.utils.db import linear_to_db
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.network import Network
from repro.sim.scenarios import three_pair_scenario

N_SUB = 8


@pytest.fixture
def network(rng):
    scenario = three_pair_scenario()
    return Network(scenario.stations, scenario.pairs, rng, n_subcarriers=N_SUB)


def _stream(medium, network, tx, rx, order=0, power=1.0, protected=None, seed=0):
    n_tx = network.station(tx).n_antennas
    rng = np.random.default_rng(1000 + seed)
    precoders = rng.standard_normal((N_SUB, n_tx)) + 1j * rng.standard_normal((N_SUB, n_tx))
    precoders /= np.linalg.norm(precoders, axis=1, keepdims=True)
    return ScheduledStream(
        stream_id=medium.next_stream_id(),
        transmitter_id=tx,
        receiver_id=rx,
        precoders=precoders,
        power=power,
        mcs=MCS_TABLE[0],
        payload_bits=12000,
        start_us=0.0,
        end_us=1000.0,
        join_order=order,
        protected_receivers=dict(protected or {}),
    )


class TestEffectiveColumns:
    def test_interference_directions_match_per_subcarrier(self, network):
        medium = Medium()
        streams = [
            _stream(medium, network, tx=2, rx=3, seed=1),
            _stream(medium, network, tx=4, rx=5, seed=2),
        ]
        directions = interference_directions_at(network, 3, streams)
        for index, stream in enumerate(streams):
            channel = network.true_channel(stream.transmitter_id, 3)
            for k in range(N_SUB):
                reference = effective_column_reference(channel, stream, k)
                assert np.allclose(directions[k, :, index], reference)

    def test_unprotected_power_matches_per_subcarrier(self, network):
        medium = Medium()
        stream = _stream(medium, network, tx=4, rx=5, power=0.7)
        channel = network.true_channel(4, 1)
        batched = unprotected_interference_power_batch(channel, stream)
        for k in range(N_SUB):
            assert batched[k] == pytest.approx(
                unprotected_interference_power_reference(channel, stream, k)
            )


class TestAnnouncedSubspace:
    def test_matches_reference_without_interference(self, network):
        medium = Medium()
        wanted = [_stream(medium, network, tx=2, rx=3, seed=3)]
        batched, _ = announced_decoding_subspace(network, 3, wanted, [])
        wanted_dirs = interference_directions_at(network, 3, wanted)
        reference = announced_subspace_reference(wanted_dirs, None, 1)
        assert np.allclose(batched, reference)

    def test_matches_reference_with_interference(self, network):
        medium = Medium()
        wanted = [_stream(medium, network, tx=2, rx=3, seed=4)]
        interference = [_stream(medium, network, tx=4, rx=5, seed=5)]
        batched, _ = announced_decoding_subspace(network, 3, wanted, interference)
        wanted_dirs = interference_directions_at(network, 3, wanted)
        interference_dirs = interference_directions_at(network, 3, interference)
        reference = announced_subspace_reference(wanted_dirs, interference_dirs, 1)
        assert np.allclose(batched, reference)

    def test_rank_deficient_subcarrier_is_padded_orthonormally(self, network):
        # On subcarrier 2 the first wanted stream is steered to arrive
        # exactly along the interference, so its projected column is zero:
        # the announced basis there is padded with orthonormal filler, and
        # everywhere else it matches the per-subcarrier formulation.
        medium = Medium()
        interference = [_stream(medium, network, tx=0, rx=1, seed=14)]
        interference_dirs = interference_directions_at(network, 5, interference)
        steered = _stream(medium, network, tx=4, rx=5, seed=15)
        steered.precoders[2] = np.linalg.solve(
            network.true_channel(4, 5)[2], interference_dirs[2, :, 0]
        )
        wanted = [steered, _stream(medium, network, tx=2, rx=3, seed=16)]
        wanted_dirs = interference_directions_at(network, 5, wanted)

        subspace, _ = announced_decoding_subspace(network, 5, wanted, interference)
        gram = subspace.conj().transpose(0, 2, 1) @ subspace
        assert np.allclose(gram, np.broadcast_to(np.eye(2), (N_SUB, 2, 2)))
        reference = announced_subspace_reference(wanted_dirs, interference_dirs, 2)
        full_rank = [k for k in range(N_SUB) if k != 2]
        assert np.allclose(subspace[full_rank], reference[full_rank])

    def test_joiner_orthogonal_to_subspace_is_harmless(self, network):
        medium = Medium()
        wanted = [_stream(medium, network, tx=2, rx=3, seed=6)]
        subspace, _ = announced_decoding_subspace(network, 3, wanted, [])
        # Columns are orthonormal per subcarrier.
        gram = subspace.conj().transpose(0, 2, 1) @ subspace
        assert np.allclose(gram, np.broadcast_to(np.eye(1), (N_SUB, 1, 1)))


def _reference_snrs(network, receiver_id, wanted, projection, residual_power):
    """Per-subcarrier SNR loop mirroring the seed implementation."""
    channels = {
        s.transmitter_id: network.true_channel(s.transmitter_id, receiver_id)
        for s in wanted + projection
    }
    noise = network.noise_power
    out = {s.stream_id: [] for s in wanted}
    for k in range(N_SUB):
        wanted_matrix = np.stack(
            [effective_column_reference(channels[s.transmitter_id], s, k) for s in wanted], axis=1
        )
        interference = (
            np.stack(
                [effective_column_reference(channels[s.transmitter_id], s, k) for s in projection],
                axis=1,
            )
            if projection
            else None
        )
        per_stream = linear_to_db(
            post_projection_snr_reference(
                wanted_matrix,
                interference,
                noise_power=noise,
                signal_power=1.0,
                residual_interference_power=float(residual_power[k]),
            )
        )
        for index, stream in enumerate(wanted):
            out[stream.stream_id].append(float(per_stream[index]))
    return {stream_id: np.asarray(values) for stream_id, values in out.items()}


class TestReceiverStreamSnrs:
    def test_matches_reference_loop_with_projection(self, network):
        medium = Medium()
        wanted = [_stream(medium, network, tx=2, rx=3, order=1, seed=7)]
        earlier = _stream(medium, network, tx=0, rx=1, order=0, seed=8)
        batched = receiver_stream_snrs(network, 3, wanted, wanted + [earlier])
        reference = _reference_snrs(network, 3, wanted, [earlier], np.zeros(N_SUB))
        for stream_id, values in reference.items():
            assert np.allclose(batched[stream_id], values)

    def test_matches_reference_loop_with_residuals(self, network):
        medium = Medium()
        wanted = [_stream(medium, network, tx=0, rx=1, order=0, seed=9)]
        joiner = _stream(
            medium,
            network,
            tx=2,
            rx=3,
            order=1,
            protected={1: InterferenceStrategy.NULL},
            seed=10,
        )
        rogue = _stream(medium, network, tx=4, rx=5, order=2, seed=11)
        batched = receiver_stream_snrs(network, 1, wanted, wanted + [joiner, rogue])
        residual = network.hardware.residual_interference_power_batch(
            unprotected_interference_power_batch(network.true_channel(2, 1), joiner),
            aligned=False,
        ) + unprotected_interference_power_batch(network.true_channel(4, 1), rogue)
        reference = _reference_snrs(network, 1, wanted, [], residual)
        for stream_id, values in reference.items():
            assert np.allclose(batched[stream_id], values)

    def test_seeded_jitter_is_reproducible(self, network):
        medium = Medium()
        wanted = [_stream(medium, network, tx=0, rx=1, order=0, seed=12)]
        joiner = _stream(
            medium,
            network,
            tx=2,
            rx=3,
            order=1,
            protected={1: InterferenceStrategy.ALIGN},
            seed=13,
        )
        first = receiver_stream_snrs(
            network, 1, wanted, wanted + [joiner], rng=np.random.default_rng(42)
        )
        second = receiver_stream_snrs(
            network, 1, wanted, wanted + [joiner], rng=np.random.default_rng(42)
        )
        for stream_id in first:
            assert np.array_equal(first[stream_id], second[stream_id])
        # The jittered residual must differ from the deterministic one.
        deterministic = receiver_stream_snrs(network, 1, wanted, wanted + [joiner])
        assert not np.allclose(first[wanted[0].stream_id], deterministic[wanted[0].stream_id])
