"""Tests for the per-run network and the link abstraction."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mimo.dof import InterferenceStrategy
from repro.phy.rates import MCS_TABLE
from repro.sim.link_abstraction import (
    announced_decoding_subspace,
    interference_directions_at,
    receiver_stream_snrs,
    unprotected_interference_power_batch,
)
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.network import Network
from repro.sim.scenarios import three_pair_scenario


@pytest.fixture
def network(rng):
    scenario = three_pair_scenario()
    return Network(scenario.stations, scenario.pairs, rng, n_subcarriers=8)


def _stream(medium, network, tx, rx, order=0, power=1.0, protected=None, precoder_index=0):
    n_tx = network.station(tx).n_antennas
    precoders = np.zeros((network.n_subcarriers, n_tx), dtype=complex)
    precoders[:, precoder_index % n_tx] = 1.0
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


class TestNetwork:
    def test_channel_shapes(self, network):
        channel = network.true_channel(0, 3)  # tx1 (1 ant) -> rx2 (2 ant)
        assert channel.shape == (8, 2, 1)

    def test_reciprocity_of_true_channels(self, network):
        forward = network.true_channel(0, 3)
        reverse = network.true_channel(3, 0)
        for k in range(8):
            assert np.allclose(reverse[k], forward[k].T)

    def test_estimated_channel_is_close_but_not_exact(self, network):
        true = network.true_channel(2, 3)
        estimate = network.estimated_channel(2, 3)
        assert not np.allclose(estimate, true)
        relative = np.linalg.norm(estimate - true) / np.linalg.norm(true)
        assert relative < 0.2

    def test_self_channel_rejected(self, network):
        with pytest.raises(ConfigurationError):
            network.true_channel(1, 1)

    def test_station_lookup(self, network):
        assert network.station(4).n_antennas == 3

    def test_station_lookup_failure(self, network):
        with pytest.raises(KeyError):
            network.station(99)

    def test_duplicate_station_ids_rejected(self, rng):
        from repro.sim.node import Station, TrafficPair

        a = Station(0, 1)
        b = Station(0, 2)
        with pytest.raises(ConfigurationError):
            Network([a, b], [TrafficPair(a, [b])], rng)

    def test_describe_mentions_every_pair(self, network):
        text = network.describe()
        assert "tx1" in text and "tx3" in text


class TestLinkAbstraction:
    def test_single_stream_without_interference(self, network):
        medium = Medium()
        stream = _stream(medium, network, tx=0, rx=1)
        snrs = receiver_stream_snrs(network, 1, [stream], [stream])
        values = snrs[stream.stream_id]
        assert values.shape == (8,)
        # SNR should be in the vicinity of the link budget.
        assert 0.0 < np.mean(values) < 45.0

    def test_projected_interference_reduces_snr(self, network):
        medium = Medium()
        wanted = _stream(medium, network, tx=2, rx=3, order=1)
        interferer = _stream(medium, network, tx=0, rx=1, order=0)
        alone = receiver_stream_snrs(network, 3, [wanted], [wanted])[wanted.stream_id]
        with_interference = receiver_stream_snrs(network, 3, [wanted], [wanted, interferer])[
            wanted.stream_id
        ]
        assert np.mean(with_interference) <= np.mean(alone) + 1e-9

    def test_protected_stream_only_adds_residual_noise(self, network):
        medium = Medium()
        wanted = _stream(medium, network, tx=0, rx=1, order=0)
        joiner = _stream(
            medium,
            network,
            tx=4,
            rx=5,
            order=1,
            protected={1: InterferenceStrategy.NULL},
        )
        alone = receiver_stream_snrs(network, 1, [wanted], [wanted])[wanted.stream_id]
        protected = receiver_stream_snrs(network, 1, [wanted], [wanted, joiner])[wanted.stream_id]
        loss = np.mean(alone) - np.mean(protected)
        assert 0.0 <= loss < 6.0

    def test_unprotected_later_stream_is_catastrophic_for_single_antenna(self, network):
        medium = Medium()
        wanted = _stream(medium, network, tx=0, rx=1, order=0)
        rogue = _stream(medium, network, tx=4, rx=5, order=1)  # no protection
        alone = receiver_stream_snrs(network, 1, [wanted], [wanted])[wanted.stream_id]
        jammed = receiver_stream_snrs(network, 1, [wanted], [wanted, rogue])[wanted.stream_id]
        assert np.mean(jammed) < np.mean(alone) - 5.0

    def test_nulling_residual_smaller_than_alignment(self, network):
        medium = Medium()
        wanted = _stream(medium, network, tx=0, rx=1, order=0)
        nuller = _stream(
            medium, network, tx=4, rx=5, order=1, protected={1: InterferenceStrategy.NULL}
        )
        aligner = _stream(
            medium, network, tx=4, rx=5, order=1, protected={1: InterferenceStrategy.ALIGN}
        )
        with_null = receiver_stream_snrs(network, 1, [wanted], [wanted, nuller])[wanted.stream_id]
        with_align = receiver_stream_snrs(network, 1, [wanted], [wanted, aligner])[wanted.stream_id]
        assert np.mean(with_null) >= np.mean(with_align)

    def test_unprotected_power_scales_with_stream_power(self, network):
        medium = Medium()
        weak = _stream(medium, network, tx=4, rx=5, power=0.1)
        strong = _stream(medium, network, tx=4, rx=5, power=1.0)
        channel = network.true_channel(4, 1)
        assert unprotected_interference_power_batch(channel, strong) == pytest.approx(
            10 * unprotected_interference_power_batch(channel, weak)
        )

    def test_interference_directions_shape(self, network):
        medium = Medium()
        streams = [_stream(medium, network, tx=0, rx=1), _stream(medium, network, tx=2, rx=3)]
        directions = interference_directions_at(network, 5, streams)
        assert directions.shape == (8, 3, 2)

    def test_announced_subspace_is_orthonormal_and_orthogonal_to_interference(self, network):
        medium = Medium()
        wanted = [_stream(medium, network, tx=2, rx=3, order=1)]
        interference = [_stream(medium, network, tx=0, rx=1, order=0)]
        subspace, _ = announced_decoding_subspace(network, 3, wanted, interference)
        assert subspace.shape == (8, 2, 1)
        directions = interference_directions_at(network, 3, interference)
        for k in range(8):
            basis = subspace[k]
            assert np.allclose(basis.conj().T @ basis, np.eye(1), atol=1e-8)
            assert np.allclose(directions[k].conj().T @ basis, 0, atol=1e-8)

    def test_empty_wanted_list(self, network):
        assert receiver_stream_snrs(network, 1, [], []) == {}
