"""Properties of the unwanted space a receiver announces (§3.3, Claim 3.4).

A receiver decodes its wanted streams inside U-perp, the wanted directions
projected orthogonal to the interference it already sees; everything else
is its unwanted space U, where a joiner may align.  These tests check the
announcement of :func:`repro.sim.link_abstraction.announced_decoding_subspace`
directly, on the three-pair topology (1-, 2- and 3-antenna pairs).
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import is_in_subspace
from oracles.mimo import alignment_constraint_rows, alignment_precoders, orthonormal_complement
from repro.phy.rates import MCS_TABLE
from repro.sim.link_abstraction import announced_decoding_subspace, interference_directions_at
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.network import Network
from repro.sim.scenarios import three_pair_scenario

N_SUB = 6


@pytest.fixture
def network(rng):
    scenario = three_pair_scenario()
    return Network(scenario.stations, scenario.pairs, rng, n_subcarriers=N_SUB)


def _stream(medium, network, tx, rx, power=1.0, seed=0, precoders=None):
    if precoders is None:
        n_tx = network.station(tx).n_antennas
        rng = np.random.default_rng(500 + seed)
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
    )


# (receiver, wanted transmitter, wanted stream count, interfering transmitters):
# every split of a 2- or 3-antenna receiver between wanted and interference.
LAYOUTS = {
    "2ant-1w-1i": (3, 2, 1, [4]),
    "3ant-1w-1i": (5, 4, 1, [2]),
    "3ant-1w-2i": (5, 4, 1, [0, 2]),
    "3ant-2w-1i": (5, 4, 2, [0]),
}


def _layout(network, name):
    receiver, wanted_tx, n_wanted, interferers = LAYOUTS[name]
    medium = Medium()
    wanted = [
        _stream(medium, network, wanted_tx, receiver, seed=10 + i) for i in range(n_wanted)
    ]
    interference = [
        _stream(medium, network, tx, tx + 1, seed=20 + i) for i, tx in enumerate(interferers)
    ]
    return receiver, wanted, interference


def _projector(basis):
    return basis @ basis.conj().transpose(0, 2, 1)


class TestUnwantedSpace:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_dimensions(self, network, layout):
        receiver, wanted, interference = _layout(network, layout)
        u_perp = announced_decoding_subspace(network, receiver, wanted, interference)
        n_rx = network.station(receiver).n_antennas
        assert u_perp.shape == (N_SUB, n_rx, len(wanted))

    def test_no_spare_dimension_gives_identity(self, network):
        # Two wanted streams at a 2-antenna receiver use both dimensions:
        # U-perp is the whole space and the unwanted space is empty.
        medium = Medium()
        wanted = [_stream(medium, network, 2, 3, seed=s) for s in (1, 2)]
        u_perp = announced_decoding_subspace(network, 3, wanted, [])
        assert np.allclose(_projector(u_perp), np.broadcast_to(np.eye(2), (N_SUB, 2, 2)))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_existing_interference_lies_inside_unwanted_space(self, network, layout):
        receiver, wanted, interference = _layout(network, layout)
        u_perp = announced_decoding_subspace(network, receiver, wanted, interference)
        directions = interference_directions_at(network, receiver, interference)
        assert np.allclose(u_perp.conj().transpose(0, 2, 1) @ directions, 0, atol=1e-10)
        for k in range(N_SUB):
            unwanted = orthonormal_complement(u_perp[k])
            for column in directions[k].T:
                assert is_in_subspace(column, unwanted)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_u_perp_columns_are_orthonormal(self, network, layout):
        receiver, wanted, interference = _layout(network, layout)
        u_perp = announced_decoding_subspace(network, receiver, wanted, interference)
        gram = u_perp.conj().transpose(0, 2, 1) @ u_perp
        n_wanted = len(wanted)
        assert np.allclose(gram, np.broadcast_to(np.eye(n_wanted), (N_SUB, n_wanted, n_wanted)))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_wanted_streams_remain_separable(self, network, layout):
        receiver, wanted, interference = _layout(network, layout)
        u_perp = announced_decoding_subspace(network, receiver, wanted, interference)
        projected = u_perp.conj().transpose(0, 2, 1) @ interference_directions_at(
            network, receiver, wanted
        )
        assert np.all(np.linalg.matrix_rank(projected) == len(wanted))

    def test_without_interference_keeps_full_wanted_power(self, network):
        # With nothing else on the air U-perp spans the wanted directions,
        # so projecting onto it loses none of the wanted signal.
        medium = Medium()
        wanted = [_stream(medium, network, 4, 5, seed=3)]
        u_perp = announced_decoding_subspace(network, 5, wanted, [])
        directions = interference_directions_at(network, 5, wanted)
        projected = u_perp.conj().transpose(0, 2, 1) @ directions
        assert np.allclose(
            np.linalg.norm(projected, axis=(1, 2)), np.linalg.norm(directions, axis=(1, 2))
        )

    def test_interference_power_does_not_move_the_subspace(self, network):
        medium = Medium()
        wanted = [_stream(medium, network, 4, 5, seed=4)]
        weak = [_stream(medium, network, 2, 3, power=0.01, seed=5)]
        strong = [_stream(medium, network, 2, 3, power=100.0, seed=5)]
        assert np.allclose(
            _projector(announced_decoding_subspace(network, 5, wanted, weak)),
            _projector(announced_decoding_subspace(network, 5, wanted, strong)),
        )

    def test_u_perp_depends_only_on_the_wanted_span(self, network):
        # Mixing the wanted pre-coders by an invertible matrix changes the
        # streams but not the span they occupy, nor the announcement.
        medium = Medium()
        first, second = (_stream(medium, network, 4, 5, seed=s) for s in (6, 7))
        mixed = [
            _stream(medium, network, 4, 5, precoders=first.precoders + 2.0 * second.precoders),
            _stream(medium, network, 4, 5, precoders=first.precoders - 1j * second.precoders),
        ]
        interference = [_stream(medium, network, 0, 1, seed=8)]
        original = announced_decoding_subspace(network, 5, [first, second], interference)
        remixed = announced_decoding_subspace(network, 5, mixed, interference)
        assert np.allclose(_projector(original), _projector(remixed))

    def test_aligned_joiner_does_not_reach_the_decoding_subspace(self, network):
        # Claim 3.4: a joiner pre-coding against U-perp (Eq. 6) arrives
        # inside the receiver's unwanted space.
        medium = Medium()
        wanted = [_stream(medium, network, 4, 5, seed=9)]
        interference = [_stream(medium, network, 0, 1, seed=11)]
        u_perp = announced_decoding_subspace(network, 5, wanted, interference)
        channel = network.true_channel(2, 5)
        for k in range(N_SUB):
            rows = alignment_constraint_rows(channel[k], u_perp[k])
            precoder = alignment_precoders([rows], n_tx_antennas=2, n_streams=1)
            arrival = channel[k] @ precoder
            assert np.linalg.norm(u_perp[k].conj().T @ arrival) < 1e-10
            assert np.linalg.norm(arrival) > 1e-3

    def test_validate_rejects_outside_interference(self, network):
        # The orthogonality checks above are not vacuous: a transmitter the
        # receiver was not told about does leak into U-perp.
        receiver, wanted, interference = _layout(network, "3ant-1w-1i")
        u_perp = announced_decoding_subspace(network, receiver, wanted, interference)
        foreign = interference_directions_at(
            network, receiver, [_stream(Medium(), network, 0, 1, seed=12)]
        )
        leak = np.linalg.norm(u_perp.conj().transpose(0, 2, 1) @ foreign, axis=(1, 2))
        assert np.all(leak > 1e-6)
