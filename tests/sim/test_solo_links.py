"""The idle-medium table and the full-receiver rule change no result.

:func:`repro.sim.link_abstraction.solo_link` serves an idle-medium plan's
SNRs and MCS from a per-network table filled in batched passes, and
:func:`~repro.sim.link_abstraction.receiver_stream_snrs` answers a
receiver whose wanted streams fill its antennas without a decomposition.
Both stand in for what the measurement path computes: the table for
:func:`receiver_stream_snrs` of the link's streams alone plus
:func:`~repro.mac.bitrate.choose_bitrate`, the rule for the full
projection kernel.  These tests hold them to that path bit for bit,
through fades and restores, and pin the collision ordering the rule's
main use rests on.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_agent
from repro.channel.hardware import HardwareProfile
from repro.constants import BITRATE_MARGIN_DB
from repro.mac import agent as agent_module
from repro.mac.bitrate import choose_bitrate
from repro.mac.csma import ContentionRound
from repro.mac.dot11n import Dot11nMac
from repro.mimo.decoder import post_projection_snr_batch
from repro.mimo.dof import InterferenceStrategy
from repro.phy.rates import MCS_TABLE
from repro.sim import link_abstraction, runner
from repro.sim.link_abstraction import (
    FLOOR_SNR_DB,
    receiver_stream_snrs,
    solo_link,
)
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.runner import SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import scenario_factory
from repro.sim.spec import placement_seed
from repro.utils.db import linear_to_db

CONFIG = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)


def _identity_streams(network, tx_id, rx_id, n_streams, first_id=0, join_order=0):
    """The streams an idle-medium plan puts on the air, built the way the
    measurement path builds them: stream ``j`` tiled onto antenna ``j``
    at an equal share of the power."""
    streams = []
    for index in range(n_streams):
        vector = np.zeros(network.station(tx_id).n_antennas, dtype=complex)
        vector[index] = 1.0
        streams.append(
            ScheduledStream(
                stream_id=first_id + index,
                transmitter_id=tx_id,
                receiver_id=rx_id,
                precoders=np.tile(vector, (network.n_subcarriers, 1)),
                power=1.0 / n_streams,
                mcs=MCS_TABLE[0],
                payload_bits=0,
                start_us=0.0,
                end_us=0.0,
                join_order=join_order,
            )
        )
    return streams


def _assert_matches_measurement(network, key, entry):
    """``entry`` is bit for bit what the measurement path computes."""
    tx_id, rx_id, n_streams = key
    streams = _identity_streams(network, tx_id, rx_id, n_streams)
    measured = receiver_stream_snrs(network, rx_id, streams, streams)
    expected = [measured[s.stream_id] for s in streams]
    assert entry.n_streams == n_streams
    assert [a.tobytes() for a in entry.snrs_db] == [a.tobytes() for a in expected]
    assert entry.mcs is choose_bitrate(np.concatenate(expected), BITRATE_MARGIN_DB)
    assert entry.power == 1.0 / n_streams
    for precoders, stream in zip(entry.precoders, streams):
        assert precoders.tobytes() == stream.precoders.tobytes()


def _traffic_links(network):
    return [
        (pair.transmitter.node_id, receiver.node_id)
        for pair in network.pairs
        for receiver in pair.receivers
    ]


def _network(name, run=0):
    scenario = scenario_factory(name)()
    return scenario, build_network(scenario, placement_seed(0, run), CONFIG)


class TestTable:
    @pytest.mark.parametrize(
        "name, run",
        [
            ("dense-lan-100-bursty", 0),
            ("dense-lan-100-bursty", 1),
            ("dense-lan-100-bursty", 2),
            ("heterogeneous-ap", 0),
        ],
    )
    def test_every_traffic_link_matches_the_measurement(self, name, run):
        _, network = _network(name, run)
        for tx_id, rx_id in _traffic_links(network):
            entry = solo_link(network, tx_id, rx_id)
            n_streams = min(
                network.station(tx_id).n_antennas, network.station(rx_id).n_antennas
            )
            assert network.solo_links[(tx_id, rx_id, n_streams)] is entry
            _assert_matches_measurement(network, (tx_id, rx_id, n_streams), entry)

    def test_a_csma_run_fills_single_stream_entries(self):
        scenario, network = _network("dense-lan-20-bursty")
        run_simulation(scenario, "csma", seed=0, config=CONFIG, network=network)
        assert network.solo_links
        for key, entry in network.solo_links.items():
            assert key[2] == 1
            _assert_matches_measurement(network, key, entry)

    def test_a_miss_doubles_the_table(self):
        _, network = _network("dense-lan-100-bursty")
        links = _traffic_links(network)
        sizes = []
        for tx_id, rx_id in links:
            solo_link(network, tx_id, rx_id)
            sizes.append(len(network.solo_links))
        assert sizes[:3] == [1, 3, 3]
        assert len(network.solo_links) == len(links)

    @pytest.mark.parametrize("protocol", ["beamforming", "n+"])
    def test_the_two_receiver_ap_plan_reads_no_table(self, protocol, monkeypatch):
        """heterogeneous-ap's AP2 always has both clients backlogged, so
        it beamforms to two receivers and never plans from the table."""
        readers = []
        real = agent_module.solo_link

        def spy(network, tx_id, rx_id, max_streams=None):
            readers.append(tx_id)
            return real(network, tx_id, rx_id, max_streams)

        monkeypatch.setattr(agent_module, "solo_link", spy)
        scenario, network = _network("heterogeneous-ap")
        run_simulation(scenario, protocol, seed=0, config=CONFIG, network=network)
        assert readers and set(readers) == {0}
        assert all(key[0] == 0 for key in network.solo_links)


class TestFaults:
    def test_a_fade_and_its_restore_recompute_that_link_alone(self):
        _, network = _network("dense-lan-100-bursty")
        links = _traffic_links(network)
        for tx_id, rx_id in links:
            solo_link(network, tx_id, rx_id)
        faded = links[3]
        assert faded[::-1] not in links
        original = dict(network.solo_links)
        snapshot = network.snapshot_link(*faded)

        def reread(expected_changed):
            before = dict(network.solo_links)
            for tx_id, rx_id in links:
                solo_link(network, tx_id, rx_id)
            changed = [k for k in before if network.solo_links[k] is not before[k]]
            assert [key[:2] for key in changed] == [expected_changed]
            for key, entry in network.solo_links.items():
                _assert_matches_measurement(network, key, entry)
            return changed[0]

        network.fade_link(*faded, 20.0)
        key = reread(faded)
        assert network.solo_links[key].snrs_db[0].tobytes() != (
            original[key].snrs_db[0].tobytes()
        )
        network.restore_link(*faded, *snapshot)
        reread(faded)
        assert [a.tobytes() for a in network.solo_links[key].snrs_db] == [
            a.tobytes() for a in original[key].snrs_db
        ]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_runs_are_identical_when_every_read_recomputes(self, seed, monkeypatch):
        """One network per seed, shared by the three protocols as in a
        sweep, through the faulty scenario's fades and restores: a table
        shared across runs serves what a fresh computation would."""
        scenario = scenario_factory("dense-lan-50-faulty")()
        config = SimulationConfig(duration_us=40_000.0)
        protocols = ["802.11n", "n+", "n+[recovery=erasure]"]

        def run_all():
            network = build_network(scenario, seed, config)
            metrics = [
                run_simulation(scenario, p, seed=seed, config=config, network=network).to_dict()
                for p in protocols
            ]
            return metrics, network.link_epochs

        shared, epochs = run_all()
        fill = link_abstraction._fill_solo_links

        def recomputed(network, tx_id, rx_id, max_streams=None):
            key = link_abstraction._solo_key(network, tx_id, rx_id, max_streams)
            fill(network, [key])
            return network.solo_links[key]

        monkeypatch.setattr(agent_module, "solo_link", recomputed)
        fresh, _ = run_all()
        assert epochs  # channels changed while the table was in use
        assert shared == fresh


class _OneReceiver:
    """What :func:`receiver_stream_snrs` reads of a network, around given
    channels into receiver 0."""

    def __init__(self, channels, n_sub):
        self.n_subcarriers = n_sub
        self.noise_power = 1.0
        self.hardware = HardwareProfile()
        self.zero_forcing_memo = {}
        self._channels = channels

    def true_channels(self, tx_ids, rx_id):
        return [self._channels[tx_id] for tx_id in tx_ids]


def _antenna_streams(tx_id, channel, first_id, join_order, protected=None):
    """One unit-power stream per transmit antenna of ``channel``: their
    effective columns are the channel's columns."""
    n_sub, _, n_tx = channel.shape
    streams = []
    for index in range(n_tx):
        precoders = np.zeros((n_sub, n_tx), dtype=complex)
        precoders[:, index] = 1.0
        streams.append(
            ScheduledStream(
                stream_id=first_id + index,
                transmitter_id=tx_id,
                receiver_id=0,
                precoders=precoders,
                power=1.0,
                mcs=MCS_TABLE[0],
                payload_bits=0,
                start_us=0.0,
                end_us=1.0,
                join_order=join_order,
                protected_receivers=dict(protected or {}),
            )
        )
    return streams


def _stack(rng, n_sub, rows, cols):
    return rng.standard_normal((n_sub, rows, cols)) + 1j * rng.standard_normal(
        (n_sub, rows, cols)
    )


_MARKS = ("clean", "zero-wanted", "zero-interference", "nan-wanted", "nan-interference")


@st.composite
def _full_receiver_cases(draw):
    n_rx = draw(st.integers(1, 3))
    n_sub = draw(st.integers(1, 5))
    return dict(
        n_rx=n_rx,
        n_wanted=draw(st.integers(n_rx, 4)),
        n_interference=draw(st.integers(1, 3)),
        n_residual=draw(st.integers(0, 2)),
        n_sub=n_sub,
        marks=draw(st.lists(st.sampled_from(_MARKS), min_size=n_sub, max_size=n_sub)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _scene(case):
    """Receiver 0 wants ``n_wanted`` streams of transmitter 1 (joined
    second), projects out transmitter 2's (on the air first) and hears
    transmitter 3's, which protect it, as residual; the marked
    subcarriers of the wanted or projected stack are zero or NaN."""
    rng = np.random.default_rng(case["seed"])
    n_sub, n_rx = case["n_sub"], case["n_rx"]
    wanted = _stack(rng, n_sub, n_rx, case["n_wanted"])
    interference = _stack(rng, n_sub, n_rx, case["n_interference"])
    residual = _stack(rng, n_sub, n_rx, max(case["n_residual"], 1))
    for index, mark in enumerate(case["marks"]):
        if mark != "clean":
            fill, target = mark.split("-")
            stack = wanted if target == "wanted" else interference
            stack[index] = 0.0 if fill == "zero" else np.nan
    wanted_streams = _antenna_streams(1, wanted, 0, join_order=1)
    protecting = _antenna_streams(
        3, residual, 20, join_order=0, protected={0: InterferenceStrategy.NULL}
    )
    streams = (
        wanted_streams
        + _antenna_streams(2, interference, 10, join_order=0)
        + protecting[: case["n_residual"]]
    )
    channels = {1: wanted, 2: interference, 3: residual}
    return channels, wanted_streams, streams


class TestFullReceiverRule:
    @given(case=_full_receiver_cases())
    @settings(max_examples=200, deadline=None)
    def test_the_rule_returns_what_the_full_kernel_returns(self, case):
        channels, wanted, streams = _scene(case)
        rule_rng = np.random.default_rng(case["seed"] + 1)
        full_rng = np.random.default_rng(case["seed"] + 1)
        ruled = receiver_stream_snrs(
            _OneReceiver(channels, case["n_sub"]), 0, wanted, streams, rng=rule_rng
        )
        with mock.patch.object(link_abstraction, "_inseparable", return_value=False):
            full = receiver_stream_snrs(
                _OneReceiver(channels, case["n_sub"]), 0, wanted, streams, rng=full_rng
            )
        assert list(ruled) == list(full)
        assert [a.tobytes() for a in ruled.values()] == [a.tobytes() for a in full.values()]
        assert rule_rng.bit_generator.state == full_rng.bit_generator.state

    def test_a_full_receiver_takes_no_decomposition(self):
        case = dict(
            n_rx=2, n_wanted=2, n_interference=1, n_residual=1, n_sub=4,
            marks=["clean"] * 4, seed=5,
        )
        channels, wanted, streams = _scene(case)
        network = _OneReceiver(channels, case["n_sub"])
        with mock.patch.object(
            link_abstraction, "post_projection_snr_batch", side_effect=AssertionError
        ):
            snrs = receiver_stream_snrs(network, 0, wanted, streams)
        assert network.zero_forcing_memo == {}
        assert all((values == FLOOR_SNR_DB).all() for values in snrs.values())
        assert FLOOR_SNR_DB == float(linear_to_db(0.0))

    @pytest.mark.parametrize("mark", ["zero-interference", "nan-interference"])
    def test_a_zero_or_poisoned_projection_runs_the_full_kernel(self, mark):
        case = dict(
            n_rx=2, n_wanted=2, n_interference=1, n_residual=0, n_sub=3,
            marks=["clean", mark, "clean"], seed=9,
        )
        channels, wanted, streams = _scene(case)
        network = _OneReceiver(channels, case["n_sub"])
        with mock.patch.object(
            link_abstraction, "post_projection_snr_batch", wraps=post_projection_snr_batch
        ) as kernel:
            receiver_stream_snrs(network, 0, wanted, streams)
        assert kernel.call_count == 1

    def test_an_all_floor_measurement_selects_mcs_0_without_the_esnr(
        self, monkeypatch
    ):
        """A 3-antenna receiver wanting 3 streams while another stream is
        already on the air is full: MCS 0, and no ESNR is computed."""
        scenario, network = _network("three-pair")
        monkeypatch.setattr(
            agent_module, "choose_bitrate", mock.Mock(side_effect=AssertionError)
        )
        medium = Medium()
        medium.add_streams(
            _identity_streams(network, 0, 1, 1, first_id=medium.next_stream_id())
        )
        agent = make_agent(Dot11nMac, scenario.pairs[2], network, np.random.default_rng(0))
        agent.refill(0.0)
        streams = agent.plan_initial(0.0, medium)
        assert len(streams) == 3 and all(s.solo is None for s in streams)
        assert all(s.mcs is MCS_TABLE[0] for s in streams)


class TestCollidedWinners:
    def test_a_later_collider_projects_the_earlier_colliders_streams(self, monkeypatch):
        """Collided winners plan one after the other, each after the
        earlier winners' streams are on the medium: the later one's
        streams take the next join order, so its receiver projects the
        earlier streams out -- the case the full-receiver rule answers.
        heterogeneous-ap under csma: AP2 (2) and c1 (0) collide in the
        first round; AP1 (1) has a spare antenna for AP2's one stream."""
        forced = iter([ContentionRound((2, 0), 0, 34.0, True)])
        real_contention = runner.resolve_contention
        monkeypatch.setattr(
            runner,
            "resolve_contention",
            lambda contenders, rng: next(forced, None) or real_contention(contenders, rng),
        )
        measured = []
        real_snrs = agent_module.receiver_stream_snrs

        def spy(network, receiver_id, wanted, concurrent, rng=None):
            result = real_snrs(network, receiver_id, wanted, concurrent, rng)
            measured.append((network, receiver_id, list(wanted), list(concurrent), result))
            return result

        monkeypatch.setattr(agent_module, "receiver_stream_snrs", spy)
        scenario, network = _network("heterogeneous-ap")
        metrics = run_simulation(scenario, "csma", seed=0, config=CONFIG, network=network)
        assert metrics.link(scenario.pairs[0].name).collisions >= 1

        network, receiver_id, wanted, concurrent, result = measured[0]
        earlier = [s for s in concurrent if s.transmitter_id == 2]
        assert receiver_id == 1 and [s.transmitter_id for s in wanted] == [0]
        assert len(earlier) == 1 and earlier[0].join_order == 0
        assert wanted[0].join_order == 1

        def columns(stream):
            channel = network.true_channel(stream.transmitter_id, receiver_id)
            return np.sqrt(stream.power) * np.einsum("knm,km->kn", channel, stream.precoders)

        snr, _ = post_projection_snr_batch(
            columns(wanted[0])[:, :, None],
            columns(earlier[0])[:, :, None],
            noise_power=network.noise_power,
        )
        assert result[wanted[0].stream_id].tobytes() == linear_to_db(snr)[:, 0].tobytes()
