"""A network computes a link's channel response the first time it is read.

The load-bearing guarantees:

* lazy equals eager: every pair's response, whenever and in whatever
  order it is first read, is bit-identical to the eager computation --
  the readable per-pair loop (:class:`oracles.network.PerPairNetwork`)
  for the v2 contract, one whole-group at-bins DFT
  (:func:`oracles.network.grouped_eager_responses`) for the grouped one;
* the fault kernels compute an unread link before touching it, so a
  fade before the first read equals a fade after it, a snapshot/restore
  of a never-read link is bit-exact, and a wrong-shape update raises;
* ``Network.true_channels`` serves what one ``true_channel`` per link
  would, computing the unread links in one batch per antenna-shape group;
* a fresh network holds no computed response, and a run computes exactly
  the distinct links it reads.
"""

import numpy as np
import pytest

from helpers import bank_computed_pairs, bank_pairs, custom_pairs_scenario
from oracles.network import PerPairNetwork, grouped_eager_responses
from repro.exceptions import ConfigurationError, DimensionError
from repro.sim.network import DRAW_CONTRACTS, Network
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import three_pair_scenario

#: Pair antenna counts (station ids 0..9) covering all nine (n_tx, n_rx)
#: shapes.
ANTENNAS = (1, 2, 3, 2, 1)


def _scenario():
    return custom_pairs_scenario(list(ANTENNAS))


def _forced(kind, scenario):
    ids = sorted(station.node_id for station in scenario.stations)
    first, last = (ids[0], ids[1]), (ids[-2], ids[-1])
    return {
        "none": None,
        "first": {first: 12.0},
        "last": {last: 31.5},
        "mirrored": {(last[1], last[0]): 4.25, (ids[2], ids[0]): 18.0},
    }[kind]


def _build(mode, seed=5, n_subcarriers=8, forced=None, cls=Network):
    scenario = _scenario()
    return cls(
        scenario.stations,
        scenario.pairs,
        np.random.default_rng(seed),
        n_subcarriers=n_subcarriers,
        forced_link_snrs_db=forced,
        channel_draws=mode,
    )


def _eager(mode, seed, n_subcarriers, forced, network):
    if mode == "grouped":
        return grouped_eager_responses(network)
    oracle = _build("batched", seed, n_subcarriers, forced, cls=PerPairNetwork)
    return oracle.eager_responses


class TestLazyEqualsEager:
    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    @pytest.mark.parametrize("forced_kind", ["none", "first", "last", "mirrored"])
    @pytest.mark.parametrize("n_subcarriers", [1, 8, 48])
    def test_every_pair_equals_the_eager_oracle(self, mode, forced_kind, n_subcarriers):
        forced = _forced(forced_kind, _scenario())
        network = _build(mode, 5, n_subcarriers, forced)
        bank = network.channels
        assert bank_computed_pairs(bank) == []
        eager = _eager(mode, 5, n_subcarriers, forced, network)
        pairs = bank_pairs(bank)
        assert set(eager) == set(pairs)
        assert len({normals.shape[3:] for normals in bank._normals}) == 9
        # Read half the pairs through the reverse direction first, in
        # reverse slot order: the first read's direction and order are
        # irrelevant.
        for index, (a, b) in enumerate(reversed(pairs)):
            first = network.true_channel(b, a) if index % 2 else network.true_channel(a, b)
            assert not first.flags.writeable
        for a, b in pairs:
            assert np.array_equal(bank.channel(a, b), eager[(a, b)]), (a, b)
            assert np.array_equal(bank.channel(b, a), eager[(a, b)].transpose(0, 2, 1))
        assert sorted(bank_computed_pairs(bank)) == sorted(pairs)

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_a_batch_equals_one_slot_at_a_time(self, mode):
        """Computing several slots of a group in one batch gives the bits
        of computing each alone."""
        batched, single = _build(mode), _build(mode)
        for group, pairs in enumerate(batched.channels._pair_groups):
            slots = list(range(len(pairs)))[::-1]
            together = batched.channels._computed(group, slots)
            for slot, response in zip(slots, together):
                a, b = pairs[slot].tolist()
                assert np.array_equal(response, single.channels.channel(a, b))


class TestTrueChannels:
    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_equals_one_true_channel_per_link(self, mode):
        batched, single = _build(mode), _build(mode)
        for rx in range(10):
            senders = [tx for tx in (9, 0, 4, 7, 2, 5) if tx != rx]
            for tx, channel in zip(senders, batched.true_channels(senders, rx)):
                assert np.array_equal(channel, single.true_channel(tx, rx))
                assert not channel.flags.writeable
        with pytest.raises(ConfigurationError):
            batched.true_channels([1, 3], 3)

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_one_transform_per_group_of_unread_links(self, mode):
        network = _build(mode)
        bank = network.channels
        calls = []
        transform = bank._transform

        def counting(taps):
            calls.append(taps.shape[0])
            return transform(taps)

        bank._transform = counting
        senders = [0, 1, 2, 3, 4, 5, 6, 7, 8]
        groups = {bank.lookup(tx, 9)[0] for tx in senders}
        network.true_channels(senders, 9)
        assert len(calls) == len(groups) and sum(calls) == len(senders)
        network.true_channels(senders, 9)
        assert len(calls) == len(groups)


class TestFaultsOnUnreadLinks:
    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_fade_before_first_read_equals_read_then_fade(self, mode):
        unread, read = _build(mode), _build(mode)
        link = (5, 2)  # served as the transposed view of the (2, 5) slot
        read.true_channel(*link)
        for network in (unread, read):
            network.fade_link(*link, 17.5)
        assert bank_computed_pairs(unread.channels) == [(2, 5)]
        for tx, rx in (link, link[::-1]):
            faded = unread.true_channel(tx, rx)
            assert np.array_equal(faded, read.true_channel(tx, rx))
            assert unread.link_snr_db(tx, rx) == read.link_snr_db(tx, rx)
            assert not faded.flags.writeable

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_snapshot_restore_of_a_never_read_link_is_bit_exact(self, mode):
        network, pristine = _build(mode), _build(mode)
        snapshot = network.snapshot_link(0, 7)
        network.fade_link(0, 7, 30.0)
        network.restore_link(0, 7, *snapshot)
        for tx, rx in ((0, 7), (7, 0)):
            restored = network.true_channel(tx, rx)
            assert np.array_equal(restored, pristine.true_channel(tx, rx))
            assert network.link_snr_db(tx, rx) == pristine.link_snr_db(tx, rx)
            assert not restored.flags.writeable
        assert bank_computed_pairs(network.channels) == [(0, 7)]

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_wrong_shape_update_of_an_unread_link_raises(self, mode):
        network, pristine = _build(mode), _build(mode)
        snr = network.link_snr_db(1, 6)
        with pytest.raises(DimensionError):
            network.channels.update_links([(1, 6, np.zeros((8, 9, 9), dtype=complex), 0.0)])
        assert np.array_equal(network.true_channel(1, 6), pristine.true_channel(1, 6))
        assert network.link_snr_db(1, 6) == snr

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_kernels_leave_every_channel_read_only(self, mode):
        network = _build(mode)
        bank = network.channels
        links = [(0, 3), (6, 1), (4, 5)]
        bank.scale_links(links, 0.5, snr_delta_db=-6.0)
        snapshots = bank.snapshot_links(links)
        bank.update_links(
            [(tx, rx, response, snr) for (tx, rx), (response, snr) in zip(links, snapshots)]
        )
        for tx, rx in links:
            for channel in (bank.channel(tx, rx), bank.channel(rx, tx)):
                assert not channel.flags.writeable
                with pytest.raises(ValueError):
                    channel[0, 0, 0] = 0.0


class TestComputedOnRead:
    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_a_fresh_network_holds_no_response(self, mode):
        network = _build(mode)
        assert bank_computed_pairs(network.channels) == []
        assert all(not responses for responses in network.channels._responses)
        # SNR reads never compute a response.
        for a, b in bank_pairs(network.channels):
            network.link_snr_db(a, b)
        assert bank_computed_pairs(network.channels) == []

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_a_run_computes_exactly_the_links_it_reads(self, mode):
        scenario = three_pair_scenario()
        network = Network(
            scenario.stations,
            scenario.pairs,
            np.random.default_rng(2),
            n_subcarriers=8,
            channel_draws=mode,
        )
        bank = network.channels
        read = set()
        channel, channels = bank.channel, bank.channels

        def recording(tx_id, rx_id):
            read.add((min(tx_id, rx_id), max(tx_id, rx_id)))
            return channel(tx_id, rx_id)

        def recording_many(links):
            read.update((min(link), max(link)) for link in links)
            return channels(links)

        bank.channel, bank.channels = recording, recording_many
        config = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)
        run_simulation(scenario, "n+", seed=4, config=config, network=network)
        assert read
        assert len(read) < len(bank_pairs(bank))
        assert sorted(bank_computed_pairs(bank)) == sorted(read)
