"""Tests for the ChannelBank storage and the batched estimate prefetch.

The load-bearing guarantees:

* reciprocal channel directions are read-only *transposed views* of the
  forward direction's memory (no copies) -- and mutating any returned
  channel raises, which is what guards the shared-view invariant;
* the ``(tx, rx) -> (group, slot, transposed)`` index is consistent with
  the per-group kept draws and computed responses, on every draw
  contract and on the per-pair oracle's bank;
* ``HardwareProfile.perturb_channel_batch`` is bit-identical to the
  equivalent sequence of one-channel estimates (the test oracle
  ``perturb_channel_reference``), on contiguous channels and on the
  transposed views the bank serves;
* ``Network.prefetch_estimates`` fills the estimate memo in stacked
  draws under the grouped contract and is a strict no-op under the v2
  contract (its lazy draw order is part of v2 reproducibility).
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from helpers import bank_nbytes, bank_pairs, custom_pairs_scenario
from oracles.channel import perturb_channel_reference
from oracles.network import PerPairNetwork
from repro.channel.hardware import HardwareProfile
from repro.channel.multipath import frequency_response_batch
from repro.exceptions import DimensionError
from repro.sim.network import DRAW_CONTRACTS, ChannelBank, Network, _subcarrier_bins
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import three_pair_scenario

# "per-pair" is the readable oracle of the "batched" contract
# (:class:`oracles.network.PerPairNetwork`), not a production contract.
ALL_CONTRACTS = DRAW_CONTRACTS + ("per-pair",)


def _network(mode, seed=3, antenna_counts=(1, 2, 3, 2)):
    scenario = custom_pairs_scenario(list(antenna_counts))
    cls, mode = (PerPairNetwork, "batched") if mode == "per-pair" else (Network, mode)
    return cls(
        scenario.stations,
        scenario.pairs,
        np.random.default_rng(seed),
        n_subcarriers=8,
        channel_draws=mode,
    )


class TestSharedViewInvariant:
    @pytest.mark.parametrize("mode", ALL_CONTRACTS)
    def test_reciprocal_is_a_transposed_view_not_a_copy(self, mode):
        network = _network(mode)
        forward = network.true_channel(0, 3)
        reverse = network.true_channel(3, 0)
        assert np.array_equal(reverse, forward.transpose(0, 2, 1))
        assert np.shares_memory(forward, reverse)

    @pytest.mark.parametrize("mode", ALL_CONTRACTS)
    def test_mutating_a_returned_channel_raises(self, mode):
        """The regression test of the shared-view invariant: a consumer
        writing into a channel would silently corrupt the reciprocal
        direction (same memory), so the bank refuses the write."""
        network = _network(mode)
        forward = network.true_channel(0, 3)
        reverse = network.true_channel(3, 0)
        for channel in (forward, reverse):
            assert not channel.flags.writeable
            with pytest.raises(ValueError):
                channel[0, 0, 0] = 1.0 + 0.0j

    def test_estimated_channels_are_read_only_too(self):
        network = _network("grouped")
        network.reseed_estimation_noise(1)
        estimate = network.estimated_channel(0, 1)
        with pytest.raises(ValueError):
            estimate[0, 0, 0] = 0.0


def _bank():
    """An empty bank with the v2 transform at 6 tracked bins."""
    return ChannelBank(partial(frequency_response_batch, bins=_subcarrier_bins(6)))


class TestChannelBankIndex:
    @pytest.mark.parametrize("mode", ALL_CONTRACTS)
    def test_lookup_is_consistent_with_the_stacks(self, mode):
        network = _network(mode)
        bank = network.channels
        for a, b in bank_pairs(bank):
            group, slot, transposed = bank.lookup(a, b)
            assert not transposed
            assert tuple(bank._pair_groups[group][slot]) == (a, b)
            group_r, slot_r, transposed_r = bank.lookup(b, a)
            assert (group_r, slot_r, transposed_r) == (group, slot, True)
            channel = bank.channel(a, b)
            assert channel is bank._responses[group][slot]
            assert channel.shape[1:] == bank._normals[group].shape[3:]
            assert bank.snr_db(a, b) == bank.snr_db(b, a)

    def test_one_group_per_antenna_shape(self):
        network = _network("grouped", antenna_counts=(1, 2, 3, 2, 1))
        bank = network.channels
        shapes = set()
        for a, b in bank_pairs(bank):
            shape = bank.channel(a, b).shape[1:]  # (N, M)
            shapes.add((shape[1], shape[0]))  # stored keyed by (n_tx, n_rx)
        assert len(bank._normals) == len(shapes)
        assert len(bank_pairs(bank)) == 10 * 9 // 2

    def test_unknown_link_raises_keyerror(self):
        network = _network("grouped")
        with pytest.raises(KeyError):
            network.channels.lookup(0, 999)

    def test_add_group_validates_shapes(self):
        bank = _bank()
        normals = np.zeros((1, 4, 2, 1, 1))
        with pytest.raises(DimensionError):
            bank.add_group([(0, 1)], np.zeros((2, 4, 2, 1, 1)), np.ones((2, 4)), [5.0])
        with pytest.raises(DimensionError):
            bank.add_group([(0, 1)], np.zeros((1, 4, 1, 1)), np.ones((1, 4)), [5.0])
        with pytest.raises(DimensionError):
            bank.add_group([(0, 1)], normals, np.ones((1, 3)), [5.0])
        with pytest.raises(DimensionError):
            bank.add_group([(0, 1)], normals, np.ones((1, 4)), [5.0, 6.0])
        assert not bank._normals

    def test_add_group_takes_tuples_or_an_id_array(self):
        """Both spellings of ``pairs`` build the same bank, reciprocal
        (transposed) lookups included; the bank never freezes the
        caller's array."""
        rng = np.random.default_rng(7)
        groups = [
            ([(0, 3), (1, 4), (2, 9)], (3, 4, 2, 2, 1)),
            ([(0, 1), (3, 5)], (2, 4, 2, 3, 2)),
        ]
        by_tuples, by_array = _bank(), _bank()
        for pairs, shape in groups:
            normals = rng.standard_normal(shape)
            scales = rng.uniform(0.1, 1.0, shape[:2])
            snrs = rng.uniform(5.0, 30.0, len(pairs))
            by_tuples.add_group(pairs, normals.copy(), scales.copy(), snrs.copy())
            ids = np.array(pairs, dtype=np.int64)
            by_array.add_group(ids, normals.copy(), scales.copy(), snrs.copy())
            assert ids.flags.writeable
        assert bank_pairs(by_array) == bank_pairs(by_tuples)
        for a, b in bank_pairs(by_tuples):
            for tx, rx in ((a, b), (b, a)):
                assert by_array.lookup(tx, rx) == by_tuples.lookup(tx, rx)
                assert np.array_equal(
                    by_array.channel(tx, rx), by_tuples.channel(tx, rx)
                )
                assert by_array.snr_db(tx, rx) == by_tuples.snr_db(tx, rx)
            assert by_array.lookup(b, a)[2]

    def test_nbytes_counts_each_pair_once(self):
        """The bank holds each unordered pair's draws once, and a read
        pair's response once -- reading both directions computes one
        slot, the reciprocal being a view of it."""
        network = _network("grouped", antenna_counts=(2, 2))
        bank = network.channels
        n_pairs = len(bank_pairs(bank))
        # Tap normals (n_taps * 2 parts * N * M floats), tap scales
        # (n_taps floats) and the SNR (one float) of every pair.
        n_taps = network.testbed.n_taps
        kept = n_pairs * (n_taps * 2 * 2 * 2 * 8 + n_taps * 8 + 8)
        assert bank_nbytes(bank) == kept
        per_response = 8 * 2 * 2 * 16  # n_sub * N * M * complex128
        pairs = bank_pairs(bank)
        for a, b in pairs[:3]:
            network.true_channel(a, b)
            network.true_channel(b, a)
        assert bank_nbytes(bank) == kept + 3 * per_response
        for a, b in pairs:
            network.true_channel(b, a)
        assert bank_nbytes(bank) == kept + n_pairs * per_response


class TestPerturbChannelBatch:
    @pytest.mark.parametrize("reciprocity", [False, True])
    def test_bit_identical_to_sequential_perturbs(self, reciprocity):
        hardware = HardwareProfile()
        rng = np.random.default_rng(11)
        channels = rng.standard_normal((5, 8, 2, 3)) + 1j * rng.standard_normal((5, 8, 2, 3))
        rng_batch = np.random.default_rng(99)
        rng_seq = np.random.default_rng(99)
        batch = hardware.perturb_channel_batch(channels, rng_batch, reciprocity=reciprocity)
        for index in range(channels.shape[0]):
            expected = perturb_channel_reference(
                hardware, channels[index], rng_seq, reciprocity=reciprocity
            )
            assert np.array_equal(batch[index], expected)
        assert rng_batch.bit_generator.state == rng_seq.bit_generator.state

    @pytest.mark.parametrize("reciprocity", [False, True])
    def test_one_channel_stack_matches_the_oracle(self, reciprocity):
        """``Network.estimated_channel`` measures one channel as a stack
        of one -- including the read-only transposed views the bank
        serves for reverse directions."""
        hardware = HardwareProfile()
        network = _network("batched")
        for tx, rx in ((0, 1), (1, 0), (0, 3), (3, 0)):
            channel = network.true_channel(tx, rx)
            for seed in range(5):
                rng_batch = np.random.default_rng(seed)
                rng_one = np.random.default_rng(seed)
                batch = hardware.perturb_channel_batch(channel[None], rng_batch, reciprocity)
                expected = perturb_channel_reference(hardware, channel, rng_one, reciprocity)
                assert batch[0].tobytes() == expected.tobytes()
                assert rng_batch.bit_generator.state == rng_one.bit_generator.state

    def test_rejects_unstacked_input(self):
        with pytest.raises(ValueError):
            HardwareProfile().perturb_channel_batch(
                np.zeros(4, dtype=complex), np.random.default_rng(0)
            )


class TestPrefetchEstimates:
    def test_noop_under_v2_contracts(self):
        network = _network("batched")
        network.reseed_estimation_noise(5)
        state_before = network._estimation_rng.bit_generator.state
        network.prefetch_estimates([(0, 1, False), (0, 3, True)])
        assert network._estimate_memo == {}
        assert network._estimation_rng.bit_generator.state == state_before

    def test_fills_the_memo_under_grouped(self):
        network = _network("grouped")
        network.reseed_estimation_noise(5)
        network.prefetch_estimates([(0, 1, False), (0, 3, True), (0, 1, False)])
        assert set(network._estimate_memo) == {(0, 1, False), (0, 3, True)}
        # Later per-link queries hit the memo (same object, no new draws).
        prefetched = network._estimate_memo[(0, 1, False)]
        state = network._estimation_rng.bit_generator.state
        assert network.estimated_channel(0, 1) is prefetched
        assert network._estimation_rng.bit_generator.state == state

    def test_prefetched_estimates_are_perturbed_channels(self):
        """A prefetched estimate is close to (but not exactly) the true
        channel, like any lazy estimate."""
        network = _network("grouped")
        network.reseed_estimation_noise(5)
        network.prefetch_estimates([(0, 1, False)])
        estimate = network.estimated_channel(0, 1)
        true = network.true_channel(0, 1)
        error = np.linalg.norm(estimate - true) / np.linalg.norm(true)
        assert 0.0 < error < 0.1

    def test_grouped_simulation_is_deterministic(self):
        """The prefetch path is part of the seeded v3 contract: repeated
        runs produce bit-identical metrics."""
        config = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)
        scenario = dataclasses.replace(three_pair_scenario(), channel_draws="grouped")
        first = run_simulation(scenario, "n+", seed=13, config=config)
        second = run_simulation(scenario, "n+", seed=13, config=config)
        assert first.to_dict() == second.to_dict()
