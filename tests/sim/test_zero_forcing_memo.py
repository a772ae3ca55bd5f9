"""The zero-forcing memo a network owns cannot be seen in any result.

:func:`repro.mimo.decoder.post_projection_snr_batch` stores the SVD work
of a configuration (the projection and the zero-forcing noise
enhancement) under the exact bytes of its channel stacks; the noise
terms are applied on every call.  These tests pin that a hit equals a
fresh computation bit for bit, that a changed channel misses, that a
degraded computation is never stored, and that whole runs are unchanged
when the memo never hits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mimo.decoder import post_projection_snr_batch
from repro.phy.rates import MCS_TABLE
from repro.sim.link_abstraction import receiver_stream_snrs
from repro.sim.medium import Medium, ScheduledStream
from repro.sim.network import Network
from repro.sim.runner import SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import scenario_factory, three_pair_scenario
from repro.utils import guarded

N_SUB = 8


def _stack(rng, rows, cols):
    return rng.standard_normal((N_SUB, rows, cols)) + 1j * rng.standard_normal(
        (N_SUB, rows, cols)
    )


class TestMemoHit:
    @pytest.mark.parametrize(
        "changed",
        [
            {"residual_interference_power": np.linspace(0.0, 2.0, N_SUB)},
            {"noise_power": 0.37},
            {"signal_power": 5.0},
        ],
    )
    def test_hit_with_other_noise_terms_equals_a_fresh_computation(self, rng, changed):
        wanted = _stack(rng, 3, 2)
        interference = _stack(rng, 3, 1)
        memo = {}
        post_projection_snr_batch(wanted, interference, 0.1, memo=memo)
        assert len(memo) == 1
        kwargs = {"noise_power": 0.1, **changed}
        hit = post_projection_snr_batch(wanted, interference, memo=memo, **kwargs)
        assert len(memo) == 1
        assert np.array_equal(hit, post_projection_snr_batch(wanted, interference, **kwargs))

    def test_key_is_the_content_not_the_array(self, rng):
        wanted = _stack(rng, 2, 1)
        memo = {}
        post_projection_snr_batch(wanted, None, 0.1, memo=memo)
        post_projection_snr_batch(wanted.copy(), None, 0.1, memo=memo)
        assert len(memo) == 1
        post_projection_snr_batch(wanted.reshape(N_SUB, 1, 2), None, 0.1, memo=memo)
        assert len(memo) == 2

    def test_nan_poisoned_input_is_noted_on_every_call(self, rng):
        wanted = _stack(rng, 2, 1)
        wanted[3, 0, 0] = np.nan
        memo = {}
        results = []
        for _ in range(2):
            with guarded.capture_degradations() as capture:
                results.append(post_projection_snr_batch(wanted, None, 0.1, memo=memo))
            assert capture.events == ["nonfinite-input"]
        assert len(memo) == 1
        assert np.array_equal(results[0], results[1])
        assert results[0][3, 0] == 0.0


class TestMemoMiss:
    @pytest.mark.parametrize("changed", ["wanted", "interference"])
    def test_either_stack_changing_misses(self, rng, changed):
        stacks = {"wanted": _stack(rng, 3, 1), "interference": _stack(rng, 3, 1)}
        memo = {}
        post_projection_snr_batch(stacks["wanted"], stacks["interference"], 0.1, memo=memo)
        stacks[changed] = _stack(rng, 3, 1)
        result = post_projection_snr_batch(
            stacks["wanted"], stacks["interference"], 0.1, memo=memo
        )
        assert len(memo) == 2
        fresh = post_projection_snr_batch(stacks["wanted"], stacks["interference"], 0.1)
        assert np.array_equal(result, fresh)

    def test_fade_on_an_involved_link_misses(self):
        scenario = three_pair_scenario()
        network = Network(
            scenario.stations, scenario.pairs, np.random.default_rng(5), n_subcarriers=N_SUB
        )
        medium = Medium()
        rng = np.random.default_rng(9)

        def stream(tx, rx, order):
            precoders = _stack(rng, network.station(tx).n_antennas, 1)[:, :, 0]
            precoders /= np.linalg.norm(precoders, axis=1, keepdims=True)
            return ScheduledStream(
                stream_id=medium.next_stream_id(),
                transmitter_id=tx,
                receiver_id=rx,
                precoders=precoders,
                power=1.0,
                mcs=MCS_TABLE[0],
                payload_bits=12000,
                start_us=0.0,
                end_us=1000.0,
                join_order=order,
            )

        wanted = [stream(2, 3, 1)]
        streams = wanted + [stream(0, 1, 0)]
        before = receiver_stream_snrs(network, 3, wanted, streams)
        receiver_stream_snrs(network, 3, wanted, streams)
        assert len(network.zero_forcing_memo) == 1

        network.fade_link(2, 3, 20.0)  # the wanted link
        faded = receiver_stream_snrs(network, 3, wanted, streams)
        assert len(network.zero_forcing_memo) == 2
        network.zero_forcing_memo.clear()
        fresh = receiver_stream_snrs(network, 3, wanted, streams)
        for stream_id, snrs in faded.items():
            assert np.array_equal(snrs, fresh[stream_id])
            assert not np.array_equal(snrs, before[stream_id])


def test_degraded_computation_is_recomputed_and_noted_again(rng, monkeypatch):
    """Every batched SVD fails to converge once, so every computation
    takes the guarded fallback and notes it; none may be stored."""
    svd = np.linalg.svd
    armed = [True]

    def non_convergent_once(a, *args, **kwargs):
        if np.ndim(a) == 3:
            armed[0] = not armed[0]
            if not armed[0]:
                raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    wanted = _stack(rng, 3, 2)
    expected = post_projection_snr_batch(wanted, None, 0.1)
    monkeypatch.setattr(np.linalg, "svd", non_convergent_once)
    memo = {}
    for _ in range(2):
        with guarded.capture_degradations() as capture:
            result = post_projection_snr_batch(wanted, None, 0.1, memo=memo)
        assert capture.events == ["svd-non-convergent"]
        assert memo == {}
        assert np.array_equal(result, expected)


class _NeverHits(dict):
    """A memo that stores but never returns an entry."""

    def get(self, key, default=None):
        return default


class _CountingMemo(dict):
    """A memo that counts its hits."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not default
        return value


@pytest.mark.parametrize("seed", [0, 1])
def test_runs_are_identical_when_the_memo_never_hits(seed):
    """One network per seed, shared by the three protocols as in a sweep,
    through the faulty scenario's fade episodes."""
    scenario = scenario_factory("dense-lan-50-faulty")()
    config = SimulationConfig(duration_us=40_000.0)
    protocols = ["802.11n", "n+", "n+[recovery=erasure]"]

    def run_all(memo):
        network = build_network(scenario, seed, config)
        network.zero_forcing_memo = memo
        metrics = [
            run_simulation(scenario, p, seed=seed, config=config, network=network).to_dict()
            for p in protocols
        ]
        return metrics, network.link_epochs

    counting = _CountingMemo()
    memoized, epochs = run_all(counting)
    never, _ = run_all(_NeverHits())
    assert counting.hits > 0
    assert epochs  # channels changed while the memo was in use
    assert memoized == never
