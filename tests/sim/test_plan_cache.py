"""Tests for the per-simulation plan cache and the static-channel memo.

The load-bearing guarantees:

* channel estimates are measured once per ``(tx, rx, direction)`` per
  simulation and reused (static-channel invariant), and reseeding the
  estimation stream re-measures;
* with estimates frozen, the planning math is pure, so a simulation with
  the plan cache is *bit-identical* to one that recomputes every plan
  under the never-hitting :class:`~oracles.runner.RecomputingPlanCache`
  (asserted on the paper topology and on dense bursty LANs, where joins
  exercise the join-plan cache);
* the cache actually hits -- repeated contention configurations become
  dictionary lookups.
"""

import numpy as np
import pytest

from oracles.runner import PerAgentLoop, RecomputingPlanCache
from repro.mac.plan import PlanCache, stream_signature
from repro.sim import runner
from repro.sim.runner import (
    SimulationConfig,
    _EventDrivenLoop,
    _ESTIMATION_STREAM_TAG,
    build_network,
    run_simulation,
)
from repro.sim.scenarios import (
    dense_lan_scenario,
    heterogeneous_ap_scenario,
    three_pair_scenario,
)

FAST = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)


def _uncached(monkeypatch, *args, **kwargs):
    """``run_simulation`` with every plan recomputed (a never-hitting cache)."""
    with monkeypatch.context() as patch:
        patch.setattr(runner, "PlanCache", RecomputingPlanCache)
        return run_simulation(*args, **kwargs)


class TestEstimatedChannelMemo:
    def test_estimate_is_measured_once(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 1, FAST)
        network.reseed_estimation_noise(7)
        first = network.estimated_channel(0, 1)
        second = network.estimated_channel(0, 1)
        assert first is second
        assert not first.flags.writeable

    def test_directions_are_estimated_separately(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 1, FAST)
        network.reseed_estimation_noise(7)
        direct = network.estimated_channel(0, 1)
        reciprocal = network.estimated_channel(0, 1, reciprocity=True)
        assert not np.array_equal(direct, reciprocal)

    def test_reseeding_remeasures(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 1, FAST)
        network.reseed_estimation_noise(7)
        first = network.estimated_channel(0, 1)
        network.reseed_estimation_noise(8)
        second = network.estimated_channel(0, 1)
        assert not np.array_equal(first, second)
        # Same seed -> same measurement, regardless of what ran between.
        network.reseed_estimation_noise(7)
        assert np.array_equal(network.estimated_channel(0, 1), first)


class TestPlanCacheEquivalence:
    """Cache on == cache off, bit for bit (planning is pure)."""

    @pytest.mark.parametrize("protocol", ["802.11n", "n+", "beamforming"])
    def test_three_pair_all_protocols(self, protocol, monkeypatch):
        on = run_simulation(three_pair_scenario(), protocol, seed=11, config=FAST)
        off = _uncached(
            monkeypatch, three_pair_scenario(), protocol, seed=11, config=FAST
        )
        assert on.to_dict() == off.to_dict()

    def test_heterogeneous_multi_receiver(self, monkeypatch):
        on = run_simulation(heterogeneous_ap_scenario(), "n+", seed=4, config=FAST)
        off = _uncached(
            monkeypatch, heterogeneous_ap_scenario(), "n+", seed=4, config=FAST
        )
        assert on.to_dict() == off.to_dict()

    def test_dense_lan_30_bursty(self, monkeypatch):
        """The ISSUE's acceptance workload: joins, collisions and idle
        gaps all hit the cache on a dense bursty LAN."""
        scenario = dense_lan_scenario(
            n_pairs=15, seed=30, packet_rate_pps=300.0, name="dense-lan-30-bursty"
        )
        config = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)
        on = run_simulation(scenario, "n+", seed=2, config=config)
        off = _uncached(monkeypatch, scenario, "n+", seed=2, config=config)
        assert on.to_dict() == off.to_dict()

    @pytest.mark.parametrize("loop", ["batched", "per-agent"])
    def test_cache_is_pipeline_independent(self, loop, monkeypatch):
        if loop == "per-agent":
            monkeypatch.setattr(runner, "_EventDrivenLoop", PerAgentLoop)
        on = run_simulation(three_pair_scenario(), "n+", seed=5, config=FAST)
        off = _uncached(monkeypatch, three_pair_scenario(), "n+", seed=5, config=FAST)
        assert on.to_dict() == off.to_dict()


class TestPlanCacheHits:
    def _run_with_cache(self, scenario, seed, config):
        network = build_network(scenario, seed, config)
        network.reseed_estimation_noise((seed, _ESTIMATION_STREAM_TAG))
        loop = _EventDrivenLoop(
            scenario, "n+", np.random.default_rng(seed), config, network, seed=seed
        )
        metrics = loop.run()
        return loop.plan_cache, metrics

    def test_saturated_topology_mostly_hits(self):
        """On the saturated paper topology the same few contention
        configurations repeat round after round."""
        cache, _ = self._run_with_cache(three_pair_scenario(), 1, FAST)
        assert cache.misses > 0
        assert cache.hits > cache.misses

    def test_recomputing_cache_never_hits(self, monkeypatch):
        """The uncached side of the equivalence tests really recomputes."""
        monkeypatch.setattr(runner, "PlanCache", RecomputingPlanCache)
        cache, _ = self._run_with_cache(three_pair_scenario(), 1, FAST)
        assert isinstance(cache, RecomputingPlanCache)
        assert cache.hits == 0 and cache.misses > 0

    def test_join_plans_are_cached(self):
        cache, metrics = self._run_with_cache(three_pair_scenario(), 1, FAST)
        join_keys = [key for key in cache._store if key[0] == "join-plan"]
        assert sum(link.joins for link in metrics.links.values()) > 0
        assert join_keys

    def test_counters_start_at_zero(self):
        cache = PlanCache()
        assert cache.hits == 0 and cache.misses == 0 and not cache._store
        value = cache.get(("k",), lambda: 41)
        assert value == 41 and cache.misses == 1
        assert cache.get(("k",), lambda: 0) == 41
        assert cache.hits == 1


class TestStreamSignature:
    def test_signature_ignores_ids_and_payloads(self):
        from repro.phy.rates import MCS_TABLE
        from repro.sim.medium import ScheduledStream

        def stream(stream_id, payload, start):
            return ScheduledStream(
                stream_id=stream_id,
                transmitter_id=2,
                receiver_id=3,
                precoders=np.zeros((4, 2), dtype=complex),
                power=0.5,
                mcs=MCS_TABLE[0],
                payload_bits=payload,
                start_us=start,
                end_us=start + 100.0,
                join_order=1,
            )

        a = stream_signature([stream(7, 1000, 0.0), stream(8, 1000, 0.0)])
        b = stream_signature([stream(99, 2400, 50.0), stream(12, 0, 50.0)])
        assert a == b
        assert a == ((2, 3, 1, 0), (2, 3, 1, 1))

    def test_signature_distinguishes_structure(self):
        from repro.phy.rates import MCS_TABLE
        from repro.sim.medium import ScheduledStream

        def stream(tx, rx, order):
            return ScheduledStream(
                stream_id=0,
                transmitter_id=tx,
                receiver_id=rx,
                precoders=np.zeros((4, 2), dtype=complex),
                power=1.0,
                mcs=MCS_TABLE[0],
                payload_bits=0,
                start_us=0.0,
                end_us=1.0,
                join_order=order,
            )

        base = stream_signature([stream(0, 1, 0)])
        assert base != stream_signature([stream(0, 1, 1)])
        assert base != stream_signature([stream(0, 2, 0)])
        assert base != stream_signature([stream(4, 1, 0)])
        assert base != stream_signature([stream(0, 1, 0), stream(0, 1, 0)])
