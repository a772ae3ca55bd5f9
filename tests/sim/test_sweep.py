"""Tests for the parallel sweep orchestrator and its results cache.

The load-bearing guarantees:

* a parallel sweep is byte-identical to a serial one (and to the
  serial ``oracles.runner.run_many`` loop) for a fixed seed;
* the on-disk cache replays unchanged cells and invalidates on any
  config change;
* the event-driven runner matches the condensed-loop oracle bit for
  bit, for saturated and bursty traffic.
"""

import numpy as np
import pytest

from helpers import cell_count
from oracles.runner import run_many, run_simulation_condensed_reference
from repro.exceptions import ConfigurationError
from repro.mac.variants import resolve_protocol
from repro.sim.metrics import LinkMetrics, NetworkMetrics
from repro.sim.runner import RunSpec, SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import dense_lan_scenario, three_pair_scenario
from repro.sim.spec import mac_seed
from repro.sim.store import ResultsStore
from repro.sim.sweep import Cell, config_digest, run_sweep, scenario_digest

FAST = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)
FAST_SPEC = RunSpec.resolve(three_pair_scenario(), FAST)


def _spec(config, scenario=three_pair_scenario):
    return RunSpec.resolve(scenario(), config)


def _key(scenario_key, run_seed, run_spec):
    """The cache key of an n+ cell."""
    return Cell(scenario_key, None, resolve_protocol("n+"), 0, run_seed, run_spec).key


def _as_dicts(results):
    return {p: [m.to_dict() for m in runs] for p, runs in results.items()}


class TestRunnerEquivalence:
    """The event-driven loop vs the condensed-loop oracle."""

    @pytest.mark.parametrize("protocol", ["802.11n", "n+", "beamforming"])
    def test_saturated_traffic_is_bit_identical(self, protocol):
        fast = run_simulation(three_pair_scenario(), protocol, seed=11, config=FAST)
        reference = run_simulation_condensed_reference(
            three_pair_scenario(), protocol, seed=11, config=FAST
        )
        assert fast.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("rate_pps", [60.0, 250.0])
    def test_bursty_traffic_is_bit_identical(self, rate_pps):
        config = SimulationConfig(
            duration_us=25_000.0, n_subcarriers=8, packet_rate_pps=rate_pps
        )
        fast = run_simulation(three_pair_scenario(), "n+", seed=5, config=config)
        reference = run_simulation_condensed_reference(
            three_pair_scenario(), "n+", seed=5, config=config
        )
        assert fast.to_dict() == reference.to_dict()

    def test_idle_jumping_skips_empty_airtime(self):
        """A very light load ends with the same elapsed window."""
        config = SimulationConfig(
            duration_us=30_000.0, n_subcarriers=8, packet_rate_pps=20.0
        )
        fast = run_simulation(three_pair_scenario(), "802.11n", seed=9, config=config)
        reference = run_simulation_condensed_reference(
            three_pair_scenario(), "802.11n", seed=9, config=config
        )
        assert fast.elapsed_us == reference.elapsed_us


class TestSweepDeterminism:
    def test_serial_sweep_matches_run_many(self):
        protocols = ["802.11n", "n+"]
        serial = run_many(three_pair_scenario, protocols, n_runs=3, seed=4, config=FAST)
        sweep = run_sweep("three-pair", protocols, n_runs=3, seed=4, config=FAST, workers=1)
        assert _as_dicts(serial) == _as_dicts(sweep.results)

    def test_parallel_sweep_matches_serial(self):
        protocols = ["802.11n", "n+"]
        serial = run_sweep("three-pair", protocols, n_runs=3, seed=4, config=FAST, workers=1)
        parallel = run_sweep("three-pair", protocols, n_runs=3, seed=4, config=FAST, workers=3)
        assert _as_dicts(serial.results) == _as_dicts(parallel.results)

    def test_cell_is_self_contained(self):
        """A cell recomputed standalone equals the run_many cell."""
        serial = run_many(three_pair_scenario, ["n+"], n_runs=2, seed=7, config=FAST)
        scenario = three_pair_scenario()
        run_seed = 7 + 1000
        cell = run_simulation(
            scenario,
            "n+",
            seed=mac_seed(run_seed),
            config=FAST,
            network=build_network(scenario, run_seed, FAST),
        )
        assert cell.to_dict() == serial["n+"][1].to_dict()

    def test_protocol_results_do_not_depend_on_order(self):
        """Estimation noise has its own stream, so simulating 802.11n
        first (or not at all) leaves the n+ results unchanged."""
        both = run_many(three_pair_scenario, ["802.11n", "n+"], n_runs=2, seed=3, config=FAST)
        only = run_many(three_pair_scenario, ["n+"], n_runs=2, seed=3, config=FAST)
        assert _as_dicts({"n+": both["n+"]}) == _as_dicts(only)

    def test_dense_scenario_sweeps(self):
        config = SimulationConfig(duration_us=3_000.0, n_subcarriers=8)
        sweep = run_sweep("dense-lan-20", ["n+"], n_runs=2, seed=0, config=config, workers=2)
        assert len(sweep.results["n+"]) == 2
        for metrics in sweep.results["n+"]:
            assert len(metrics.links) == 10
            assert metrics.total_throughput_mbps() > 0.0


class TestSweepCache:
    def test_repeat_invocation_hits_cache(self, tmp_path):
        first = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        second = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert first.cache_hits == 0 and first.cache_misses == 2
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert _as_dicts(first.results) == _as_dicts(second.results)

    def test_cache_invalidates_on_config_change(self, tmp_path):
        run_sweep("three-pair", ["n+"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path)
        changed = SimulationConfig(
            duration_us=FAST.duration_us, n_subcarriers=FAST.n_subcarriers + 1
        )
        rerun = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=changed, cache_dir=tmp_path
        )
        assert rerun.cache_hits == 0 and rerun.cache_misses == 2

    def test_cache_is_per_protocol_and_seed(self, tmp_path):
        run_sweep("three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path)
        other_protocol = run_sweep(
            "three-pair", ["802.11n"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        other_seed = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=5, config=FAST, cache_dir=tmp_path
        )
        assert other_protocol.cache_hits == 0
        assert other_seed.cache_hits == 0

    def test_growing_the_sweep_only_computes_new_runs(self, tmp_path):
        run_sweep("three-pair", ["n+"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path)
        grown = run_sweep(
            "three-pair", ["n+"], n_runs=4, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert grown.cache_hits == 2 and grown.cache_misses == 2

    @pytest.mark.parametrize(
        "scenario", [three_pair_scenario, three_pair_scenario()], ids=["factory", "object"]
    )
    def test_a_non_name_scenario_is_refused(self, tmp_path, scenario):
        """Only a registered name keys the cache and replays from a capsule."""
        with pytest.raises(ConfigurationError, match=r"unknown scenario .*'three-pair'"):
            run_sweep(scenario, ["n+"], n_runs=1, config=FAST, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_edited_scenario_definition_invalidates_cache(self, tmp_path):
        """Re-registering a structurally different scenario under the same
        name must not replay the old name's cached cells."""
        from repro.sim.scenarios import _SCENARIOS, register_scenario

        register_scenario("cache-probe", lambda: dense_lan_scenario(n_pairs=2, seed=1))
        try:
            first = run_sweep(
                "cache-probe", ["n+"], n_runs=1, config=FAST, cache_dir=tmp_path
            )
            _SCENARIOS.pop("cache-probe")
            register_scenario("cache-probe", lambda: dense_lan_scenario(n_pairs=3, seed=1))
            second = run_sweep(
                "cache-probe", ["n+"], n_runs=1, config=FAST, cache_dir=tmp_path
            )
        finally:
            _SCENARIOS.pop("cache-probe", None)
        assert first.cache_misses == 1
        assert second.cache_hits == 0 and second.cache_misses == 1

    def test_digest_covers_the_effective_default_testbed(self, monkeypatch):
        """Default-floor scenarios are simulated on ``default_testbed()``;
        the digest must track that *effective* testbed, so an edit to the
        default floor or hardware profile misses the cache instead of
        replaying cells simulated under the old defaults."""
        import dataclasses as dc

        import repro.sim.sweep as sweep_module
        from repro.channel.hardware import HardwareProfile
        from repro.channel.testbed import default_testbed

        scenario = three_pair_scenario()
        assert scenario.make_testbed() is None
        baseline = scenario_digest(scenario)

        # The effective digest equals the digest of the same scenario
        # with the default testbed attached explicitly.
        from repro.sim.scenarios import Scenario

        explicit = Scenario(
            scenario.name,
            scenario.stations,
            scenario.pairs,
            testbed_factory=default_testbed,
        )
        assert scenario_digest(explicit) == baseline

        # An edited default floor changes the digest...
        def edited_floor():
            return dc.replace(default_testbed(), path_loss_exponent=9.9)

        monkeypatch.setattr(sweep_module, "default_testbed", edited_floor)
        assert scenario_digest(scenario) != baseline

        # ...and so does an edited default HardwareProfile.
        def edited_hardware():
            return dc.replace(
                default_testbed(), hardware=HardwareProfile(nulling_suppression_db=1.0)
            )

        monkeypatch.setattr(sweep_module, "default_testbed", edited_hardware)
        assert scenario_digest(scenario) != baseline

    def test_edited_default_testbed_misses_the_cache(self, tmp_path, monkeypatch):
        """Regression for the ROADMAP item: a testbed change must not
        replay stale cached cells for default-floor scenarios."""
        import dataclasses as dc

        import repro.sim.sweep as sweep_module
        from repro.channel.testbed import default_testbed

        first = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert first.cache_misses == 1

        def edited_floor():
            return dc.replace(default_testbed(), shadowing_sigma_db=0.1)

        monkeypatch.setattr(sweep_module, "default_testbed", edited_floor)
        rerun = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert rerun.cache_hits == 0 and rerun.cache_misses == 1

    def test_scenario_digest_tracks_structure(self):
        a = scenario_digest(dense_lan_scenario(n_pairs=2, seed=1))
        b = scenario_digest(dense_lan_scenario(n_pairs=2, seed=1))
        c = scenario_digest(dense_lan_scenario(n_pairs=3, seed=1))
        d = scenario_digest(dense_lan_scenario(n_pairs=2, seed=1, packet_rate_pps=9.0))
        assert a == b
        assert a != c
        # A hint is not structure: it reaches the key resolved, through
        # the run spec (see test_run_spec.py).
        assert a == d

    def test_config_digest_changes_with_any_field(self):
        base = config_digest(FAST_SPEC)
        same = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)
        assert config_digest(_spec(same)) == base
        longer = SimulationConfig(duration_us=10_001.0, n_subcarriers=8)
        assert config_digest(_spec(longer)) != base
        bursty = SimulationConfig(
            duration_us=10_000.0, n_subcarriers=8, packet_rate_pps=5.0
        )
        assert config_digest(_spec(bursty)) != base
        # The stored digest records the validation mode the key leaves out.
        validated = SimulationConfig(
            duration_us=10_000.0, n_subcarriers=8, validation="cheap"
        )
        assert config_digest(_spec(validated)) != base


class TestRunLevelTasks:
    """The parallel sweep ships one task per run: every run's network is
    drawn exactly once, no matter how many protocols are swept."""

    @staticmethod
    def _count_build_network_calls(monkeypatch, **sweep_kwargs):
        import multiprocessing

        import repro.sim.sweep as sweep_module
        from repro.sim.runner import build_network

        calls = multiprocessing.Value("i", 0)

        def counting_build_network(scenario, run_seed, config):
            with calls.get_lock():
                calls.value += 1
            return build_network(scenario, run_seed, config)

        monkeypatch.setattr(sweep_module, "build_network", counting_build_network)
        result = run_sweep("three-pair", ["802.11n", "n+"], **sweep_kwargs)
        return calls.value, result

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_network_per_run(self, monkeypatch, workers):
        if workers > 1 and "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("needs fork to observe worker-side calls")
        calls, result = self._count_build_network_calls(
            monkeypatch, n_runs=3, seed=4, config=FAST, workers=workers
        )
        assert calls == 3  # one build per run, not one per (run, protocol)
        assert len(result.results) == 2
        assert all(len(runs) == 3 for runs in result.results.values())

    def test_cached_protocols_do_not_rebuild(self, monkeypatch, tmp_path):
        """A task only covers the protocols that missed the cache; a fully
        cached run draws no network at all."""
        run_sweep(
            "three-pair", ["802.11n"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        calls, result = self._count_build_network_calls(
            monkeypatch, n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert result.cache_hits == 2  # the 802.11n cells replay
        assert result.cache_misses == 2  # the n+ cells simulate
        assert calls == 2  # one network per run with uncached work
        repeat_calls, repeat = self._count_build_network_calls(
            monkeypatch, n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert repeat.cache_hits == 4 and repeat_calls == 0

    def test_worker_rich_sweeps_split_runs_for_concurrency(self, monkeypatch):
        """With more workers than uncached runs, a run's protocols chunk
        across workers (each chunk still drawing its network once), so
        the extra workers are not left idle."""
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("needs fork to observe worker-side calls")
        calls, result = self._count_build_network_calls(
            monkeypatch, n_runs=1, seed=4, config=FAST, workers=4
        )
        # 1 run x 2 protocols, 4 workers: two single-protocol chunks.
        assert calls == 2
        assert result.workers == 2
        serial = run_sweep(
            "three-pair", ["802.11n", "n+"], n_runs=1, seed=4, config=FAST, workers=1
        )
        assert _as_dicts(serial.results) == _as_dicts(result.results)

    def test_run_level_results_match_per_cell_semantics(self):
        """Shipping run-level tasks stays byte-identical to run_many."""
        protocols = ["802.11n", "n+", "beamforming"]
        serial = run_many(three_pair_scenario, protocols, n_runs=2, seed=6, config=FAST)
        parallel = run_sweep(
            "three-pair", protocols, n_runs=2, seed=6, config=FAST, workers=2
        )
        assert _as_dicts(serial) == _as_dicts(parallel.results)


class TestMetricsRoundTrip:
    def test_network_metrics_round_trip(self):
        metrics = run_simulation(three_pair_scenario(), "n+", seed=2, config=FAST)
        clone = NetworkMetrics.from_dict(metrics.to_dict())
        assert clone.to_dict() == metrics.to_dict()
        assert clone.total_throughput_mbps() == metrics.total_throughput_mbps()

    def test_link_metrics_round_trip(self):
        link = LinkMetrics(pair_name="a->b", delivered_bits=12, attempted_bits=24)
        assert LinkMetrics.from_dict(link.to_dict()) == link


class TestDenseScenarios:
    def test_dense_lan_shape(self):
        scenario = dense_lan_scenario(n_pairs=10, seed=20)
        assert len(scenario.stations) == 20
        assert len(scenario.pairs) == 10
        assert scenario.max_antennas >= 2
        counts = {pair.transmitter.n_antennas for pair in scenario.pairs}
        assert counts <= {1, 2, 3}

    def test_dense_lan_is_deterministic_per_seed(self):
        a = dense_lan_scenario(n_pairs=12, seed=1)
        b = dense_lan_scenario(n_pairs=12, seed=1)
        c = dense_lan_scenario(n_pairs=12, seed=2)
        mix = lambda s: [p.transmitter.n_antennas for p in s.pairs]
        assert mix(a) == mix(b)
        assert mix(a) != mix(c) or a.name == c.name  # extremely unlikely to tie

    def test_dense_lan_carries_a_big_enough_testbed(self):
        scenario = dense_lan_scenario(n_pairs=25, seed=50)
        testbed = scenario.make_testbed()
        assert testbed is not None
        assert testbed.n_locations >= len(scenario.stations)

    def test_bursty_variant_suggests_poisson_traffic(self):
        scenario = dense_lan_scenario(n_pairs=5, seed=0, packet_rate_pps=200.0)
        assert scenario.packet_rate_pps == 200.0
        config = SimulationConfig(duration_us=5_000.0, n_subcarriers=8)
        metrics = run_simulation(scenario, "802.11n", seed=1, config=config)
        assert metrics.elapsed_us >= config.duration_us

    def test_config_rate_overrides_scenario_hint(self):
        scenario = dense_lan_scenario(n_pairs=3, seed=0, packet_rate_pps=1.0)
        # With the hint (1 pps) almost nothing is delivered...
        hinted = run_simulation(
            scenario,
            "802.11n",
            seed=1,
            config=SimulationConfig(duration_us=5_000.0, n_subcarriers=8),
        )
        # ...while packet_rate_pps=0 explicitly forces saturated sources.
        busy = run_simulation(
            scenario,
            "802.11n",
            seed=1,
            config=SimulationConfig(
                duration_us=5_000.0, n_subcarriers=8, packet_rate_pps=0.0
            ),
        )
        assert busy.total_throughput_mbps() > hinted.total_throughput_mbps()

    def test_nonpositive_poisson_rate_is_rejected(self):
        import numpy as np

        from repro.sim.traffic import PoissonSource

        with pytest.raises(ConfigurationError):
            PoissonSource(0, 1, rate_packets_per_second=0.0, rng=np.random.default_rng(0))


class TestSchemaBoundary:
    """The CACHE_SCHEMA_VERSION 8 bump (the grouped contract's matmul DFT).

    Cells written under an older schema must be *missed* -- recomputed
    under the current semantics -- never replayed; and the scenario's
    ``channel_draws`` hint must be part of the scenario digest, because
    selecting a different draw contract changes every seeded channel.
    """

    def test_old_cached_cells_are_missed_after_the_bump(self, tmp_path, monkeypatch):
        import repro.sim.sweep as sweep_module

        assert sweep_module.CACHE_SCHEMA_VERSION == 8

        # Populate the cache as a previous-schema writer would have keyed it.
        monkeypatch.setattr(sweep_module, "CACHE_SCHEMA_VERSION", 7)
        old = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert old.cache_misses == 2 and cell_count(ResultsStore(tmp_path), "done") == 2

        # Back on the real schema: every old cell is a miss, not a replay.
        monkeypatch.undo()
        assert sweep_module.CACHE_SCHEMA_VERSION == 8
        bumped = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert bumped.cache_hits == 0 and bumped.cache_misses == 2
        # The recomputed cells are correct (identical to an uncached sweep)
        # and were re-stored under the v8 keys next to the stale v7 rows.
        fresh = run_sweep("three-pair", ["n+"], n_runs=2, seed=4, config=FAST)
        assert _as_dicts(bumped.results) == _as_dicts(fresh.results)
        assert cell_count(ResultsStore(tmp_path), "done") == 4

    def test_key_format_is_pinned(self, tmp_path):
        """Cell keys and the manifest digest, recorded before cells were
        keyed by :class:`Cell`: any change here orphans every results
        store on disk, so it needs a schema bump, not a new literal."""
        result = run_sweep(
            "dense-lan-20-faulty",
            ["802.11n", "n+[recovery=erasure]"],
            n_runs=2,
            seed=4,
            config=SimulationConfig(duration_us=20000.0, n_subcarriers=8),
            cache_dir=tmp_path,
        )
        assert result.sweep_id == (
            "3d608c08d3bc54cf6ad9e84a29c72a4f0091d8c413895779983979f9a5c8126f"
        )
        keys = {
            (cell.protocol, cell.run): cell.key
            for cell in ResultsStore(tmp_path).query()
        }
        assert keys == {
            ("802.11n", 0): (
                "293bbb8efe1ed658f523df010cce635c1f85dea07496e34db1da1322fb137a1c"
            ),
            ("802.11n", 1): (
                "fad7d84f20801463b49248fe23a10fafd2cd34ad4bd620f6bb5c347aa832c8ce"
            ),
            ("n+[recovery=erasure]", 0): (
                "50cfd54b059ea9b699ca23acf487b7248507cc023291f73443c6efd9eb567220"
            ),
            ("n+[recovery=erasure]", 1): (
                "211260a4bbabeacd4b449c2bf675dcefc5607770485767ab4296354b6c3478d4"
            ),
        }

    def test_cell_keys_differ_across_schema_versions(self, tmp_path, monkeypatch):
        import repro.sim.sweep as sweep_module

        v8_key = _key("three-pair", 4, FAST_SPEC)
        monkeypatch.setattr(sweep_module, "CACHE_SCHEMA_VERSION", 7)
        v7_key = _key("three-pair", 4, FAST_SPEC)
        assert v8_key != v7_key

    def test_cell_key_covers_channel_draws(self):
        import dataclasses as dc

        def key(scenario):
            return _key("probe", 4, RunSpec.resolve(scenario, FAST))

        base = dense_lan_scenario(n_pairs=2, seed=1)
        assert base.channel_draws is None
        grouped = dc.replace(base, channel_draws="grouped")
        assert key(base) != key(grouped)
        # The factory's channel_draws parameter feeds the same field.
        assert key(
            dense_lan_scenario(n_pairs=2, seed=1, channel_draws="grouped")
        ) == key(grouped)


def _crash_on_seed(run_seed_to_crash):
    """A build_network wrapper that raises for one placement seed."""
    from repro.sim.runner import build_network as real_build_network

    def crashing(scenario, run_seed, config):
        if run_seed == run_seed_to_crash:
            raise RuntimeError(f"injected crash for run_seed {run_seed}")
        return real_build_network(scenario, run_seed, config)

    return crashing


class TestSweepHardening:
    """run_sweep survives (and reports) failing cells instead of aborting."""

    def test_in_process_failure_is_recorded(self, monkeypatch):
        import repro.sim.sweep as sweep_module
        from repro.sim.spec import placement_seed
        from repro.sim.sweep import FailedCell

        bad_seed = placement_seed(4, 1)
        monkeypatch.setattr(sweep_module, "build_network", _crash_on_seed(bad_seed))
        result = run_sweep(
            "three-pair",
            ["n+", "802.11n"],
            n_runs=3,
            seed=4,
            config=FAST,
        )
        assert result.results["n+"][1] is None
        assert result.results["802.11n"][1] is None
        assert result.results["n+"][0] is not None
        assert sorted(f.protocol for f in result.failures) == ["802.11n", "n+"]
        for failure in result.failures:
            assert isinstance(failure, FailedCell)
            assert failure.run == 1
            assert failure.run_seed == bad_seed
            assert "injected crash" in failure.error
        # aggregates skip the failed cells instead of crashing
        assert len(result.totals_mbps("n+")) == 2
        assert result.link_names()  # found from a surviving cell

    def test_strict_restores_raise_on_failure(self, monkeypatch):
        import repro.sim.sweep as sweep_module
        from repro.exceptions import SimulationError
        from repro.sim.spec import placement_seed

        monkeypatch.setattr(
            sweep_module, "build_network", _crash_on_seed(placement_seed(4, 0))
        )
        with pytest.raises(SimulationError):
            run_sweep(
                "three-pair",
                ["n+"],
                n_runs=1,
                seed=4,
                config=FAST,
                strict=True,
                )

    def test_parallel_failure_is_recorded(self, monkeypatch):
        if "fork" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("needs fork so workers inherit the monkeypatch")
        import repro.sim.sweep as sweep_module
        from repro.sim.spec import placement_seed

        bad_seed = placement_seed(4, 1)
        monkeypatch.setattr(sweep_module, "build_network", _crash_on_seed(bad_seed))
        result = run_sweep(
            "three-pair",
            ["n+"],
            n_runs=3,
            seed=4,
            config=FAST,
            workers=2,
        )
        assert [m is None for m in result.results["n+"]] == [False, True, False]
        assert [f.run for f in result.failures] == [1]

    def test_failed_cells_are_not_cached(self, monkeypatch, tmp_path):
        """A failure leaves no cache entry, so the next sweep recomputes."""
        import repro.sim.sweep as sweep_module
        from repro.sim.spec import placement_seed

        monkeypatch.setattr(
            sweep_module, "build_network", _crash_on_seed(placement_seed(4, 0))
        )
        failed = run_sweep(
            "three-pair",
            ["n+"],
            n_runs=1,
            seed=4,
            config=FAST,
            cache_dir=tmp_path,
        )
        assert failed.failures
        # Failed cells are recorded as `failed`, never as cached results:
        # len() counts only `done` cells and load() replays only those.
        assert cell_count(ResultsStore(tmp_path), "done") == 0
        monkeypatch.undo()
        recovered = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert not recovered.failures
        assert recovered.cache_misses == 1
        assert recovered.results["n+"][0] is not None


class TestSchemaV4FaultDigests:
    """Fault parameters are part of every cache key (schema v4)."""

    def test_config_digest_covers_fault_fields(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text('[{"start_us": 0, "duration_us": 500, "loss_rate": 0.5}]')
        base = config_digest(FAST_SPEC)
        profiled = config_digest(
            _spec(
                SimulationConfig(
                    duration_us=10_000.0, n_subcarriers=8, fault_profile="mixed"
                )
            )
        )
        traced = config_digest(
            _spec(
                SimulationConfig(
                    duration_us=10_000.0, n_subcarriers=8, fault_trace=str(trace)
                )
            )
        )
        assert len({base, profiled, traced}) == 3

    def test_cell_key_covers_the_fault_profile_hint(self):
        def key(scenario):
            return _key("probe", 4, RunSpec.resolve(scenario, FAST))

        base = dense_lan_scenario(n_pairs=2, seed=1)
        faulty = dense_lan_scenario(n_pairs=2, seed=1, fault_profile="mixed")
        assert key(base) != key(faulty)

    def test_cell_key_tracks_profile_parameters(self, monkeypatch):
        """Editing a registered profile's numbers invalidates cached
        cells even though the profile *name* is unchanged."""
        import dataclasses as dc

        from repro.sim import faults

        scenario = dense_lan_scenario(n_pairs=2, seed=1, fault_profile="mixed")
        before = _key("probe", 4, RunSpec.resolve(scenario, FAST))
        edited = dc.replace(faults.fault_profile("mixed"), fade_rate_per_s=999.0)
        monkeypatch.setitem(faults.FAULT_PROFILES, "mixed", edited)
        after = _key("probe", 4, RunSpec.resolve(scenario, FAST))
        assert after != before

    def test_cell_key_covers_fault_config(self):
        from repro.sim.scenarios import scenario_factory

        faulty = scenario_factory("dense-lan-20-faulty")
        base = _key("dense-lan-20-faulty", 4, _spec(FAST, faulty))
        off = _key(
            "dense-lan-20-faulty",
            4,
            _spec(
                SimulationConfig(
                    duration_us=10_000.0, n_subcarriers=8, fault_profile="none"
                ),
                faulty,
            ),
        )
        assert base != off


class TestDefaultWorkers:
    def test_repro_workers_env_override_wins(self, monkeypatch):
        from repro.sim.sweep import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_repro_workers_is_clamped_to_at_least_one(self, monkeypatch):
        from repro.sim.sweep import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_repro_workers_must_be_an_integer(self, monkeypatch):
        from repro.sim.sweep import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
            default_workers()

    def test_blank_override_falls_through_to_affinity(self, monkeypatch):
        import os

        from repro.sim.sweep import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "  ")
        expected = max(1, len(os.sched_getaffinity(0)))
        assert default_workers() == expected

    def test_missing_affinity_falls_back_to_cpu_count(self, monkeypatch):
        # macOS/Windows have no os.sched_getaffinity at all
        import os

        from repro.sim import sweep
        from repro.sim.sweep import default_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
        assert default_workers() == max(1, os.cpu_count() or 1)

    def test_missing_cpu_count_means_one_worker(self, monkeypatch):
        from repro.sim import sweep
        from repro.sim.sweep import default_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        assert default_workers() == 1


def _needs_fork(workers):
    if workers > 1 and "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("needs fork so workers inherit the monkeypatch")


def _killed_on_seed(run_seed_to_kill):
    """A build_network whose every caller for one placement seed SIGKILLs
    its own process."""
    import os
    import signal

    from repro.sim.runner import build_network as real_build_network

    def killing(scenario, run_seed, config):
        if run_seed == run_seed_to_kill:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_build_network(scenario, run_seed, config)

    return killing


class TestFailureRule:
    """A task is re-run only when its worker is lost; a raise fails it."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_build_crash_fails_on_its_first_attempt(self, monkeypatch, workers):
        import multiprocessing
        import time

        import repro.sim.sweep as sweep_module
        from repro.sim.spec import placement_seed

        _needs_fork(workers)
        attempts = multiprocessing.Value("i", 0)
        crash = _crash_on_seed(placement_seed(4, 1))

        def counting(scenario, run_seed, config):
            if run_seed == placement_seed(4, 1):
                with attempts.get_lock():
                    attempts.value += 1
            return crash(scenario, run_seed, config)

        sleeps = []
        monkeypatch.setattr(sweep_module, "build_network", counting)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        result = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST, workers=workers
        )
        monkeypatch.undo()
        assert attempts.value == 1
        assert sleeps == []
        assert [f.run for f in result.failures] == [1]
        assert "in crashing" in result.failures[0].traceback
        assert result.worker_deaths == 0

    def test_strict_names_a_simulation_crash_without_a_retry_count(
        self, monkeypatch
    ):
        import repro.sim.sweep as sweep_module
        from repro.exceptions import SimulationError
        from repro.sim.spec import placement_seed

        real_run_simulation = sweep_module.run_simulation

        def crashing(scenario, spec, **kwargs):
            if spec.key == "n+":
                raise RuntimeError("injected simulation crash")
            return real_run_simulation(scenario, spec, **kwargs)

        monkeypatch.setattr(sweep_module, "run_simulation", crashing)
        with pytest.raises(SimulationError) as raised:
            run_sweep(
                "three-pair", ["802.11n", "n+"], n_runs=1, seed=4, config=FAST,
                strict=True,
            )
        message = str(raised.value)
        assert message == (
            f"sweep cell failed (protocols ['n+'], run 0, run_seed "
            f"{placement_seed(4, 0)}): RuntimeError: injected simulation crash"
        )
        assert "retr" not in message

    def test_a_cell_whose_worker_always_dies_fails_after_its_requeues(
        self, monkeypatch, tmp_path
    ):
        import repro.sim.sweep as sweep_module
        from repro.sim.spec import placement_seed
        from repro.sim.supervisor import MAX_REQUEUES

        _needs_fork(2)
        monkeypatch.setattr(
            sweep_module, "build_network", _killed_on_seed(placement_seed(4, 1))
        )
        result = run_sweep(
            "three-pair", ["802.11n", "n+"], n_runs=2, seed=4, config=FAST,
            workers=2, cache_dir=tmp_path,
        )
        assert sorted((f.run, f.protocol) for f in result.failures) == [
            (1, "802.11n"), (1, "n+"),
        ]
        for failure in result.failures:
            assert "died every time" in failure.error
            assert failure.traceback is None
        assert all(result.results[p][0] is not None for p in ("802.11n", "n+"))
        with ResultsStore(tmp_path) as store:
            assert cell_count(store, "done") == 2
            assert cell_count(store, "failed") == 2
        assert result.worker_deaths == MAX_REQUEUES + 1
