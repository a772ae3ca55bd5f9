"""Checkpoint/resume tests for run_sweep (fast, in-process paths).

The durable-sweep contract: a sweep records its manifest before any
work, an interruption checkpoints a resumable state, and resuming
produces metrics byte-identical to the sweep run uninterrupted.  The
subprocess-driven kill tests (SIGINT/SIGKILL against a real parallel
sweep) live in test_sweep_kill.py behind the slow marker; here the
interruptions are injected deterministically in-process.
"""

import pytest

from oracles.runner import run_many
from repro.exceptions import ConfigurationError
from repro.sim.runner import SimulationConfig, placement_seed
from repro.sim.scenarios import three_pair_scenario
from repro.sim.store import ResultsStore
from repro.sim.sweep import run_sweep, sweep_manifest_digest

FAST = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)


def _as_dicts(results):
    return {
        protocol: [m.to_dict() if m is not None else None for m in runs]
        for protocol, runs in results.items()
    }


def _interrupt_on_seed(run_seed):
    """A build_network wrapper that raises KeyboardInterrupt once."""
    from repro.sim import sweep as sweep_module

    real = sweep_module.build_network
    fired = []

    def wrapper(scenario, seed, config):
        if seed == run_seed and not fired:
            fired.append(seed)
            raise KeyboardInterrupt
        return real(scenario, seed, config)

    return wrapper


class TestManifest:
    def test_completed_sweep_records_a_done_manifest(self, tmp_path):
        result = run_sweep(
            "three-pair", ["802.11n", "n+"], n_runs=2, seed=4, config=FAST,
            cache_dir=tmp_path,
        )
        assert result.sweep_id is not None
        record = ResultsStore(tmp_path).get_sweep(result.sweep_id)
        assert record.status == "done"
        assert record.manifest["scenario"] == "three-pair"
        assert record.manifest["protocols"] == ["802.11n", "n+"]
        assert record.manifest["n_runs"] == 2
        assert record.manifest["seed"] == 4
        assert sweep_manifest_digest(record.manifest) == result.sweep_id

    def test_uncached_sweeps_have_no_sweep_id(self):
        result = run_sweep("three-pair", ["n+"], n_runs=1, seed=4, config=FAST)
        assert result.sweep_id is None

    def test_any_grid_change_yields_a_distinct_sweep_id(self, tmp_path):
        base = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        more_runs = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        other_seed = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=5, config=FAST, cache_dir=tmp_path
        )
        assert len({base.sweep_id, more_runs.sweep_id, other_seed.sweep_id}) == 3


class TestResumeValidation:
    def test_resume_requires_a_cache_dir(self):
        with pytest.raises(ConfigurationError, match="resume"):
            run_sweep("three-pair", ["n+"], n_runs=1, config=FAST, resume=True)

    def test_resume_rejects_an_unknown_manifest(self, tmp_path):
        run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        # Same store, different grid: nothing to resume.
        with pytest.raises(ConfigurationError, match="nothing to resume"):
            run_sweep(
                "three-pair", ["n+"], n_runs=3, seed=4, config=FAST,
                cache_dir=tmp_path, resume=True,
            )

    def test_resuming_a_completed_sweep_is_a_cheap_no_op(self, tmp_path):
        first = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST, cache_dir=tmp_path
        )
        again = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST,
            cache_dir=tmp_path, resume=True,
        )
        assert again.cache_hits == 2 and again.cache_misses == 0
        assert _as_dicts(again.results) == _as_dicts(first.results)


class TestInterruptAndResume:
    def test_interrupted_sweep_checkpoints_and_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import sweep as sweep_module

        protocols = ["802.11n", "n+"]
        kwargs = dict(n_runs=3, seed=4, config=FAST, cache_dir=tmp_path)

        # Interrupt while computing run 1 (run 0 already stored).
        monkeypatch.setattr(
            sweep_module,
            "build_network",
            _interrupt_on_seed(placement_seed(4, 1)),
        )
        with pytest.raises(KeyboardInterrupt):
            run_sweep("three-pair", protocols, **kwargs)
        monkeypatch.undo()

        store = ResultsStore(tmp_path)
        sweeps = store.sweeps()
        assert len(sweeps) == 1 and sweeps[0].status == "interrupted"
        # The checkpoint left no cell in flight: run 0's cells are done,
        # everything else is pending again.
        assert store.count("running") == 0
        assert store.count("done") == len(protocols)
        assert store.count("pending") == 2 * len(protocols)
        store.close()

        resumed = run_sweep("three-pair", protocols, resume=True, **kwargs)
        assert resumed.cache_hits == len(protocols)
        assert resumed.cache_misses == 2 * len(protocols)
        fresh = run_sweep(
            "three-pair", protocols, n_runs=3, seed=4, config=FAST
        )
        assert _as_dicts(resumed.results) == _as_dicts(fresh.results)
        serial = run_many(three_pair_scenario, protocols, n_runs=3, seed=4, config=FAST)
        assert _as_dicts(resumed.results) == _as_dicts(serial)
        store = ResultsStore(tmp_path)
        assert store.get_sweep(resumed.sweep_id).status == "done"
        assert store.count("pending") == store.count("running") == 0

    def test_interrupt_before_any_result_still_checkpoints(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import sweep as sweep_module

        monkeypatch.setattr(
            sweep_module,
            "build_network",
            _interrupt_on_seed(placement_seed(4, 0)),
        )
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                "three-pair", ["n+"], n_runs=2, seed=4, config=FAST,
                cache_dir=tmp_path,
            )
        monkeypatch.undo()
        store = ResultsStore(tmp_path)
        assert store.sweeps()[0].status == "interrupted"
        assert store.count("pending") == 2 and store.count("done") == 0
        store.close()
        resumed = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST,
            cache_dir=tmp_path, resume=True,
        )
        fresh = run_sweep("three-pair", ["n+"], n_runs=2, seed=4, config=FAST)
        assert _as_dicts(resumed.results) == _as_dicts(fresh.results)

    def test_failed_cells_are_retried_by_a_later_sweep(self, tmp_path, monkeypatch):
        """`failed` rows are misses: re-running the grid recomputes them
        and flips the row to done."""
        import repro.sim.sweep as sweep_module

        real = sweep_module.build_network

        def crash(scenario, seed, config):
            raise RuntimeError("transient")

        monkeypatch.setattr(sweep_module, "build_network", crash)
        first = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST,
            cache_dir=tmp_path, retry_backoff_s=0.0,
        )
        assert first.failures
        store = ResultsStore(tmp_path)
        assert store.count("failed") == 1
        store.close()

        monkeypatch.setattr(sweep_module, "build_network", real)
        second = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert not second.failures and second.cache_misses == 1
        store = ResultsStore(tmp_path)
        assert store.count("failed") == 0 and store.count("done") == 1
