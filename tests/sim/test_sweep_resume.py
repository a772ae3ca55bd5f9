"""Checkpoint/resume tests for run_sweep (fast, in-process paths).

The durable-sweep contract: a sweep records its manifest before any
work, an interruption checkpoints a resumable state, and resuming
produces metrics byte-identical to the sweep run uninterrupted.  The
subprocess-driven kill tests (SIGINT/SIGKILL against a real parallel
sweep) live in test_sweep_kill.py behind the slow marker; here the
interruptions are injected deterministically in-process.
"""

import gc
import hashlib
import sqlite3

import pytest

from helpers import cell_count
from oracles.runner import run_many
from repro.exceptions import ConfigurationError
from repro.sim.scenarios import three_pair_scenario
from repro.sim.spec import SimulationConfig, placement_seed
from repro.sim.store import ResultsStore, store_path
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

    def test_a_refused_resume_closes_its_store(self, tmp_path):
        """Planning that raises after the store opened closes it there, so
        no connection -- and no ``-wal``/``-shm`` file -- outlives it."""
        run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        gc.disable()  # only the sweep may close the store, not a collection
        try:
            try:
                run_sweep(
                    "three-pair", ["n+"], n_runs=3, seed=4, config=FAST,
                    cache_dir=tmp_path, resume=True,
                )
            except ConfigurationError as exc:
                assert "nothing to resume" in str(exc)
            else:
                pytest.fail("resuming an unrecorded grid did not raise")
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                store_path(tmp_path).name
            ]
        finally:
            gc.enable()

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
        assert cell_count(store, "running") == 0
        assert cell_count(store, "done") == len(protocols)
        assert cell_count(store, "pending") == 2 * len(protocols)
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
        assert cell_count(store, "pending") == cell_count(store, "running") == 0

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
        assert cell_count(store, "pending") == 2 and cell_count(store, "done") == 0
        store.close()
        resumed = run_sweep(
            "three-pair", ["n+"], n_runs=2, seed=4, config=FAST,
            cache_dir=tmp_path, resume=True,
        )
        fresh = run_sweep("three-pair", ["n+"], n_runs=2, seed=4, config=FAST)
        assert _as_dicts(resumed.results) == _as_dicts(fresh.results)

    def test_an_interrupted_sweep_closes_its_store(self, tmp_path, monkeypatch):
        from repro.sim import sweep as sweep_module

        closed = []
        close = ResultsStore.close
        monkeypatch.setattr(
            ResultsStore, "close", lambda store: (closed.append(store), close(store))
        )
        monkeypatch.setattr(
            sweep_module, "build_network", _interrupt_on_seed(placement_seed(4, 1))
        )
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                "three-pair", ["n+"], n_runs=2, seed=4, config=FAST,
                cache_dir=tmp_path,
            )
        assert len(closed) == 1

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
            cache_dir=tmp_path,
        )
        assert first.failures
        store = ResultsStore(tmp_path)
        assert cell_count(store, "failed") == 1
        store.close()

        monkeypatch.setattr(sweep_module, "build_network", real)
        second = run_sweep(
            "three-pair", ["n+"], n_runs=1, seed=4, config=FAST, cache_dir=tmp_path
        )
        assert not second.failures and second.cache_misses == 1
        store = ResultsStore(tmp_path)
        assert cell_count(store, "failed") == 0 and cell_count(store, "done") == 1


def _file_state(cache_dir):
    """The store file's sha256 and the names of every file beside it."""
    digest = hashlib.sha256(store_path(cache_dir).read_bytes()).hexdigest()
    return digest, sorted(p.name for p in cache_dir.iterdir())


def _rows(cache_dir):
    """Every row of the store's ``sweeps`` and ``cells`` tables."""
    conn = sqlite3.connect(store_path(cache_dir))
    conn.row_factory = sqlite3.Row
    try:
        return (
            conn.execute("SELECT * FROM sweeps ORDER BY sweep_id").fetchall(),
            conn.execute("SELECT * FROM cells ORDER BY key").fetchall(),
        )
    finally:
        conn.close()


class TestReplayWritesNothing:
    """A repeat of a finished sweep reads the store and writes nothing:
    the file keeps its bytes, no WAL is left beside it, and every row
    (``updated_at`` included) stays as the last write left it."""

    PROTOCOLS = ["802.11n", "n+"]

    def _sweep(self, cache_dir, n_runs=2, **kwargs):
        return run_sweep(
            "three-pair", self.PROTOCOLS, n_runs=n_runs, seed=4, config=FAST,
            cache_dir=cache_dir, **kwargs,
        )

    @pytest.mark.parametrize("resume", [False, True], ids=["replay", "resume"])
    def test_a_finished_sweep_replays_without_a_write(self, tmp_path, resume):
        cold = self._sweep(tmp_path)
        files, rows = _file_state(tmp_path), _rows(tmp_path)
        assert files[1] == [store_path(tmp_path).name]

        replay = self._sweep(tmp_path, resume=resume)

        assert _file_state(tmp_path) == files
        assert _rows(tmp_path) == rows
        assert replay.cache_hits == 2 * len(self.PROTOCOLS)
        assert replay.cache_misses == 0
        assert replay.sweep_id == cold.sweep_id
        assert _as_dicts(replay.results) == _as_dicts(cold.results)

    def test_a_hit_grid_under_a_new_manifest_records_that_manifest(self, tmp_path):
        whole = self._sweep(tmp_path, n_runs=3)
        sweeps_before, cells_before = _rows(tmp_path)

        subset = self._sweep(tmp_path, n_runs=2)

        assert subset.cache_hits == 2 * len(self.PROTOCOLS)
        assert subset.cache_misses == 0
        assert subset.sweep_id != whole.sweep_id
        assert _as_dicts(subset.results) == {
            protocol: runs[:2] for protocol, runs in _as_dicts(whole.results).items()
        }
        sweeps_after, cells_after = _rows(tmp_path)
        # The whole grid's manifest is untouched; the subset's is added, done.
        assert [
            row for row in sweeps_after if row["sweep_id"] == whole.sweep_id
        ] == sweeps_before
        with ResultsStore(tmp_path) as store:
            assert {r.sweep_id: r.status for r in store.sweeps()} == {
                whole.sweep_id: "done",
                subset.sweep_id: "done",
            }
            assert store.get_sweep(subset.sweep_id).manifest["n_runs"] == 2
            assert cell_count(store) == cell_count(store, "done") == len(cells_before)
        # Recording it rewrote no result.
        assert [(row["key"], row["metrics_json"]) for row in cells_after] == [
            (row["key"], row["metrics_json"]) for row in cells_before
        ]

    @pytest.mark.parametrize("status", ["interrupted", "running"])
    @pytest.mark.parametrize("resume", [False, True], ids=["rerun", "resume"])
    def test_an_unfinished_manifest_with_every_cell_done_ends_done(
        self, tmp_path, status, resume
    ):
        cold = self._sweep(tmp_path)
        with ResultsStore(tmp_path) as store:
            # As a sweep killed after its last cell was stored leaves it.
            store.checkpoint_sweep(cold.sweep_id, status=status)

        again = self._sweep(tmp_path, resume=resume)

        assert again.cache_misses == 0
        assert _as_dicts(again.results) == _as_dicts(cold.results)
        with ResultsStore(tmp_path) as store:
            assert store.get_sweep(cold.sweep_id).status == "done"

    def test_resuming_a_hit_grid_with_no_manifest_still_raises(self, tmp_path):
        self._sweep(tmp_path, n_runs=3)
        files = _file_state(tmp_path)
        # Every cell of the two-run grid is stored, under the three-run
        # manifest: there is still nothing to resume.
        with pytest.raises(ConfigurationError, match="nothing to resume"):
            self._sweep(tmp_path, n_runs=2, resume=True)
        assert _file_state(tmp_path)[0] == files[0]
