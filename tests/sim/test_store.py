"""Tests for the SQLite results store (repro.sim.store).

These tests pin the store's contracts: cache semantics (done-only hits,
corrupt state as a miss), the cell state machine that makes sweeps
resumable, and the refusal of any other table layout.
"""

import json
import os
import sqlite3

import pytest

from helpers import cell_count
from repro.exceptions import ConfigurationError
from repro.sim.metrics import LinkMetrics, NetworkMetrics
from repro.sim.store import (
    STORE_FILENAME,
    STORE_SCHEMA_VERSION,
    ResultsStore,
    store_path,
)


def _load(store, key):
    """The cached metrics for ``key``, or ``None`` on a miss."""
    return store.load_many([key]).get(key)


def _metrics(delivered: int = 1200) -> NetworkMetrics:
    return NetworkMetrics(
        elapsed_us=100.0,
        links={
            "a->b": LinkMetrics(
                pair_name="a->b", delivered_bits=delivered, attempted_bits=2 * delivered
            )
        },
    )


def _describe(protocol: str = "n+", run: int = 0) -> dict:
    return {
        "scenario": "three-pair",
        "scenario_fingerprint": "f" * 64,
        "protocol": protocol,
        "run": run,
        "run_seed": 1000 * run,
        "config_digest": "c" * 64,
    }


class TestCacheParity:
    """The cell surface: load/store/len."""

    def test_load_misses_on_unknown_key(self, tmp_path):
        assert _load(ResultsStore(tmp_path), "0" * 64) is None

    def test_store_load_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        metrics = _metrics()
        store.store("a" * 64, metrics, _describe())
        assert _load(store, "a" * 64).to_dict() == metrics.to_dict()
        assert cell_count(store, "done") == 1

    def test_store_overwrites_atomically(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.store("a" * 64, _metrics(100), _describe())
        store.store("a" * 64, _metrics(999), _describe())
        assert _load(store, "a" * 64).links["a->b"].delivered_bits == 999
        assert cell_count(store, "done") == 1

    def test_only_done_cells_hit(self, tmp_path):
        store = ResultsStore(tmp_path)
        key = "a" * 64
        store.store(key, _metrics(), _describe())
        store.mark_running([key])
        assert _load(store, key) is None
        store.mark_pending([key])
        assert _load(store, key) is None
        store.mark_failed(key, "boom", _describe())
        assert _load(store, key) is None
        assert cell_count(store, "done") == 0

    def test_load_many_hits_only_done_cells(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.store("a" * 64, _metrics(100), _describe(run=0))
        store.store("b" * 64, _metrics(200), _describe(run=1))
        store.store("c" * 64, _metrics(300), _describe(run=2))
        store.mark_failed("c" * 64, "boom", _describe(run=2))
        hits = store.load_many(["a" * 64, "b" * 64, "c" * 64, "d" * 64])
        # Only done cells hit; misses are absent.
        assert set(hits) == {"a" * 64, "b" * 64}
        assert hits["a" * 64].to_dict() == _metrics(100).to_dict()
        assert hits["b" * 64].to_dict() == _metrics(200).to_dict()

    def test_root_may_be_a_database_path(self, tmp_path):
        store = ResultsStore(tmp_path / "custom.sqlite")
        store.store("a" * 64, _metrics(), _describe())
        assert (tmp_path / "custom.sqlite").exists()
        assert _load(ResultsStore(tmp_path / "custom.sqlite"), "a" * 64) is not None

    @pytest.mark.parametrize(
        "root, database",
        [("cache", "cache/" + STORE_FILENAME), ("x.sqlite", "x.sqlite"), ("x.db", "x.db")],
    )
    def test_store_path_is_the_file_the_store_opens(self, tmp_path, root, database):
        assert store_path(tmp_path / root) == tmp_path / database
        with ResultsStore(tmp_path / root) as store:
            assert store.path == tmp_path / database
        assert (tmp_path / database).exists()


class TestSelfHealing:
    def test_corrupt_database_is_quarantined_not_fatal(self, tmp_path):
        (tmp_path / STORE_FILENAME).write_text("this is not a sqlite database" * 100)
        store = ResultsStore(tmp_path)
        # The unreadable store became an empty one (cells are misses)...
        assert cell_count(store, "done") == 0
        store.store("a" * 64, _metrics(), _describe())
        assert _load(store, "a" * 64) is not None
        # ...and the corrupt file was set aside for inspection.
        assert list(tmp_path.glob("*.corrupt.*"))

    @pytest.mark.parametrize(
        "payload",
        ['{"elapsed_us": 100.0, "li', '{"links": 5}', "[1, 2]"],
        ids=["truncated", "bad-links", "wrong-shape"],
    )
    def test_unparseable_metrics_row_is_a_rewritable_miss(self, tmp_path, payload):
        store = ResultsStore(tmp_path)
        key = "a" * 64
        store.store(key, _metrics(), _describe())
        with store._conn:
            store._conn.execute(
                "UPDATE cells SET metrics_json=? WHERE key=?", (payload, key)
            )
        assert _load(store, key) is None
        assert store.load_many([key]) == {}
        store.store(key, _metrics(), _describe())
        assert _load(store, key).to_dict() == _metrics().to_dict()

    def test_a_with_block_closes_the_store(self, tmp_path):
        with ResultsStore(tmp_path) as store:
            assert cell_count(store) == 0
        with pytest.raises(sqlite3.ProgrammingError):
            cell_count(store)

    def test_newer_store_layout_is_refused(self, tmp_path):
        ResultsStore(tmp_path).close()
        conn = sqlite3.connect(tmp_path / STORE_FILENAME)
        with conn:
            conn.execute(
                "UPDATE store_meta SET value=? WHERE key='store_schema'",
                (str(STORE_SCHEMA_VERSION + 10),),
            )
        conn.close()
        with pytest.raises(ConfigurationError, match="newer than this build"):
            ResultsStore(tmp_path)


class TestReadingSessions:
    """Opening a store of the current layout writes nothing, so a session
    that only reads neither changes the file nor waits on a writer."""

    def test_opening_a_current_store_leaves_it_byte_identical(self, tmp_path):
        with ResultsStore(tmp_path) as store:
            store.store("a" * 64, _metrics(), _describe())
        path = tmp_path / STORE_FILENAME
        before = path.read_bytes()
        with ResultsStore(tmp_path) as store:
            assert _load(store, "a" * 64).to_dict() == _metrics().to_dict()
            assert store.sweeps() == []
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [STORE_FILENAME]

    def test_a_replay_and_repro_results_do_not_wait_on_a_writer(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.sim import store as store_module
        from repro.sim.runner import SimulationConfig
        from repro.sim.sweep import run_sweep

        def sweep():
            return run_sweep(
                "three-pair", ["802.11n", "n+"], n_runs=2, seed=4,
                config=SimulationConfig(duration_us=4000.0, n_subcarriers=4),
                cache_dir=tmp_path,
            )

        cold = sweep()
        monkeypatch.setattr(store_module, "_BUSY_TIMEOUT_S", 0.2)
        writer = sqlite3.connect(tmp_path / STORE_FILENAME, isolation_level=None)
        writer.execute("BEGIN IMMEDIATE")
        try:
            # The lock is real: a write through the store gives up on it.
            with ResultsStore(tmp_path) as store:
                with pytest.raises(sqlite3.OperationalError, match="locked"):
                    store.mark_pending(["a" * 64])
            replay = sweep()
            assert main(["results", "--cache-dir", str(tmp_path)]) == 0
        finally:
            writer.execute("ROLLBACK")
            writer.close()
        # Nothing timed out, so nothing was mistaken for corruption.
        assert not list(tmp_path.glob("*.corrupt.*"))
        assert replay.cache_hits == 4 and replay.cache_misses == 0
        assert {p: [m.to_dict() for m in runs] for p, runs in replay.results.items()} == {
            p: [m.to_dict() for m in runs] for p, runs in cold.results.items()
        }
        out = capsys.readouterr().out
        assert "three-pair" in out and "802.11n,n+" in out


class TestStateMachine:
    def test_states_are_the_documented_four(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.begin_sweep("s" * 64, {}, [("a" * 64, _describe(run=0))])
        with store._conn:
            for state in ("pending", "running", "done", "failed"):
                store._conn.execute("UPDATE cells SET status = ?", (state,))
        with pytest.raises(sqlite3.IntegrityError):
            with store._conn:
                store._conn.execute("UPDATE cells SET status = 'lost'")

    def test_transitions_and_counts(self, tmp_path):
        store = ResultsStore(tmp_path)
        keys = ["a" * 64, "b" * 64]
        store.begin_sweep(
            "s" * 64, {"n_runs": 2}, [(k, _describe(run=i)) for i, k in enumerate(keys)]
        )
        assert cell_count(store, "pending") == 2
        store.mark_running(keys)
        assert cell_count(store, "running") == 2
        store.store(keys[0], _metrics(), _describe(run=0))
        store.mark_failed(keys[1], "boom", _describe(run=1))
        assert cell_count(store, "done") == 1
        assert cell_count(store, "failed") == 1
        assert cell_count(store) == 2

    def test_begin_sweep_preserves_done_cells(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.store("a" * 64, _metrics(), _describe())
        store.begin_sweep(
            "s" * 64,
            {},
            [("a" * 64, _describe()), ("b" * 64, _describe(run=1))],
        )
        # The done cell is this sweep's cache hit, not re-pended.
        assert _load(store, "a" * 64) is not None
        assert cell_count(store, "pending") == 1

    def test_begin_sweep_resets_orphaned_running_cells(self, tmp_path):
        """A sweep process that died without checkpointing leaves
        `running` rows; re-invoking the sweep must reclaim them."""
        store = ResultsStore(tmp_path)
        cells = [("a" * 64, _describe())]
        store.begin_sweep("s" * 64, {}, cells)
        store.mark_running(["a" * 64])
        store.begin_sweep("s" * 64, {}, cells)
        assert cell_count(store, "running") == 0
        assert cell_count(store, "pending") == 1

    def test_checkpoint_resets_running_and_marks_interrupted(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.begin_sweep("s" * 64, {"seed": 0}, [("a" * 64, _describe())])
        store.mark_running(["a" * 64])
        store.checkpoint_sweep("s" * 64)
        assert cell_count(store, "running") == 0
        assert cell_count(store, "pending") == 1
        assert store.get_sweep("s" * 64).status == "interrupted"

    def test_finish_sweep_marks_done(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.begin_sweep("s" * 64, {"seed": 0}, [])
        store.finish_sweep("s" * 64)
        assert store.get_sweep("s" * 64).status == "done"

    def test_get_sweep_round_trips_the_manifest(self, tmp_path):
        store = ResultsStore(tmp_path)
        manifest = {"scenario": "three-pair", "n_runs": 4, "protocols": ["n+"]}
        store.begin_sweep("s" * 64, manifest, [])
        assert store.get_sweep("s" * 64).manifest == manifest
        assert store.get_sweep("missing" + "0" * 57) is None
        assert [record.sweep_id for record in store.sweeps()] == ["s" * 64]


class TestQueries:
    def _populate(self, store: ResultsStore) -> None:
        for run in range(2):
            for protocol in ("802.11n", "n+"):
                describe = dict(_describe(protocol=protocol, run=run))
                key = f"{protocol}-{run}".ljust(64, "0")
                store.store(key, _metrics(100 * run + 1), describe)
        failed = dict(_describe(protocol="n+", run=2))
        store.mark_failed("failed".ljust(64, "0"), "boom", failed)

    def test_query_filters_compose(self, tmp_path):
        store = ResultsStore(tmp_path)
        self._populate(store)
        assert len(store.query()) == 5
        assert len(store.query(protocol="n+")) == 3
        assert len(store.query(protocol="n+", status="done")) == 2
        assert store.query(status="failed")[0].error == "boom"
        assert store.query(scenario="nonexistent") == []

    def test_query_returns_metrics_lazily(self, tmp_path):
        store = ResultsStore(tmp_path)
        self._populate(store)
        without = store.query(protocol="n+", status="done")
        assert all(record.metrics_json is None for record in without)
        with_payload = store.query(protocol="n+", status="done", with_metrics=True)
        metrics = [NetworkMetrics.from_dict(json.loads(r.metrics_json)) for r in with_payload]
        assert [m.links["a->b"].delivered_bits for m in metrics] == [
            1,
            101,
        ]

    def test_summary_counts_by_coordinates(self, tmp_path):
        store = ResultsStore(tmp_path)
        self._populate(store)
        summary = store.summary()
        assert summary[("three-pair", "802.11n")] == {"done": 2}
        assert summary[("three-pair", "n+")] == {"done": 2, "failed": 1}


_V1_SCHEMA = """
CREATE TABLE store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE sweeps (
    sweep_id      TEXT PRIMARY KEY,
    manifest_json TEXT NOT NULL,
    status        TEXT NOT NULL CHECK (status IN ('running','interrupted','done')),
    created_at    REAL NOT NULL,
    updated_at    REAL NOT NULL
);
CREATE TABLE cells (
    key                  TEXT PRIMARY KEY,
    status               TEXT NOT NULL CHECK (status IN ('pending','running','done','failed')),
    scenario             TEXT,
    scenario_fingerprint TEXT,
    protocol             TEXT,
    run                  INTEGER,
    run_seed             INTEGER,
    config_digest        TEXT,
    sweep_id             TEXT,
    metrics_json         TEXT,
    error                TEXT,
    updated_at           REAL NOT NULL
);
INSERT INTO store_meta (key, value) VALUES ('store_schema', '1');
"""


class TestPreV2Layout:
    """A version-1 store (no capsule columns) is refused, not migrated."""

    def test_v1_store_is_refused_and_left_unchanged(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        conn = sqlite3.connect(path)
        with conn:
            conn.executescript(_V1_SCHEMA)
            conn.execute(
                "INSERT INTO cells (key, status, protocol, metrics_json, updated_at) "
                "VALUES (?, 'done', 'n+', ?, 0.0)",
                ("a" * 64, json.dumps(_metrics().to_dict())),
            )
            conn.execute(
                "INSERT INTO cells (key, status, protocol, error, updated_at) "
                "VALUES (?, 'failed', 'n+', 'RuntimeError: boom', 0.0)",
                ("b" * 64,),
            )
        before = conn.execute("SELECT * FROM cells ORDER BY key").fetchall()
        conn.close()
        with pytest.raises(ConfigurationError, match="older than this build"):
            ResultsStore(tmp_path)
        conn = sqlite3.connect(path)
        after = conn.execute("SELECT * FROM cells ORDER BY key").fetchall()
        version = conn.execute(
            "SELECT value FROM store_meta WHERE key='store_schema'"
        ).fetchone()[0]
        conn.close()
        assert after == before
        assert version == "1"


def _file_state(path):
    """Everything a refused open could touch: the schema objects, the
    journal mode, the layout version and the rows."""
    conn = sqlite3.connect(path)
    state = (
        conn.execute("SELECT type, name, sql FROM sqlite_master ORDER BY name").fetchall(),
        conn.execute("PRAGMA journal_mode").fetchone()[0],
        conn.execute("SELECT * FROM store_meta ORDER BY key").fetchall(),
        conn.execute("SELECT * FROM cells ORDER BY key").fetchall(),
    )
    conn.close()
    return state


class TestRefusedLayout:
    """A store of another layout is refused before anything is written."""

    @pytest.mark.parametrize(
        "version, relation",
        [(1, "older"), (STORE_SCHEMA_VERSION + 1, "newer")],
        ids=["older", "newer"],
    )
    def test_refused_store_is_left_exactly_as_found(self, tmp_path, version, relation):
        path = tmp_path / STORE_FILENAME
        conn = sqlite3.connect(path)
        with conn:
            conn.executescript(_V1_SCHEMA)
            conn.execute(
                "UPDATE store_meta SET value=? WHERE key='store_schema'",
                (str(version),),
            )
            conn.execute(
                "INSERT INTO cells (key, status, protocol, metrics_json, updated_at) "
                "VALUES (?, 'done', 'n+', ?, 0.0)",
                ("a" * 64, json.dumps(_metrics().to_dict())),
            )
        conn.close()
        before = _file_state(path)
        with pytest.raises(ConfigurationError, match=f"{relation} than this build"):
            ResultsStore(tmp_path)
        assert _file_state(path) == before
        assert before[1] == "delete"
        # Refused, not quarantined: the file stays where it was, alone.
        assert sorted(p.name for p in tmp_path.iterdir()) == [STORE_FILENAME]


class TestUnwritableDirectory:
    """An unusable cache location is a clean ConfigurationError with no
    partial files -- not a bare OSError halfway through a sweep."""

    def test_file_in_place_of_the_cache_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        with pytest.raises(ConfigurationError, match="cannot create cache directory"):
            ResultsStore(blocker / "cache")
        assert blocker.read_text() == "i am a file"
        assert list(tmp_path.iterdir()) == [blocker]

    def test_sweep_surfaces_the_configuration_error(self, tmp_path):
        from repro.sim.runner import SimulationConfig as _Config
        from repro.sim.sweep import run_sweep

        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        with pytest.raises(ConfigurationError, match="cache directory"):
            run_sweep(
                "three-pair",
                ["n+"],
                n_runs=1,
                config=_Config(duration_us=4000.0, n_subcarriers=4),
                cache_dir=blocker / "cache",
            )
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory modes")
    def test_readonly_directory(self, tmp_path):
        readonly = tmp_path / "readonly"
        readonly.mkdir()
        readonly.chmod(0o500)
        try:
            with pytest.raises(ConfigurationError):
                ResultsStore(readonly)
        finally:
            readonly.chmod(0o700)
