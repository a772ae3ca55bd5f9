"""Durable SQLite-backed results store for sweep cells.

:class:`ResultsStore` is the persistence layer of
:func:`~repro.sim.sweep.run_sweep`: cells keyed by the sweep's
``(scenario, protocol, run seed, resolved run spec, schema version)``
digest, ``load_many``/``store`` returning and accepting
:class:`~repro.sim.metrics.NetworkMetrics`, unreadable state treated as
a miss.  It provides

* **durability**: one WAL-mode SQLite database, written in short atomic
  transactions, so a crashed or killed sweep process can never leave a
  torn cell (SQLite's journal guarantees a reader sees the last
  committed row);
* **a cell state machine**: every cell of a sweep is a row that moves
  ``pending -> running -> done`` (or ``failed``), which is what makes a
  sweep *resumable* -- a re-invocation sees exactly which cells still
  need computing;
* **sweep manifests**: :meth:`begin_sweep` records the full grid
  (scenario, fingerprint, protocols, seeds, run spec) up front under a
  manifest digest, so ``--resume`` can verify it is continuing the same
  sweep and ``repro results`` can enumerate past sweeps;
* **queries across sweeps**: cells carry their coordinates (scenario,
  protocol, run, run seed, config digest) as indexed columns, so the
  store answers "all done n+ cells on dense-lan-50" without touching
  the metrics payloads.

Concurrency model: only the sweep *parent* process touches the store
(workers ship metrics back over pipes), so a single connection per
store suffices; WAL mode plus a generous busy timeout make concurrent
sweeps sharing one cache directory safe, if serialised at commit time.
Opening a store of the current layout writes nothing, and neither does
a warm replay (see :func:`~repro.sim.sweep.run_sweep`), so a session
that only reads -- a replay, ``repro results`` -- never waits on another
sweep's write lock and closes with no checkpoint to sync.  A manifest's
``updated_at`` is therefore its last write, not its last read.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.sim.metrics import NetworkMetrics

__all__ = [
    "ResultsStore",
    "CellRecord",
    "SweepRecord",
    "STORE_FILENAME",
    "STORE_SCHEMA_VERSION",
    "store_path",
]

#: Filename of the database inside a cache directory.
STORE_FILENAME = "results.sqlite"

#: Seconds a write waits on another connection's write lock before
#: SQLite raises "database is locked".
_BUSY_TIMEOUT_S = 30.0

#: Version of the store's *table layout* (independent of the cell-key
#: schema version, which lives in :mod:`repro.sim.sweep` and is part of
#: every cell key).  An on-disk store with any other layout is refused
#: rather than guessed at: a newer one needs a newer build, an older one
#: the build that wrote it.
#: 2: failed cells carry ``traceback`` and the path of a per-failure file.
#: 3: that path is gone: a failed row and its sweep's manifest are the
#:    record a failed cell replays from.
STORE_SCHEMA_VERSION = 3

#: The ``cells`` table holds the cell state machine: manifest rows start
#: ``pending``, move to ``running`` when shipped to a worker, and finish
#: ``done`` (metrics attached) or ``failed`` (error attached).  An
#: interrupted sweep's checkpoint resets ``running`` rows to ``pending``
#: so a resume recomputes exactly the unfinished cells.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    sweep_id      TEXT PRIMARY KEY,
    manifest_json TEXT NOT NULL,
    status        TEXT NOT NULL CHECK (status IN ('running','interrupted','done')),
    created_at    REAL NOT NULL,
    updated_at    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
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
    traceback            TEXT,
    updated_at           REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cells_coords ON cells (scenario, protocol, status);
CREATE INDEX IF NOT EXISTS idx_cells_sweep  ON cells (sweep_id, status);
"""

_DESCRIBE_COLUMNS = (
    "scenario",
    "scenario_fingerprint",
    "protocol",
    "run",
    "run_seed",
    "config_digest",
)


@dataclass(frozen=True)
class CellRecord:
    """One cell row, metrics left as the raw JSON payload (lazy parse)."""

    key: str
    status: str
    scenario: Optional[str]
    protocol: Optional[str]
    run: Optional[int]
    run_seed: Optional[int]
    config_digest: Optional[str]
    sweep_id: Optional[str]
    error: Optional[str]
    updated_at: float
    metrics_json: Optional[str] = None
    traceback: Optional[str] = None


@dataclass(frozen=True)
class SweepRecord:
    """One recorded sweep manifest plus its lifecycle status."""

    sweep_id: str
    manifest: dict
    status: str
    created_at: float
    updated_at: float

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "SweepRecord":
        """The record of one ``sweeps`` table row."""
        return cls(
            sweep_id=row["sweep_id"],
            manifest=json.loads(row["manifest_json"]),
            status=row["status"],
            created_at=row["created_at"],
            updated_at=row["updated_at"],
        )


def store_path(root: Union[str, Path]) -> Path:
    """The database file of the results store at ``root``.

    ``root`` is the cache directory (the database lives at
    ``root/results.sqlite``) or a direct path to a ``.sqlite``/``.db``
    file.
    """
    root = Path(root)
    return root if root.suffix in (".sqlite", ".db") else root / STORE_FILENAME


class ResultsStore:
    """SQLite results store of sweep cells.

    ``root`` is a cache directory or a database file (see
    :func:`store_path`).  Opening is self-healing: a file SQLite refuses
    to read is set aside as ``*.corrupt.<pid>`` and a fresh store is
    created -- the corrupt-entry-as-miss policy at whole-store
    granularity.  A store SQLite can read but not use now (an
    :class:`sqlite3.OperationalError`, e.g. locked by another
    connection past the busy timeout) raises and stays in place.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.path = store_path(root)
        self.root = self.path.parent
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # An uncreatable cache directory (read-only filesystem, a
            # file where a directory was expected) is a configuration
            # problem, reported cleanly before any file is touched.
            raise ConfigurationError(
                f"cannot create cache directory {self.root}: {exc}"
            ) from exc
        self._conn = self._open()

    # -- connection lifecycle ----------------------------------------------

    def _open(self) -> sqlite3.Connection:
        try:
            return self._connect()
        except sqlite3.DatabaseError as exc:
            if not self.path.exists():
                # SQLite could not even create the file: an unwritable
                # directory, not a corrupt store.  Nothing partial was
                # written; report the configuration problem cleanly.
                raise ConfigurationError(
                    f"cannot create results store at {self.path}: {exc}"
                ) from exc
            if isinstance(exc, sqlite3.OperationalError):
                # The file is fine but SQLite could not use it now -- most
                # often another connection held the write lock past the
                # busy timeout -- so it stays where it is.
                raise
            # An unreadable database (torn beyond WAL recovery, or not
            # SQLite at all) is set aside, not fatal: the cells it held
            # become misses.
            quarantine = self.path.with_suffix(f".corrupt.{os.getpid()}")
            try:
                os.replace(self.path, quarantine)
            except OSError as err:
                # Cannot even move the file aside (read-only directory):
                # surface the underlying problem instead of retrying.
                raise ConfigurationError(
                    f"results store at {self.path} is unreadable and cannot "
                    f"be quarantined: {err}"
                ) from err
            for sidecar in (self.path.parent / (self.path.name + "-wal"),
                            self.path.parent / (self.path.name + "-shm")):
                sidecar.unlink(missing_ok=True)
            return self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S)
        conn.row_factory = sqlite3.Row
        # The layout is read before anything is written, so a refused
        # store is left exactly as found; the refusal is not a
        # DatabaseError, so _open() never quarantines it either.
        has_meta = conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='store_meta'"
        ).fetchall()
        rows = has_meta and conn.execute(
            "SELECT value FROM store_meta WHERE key='store_schema'"
        ).fetchall()
        if rows and int(rows[0]["value"]) != STORE_SCHEMA_VERSION:
            conn.close()
            version = int(rows[0]["value"])
            relation = "newer" if version > STORE_SCHEMA_VERSION else "older"
            raise ConfigurationError(
                f"results store {self.path} uses layout version {version}, "
                f"{relation} than this build's {STORE_SCHEMA_VERSION}; "
                "use a build of that layout or a fresh cache directory"
            )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        if not rows:
            # Only a new store is laid out and stamped: opening a current
            # one writes nothing (see the concurrency model above).
            with conn:
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT OR IGNORE INTO store_meta (key, value) "
                    "VALUES ('store_schema', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
        return conn

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cell interface ----------------------------------------------------

    def load_many(self, keys: Sequence[str]) -> Dict[str, NetworkMetrics]:
        """The cached metrics for every hit among ``keys``.

        Only ``done`` cells hit; ``pending``/``running``/``failed`` rows
        (and unparseable payloads) are misses, absent from the returned
        mapping, so a previously failed or interrupted cell is
        recomputed, never replayed.  One batched ``SELECT`` instead of a
        round-trip per cell -- the warm-replay fast path.
        """
        hits: Dict[str, NetworkMetrics] = {}
        chunk_size = 500  # stay well under SQLite's bound-variable limit
        for start in range(0, len(keys), chunk_size):
            chunk = list(keys[start : start + chunk_size])
            placeholders = ",".join("?" * len(chunk))
            try:
                rows = self._conn.execute(
                    f"SELECT key, metrics_json FROM cells WHERE status='done' "
                    f"AND key IN ({placeholders})",
                    chunk,
                ).fetchall()
            except sqlite3.DatabaseError:
                continue
            for row in rows:
                if row["metrics_json"] is None:
                    continue
                try:
                    hits[row["key"]] = NetworkMetrics.from_dict(
                        json.loads(row["metrics_json"])
                    )
                except (ValueError, KeyError, TypeError):
                    continue
        return hits

    def store(self, key: str, metrics: NetworkMetrics, describe: dict) -> None:
        """Persist one finished cell atomically (upsert to ``done``)."""
        self._upsert(
            key,
            status="done",
            describe=describe,
            metrics_json=json.dumps(metrics.to_dict(), sort_keys=True),
            error=None,
        )

    # -- cell state machine -------------------------------------------------

    def _upsert(
        self,
        key: str,
        status: str,
        describe: dict,
        metrics_json: Optional[str],
        error: Optional[str],
        traceback: Optional[str] = None,
    ) -> None:
        """Write a cell's outcome; an existing row keeps its ``sweep_id``."""
        values = {col: describe.get(col) for col in _DESCRIBE_COLUMNS}
        with self._conn:
            self._conn.execute(
                "INSERT INTO cells (key, status, scenario, scenario_fingerprint, "
                "protocol, run, run_seed, config_digest, metrics_json, "
                "error, traceback, updated_at) "
                "VALUES (?,?,?,?,?,?,?,?,?,?,?,?) "
                "ON CONFLICT(key) DO UPDATE SET status=excluded.status, "
                "scenario=excluded.scenario, "
                "scenario_fingerprint=excluded.scenario_fingerprint, "
                "protocol=excluded.protocol, run=excluded.run, "
                "run_seed=excluded.run_seed, config_digest=excluded.config_digest, "
                "metrics_json=excluded.metrics_json, error=excluded.error, "
                "traceback=excluded.traceback, "
                "updated_at=excluded.updated_at",
                (
                    key,
                    status,
                    values["scenario"],
                    values["scenario_fingerprint"],
                    values["protocol"],
                    values["run"],
                    values["run_seed"],
                    values["config_digest"],
                    metrics_json,
                    error,
                    traceback,
                    time.time(),
                ),
            )

    def mark_running(self, keys: Sequence[str]) -> None:
        """Move cells to ``running`` (shipped to a worker)."""
        now = time.time()
        with self._conn:
            self._conn.executemany(
                "UPDATE cells SET status='running', updated_at=? WHERE key=?",
                [(now, key) for key in keys],
            )

    def mark_pending(self, keys: Sequence[str]) -> None:
        """Move cells back to ``pending`` (re-queued / checkpointed)."""
        now = time.time()
        with self._conn:
            self._conn.executemany(
                "UPDATE cells SET status='pending', updated_at=? WHERE key=?",
                [(now, key) for key in keys],
            )

    def mark_failed(
        self, key: str, error: str, describe: dict, traceback: Optional[str] = None
    ) -> None:
        """Record a cell whose computation failed, with its traceback
        (``None`` only for a cell whose worker died on every try).  The
        row is the failure's record: ``repro replay`` rebuilds the cell
        from it and its sweep's manifest."""
        self._upsert(key, status="failed", describe=describe,
                     metrics_json=None, error=error, traceback=traceback)

    # -- sweep manifests / checkpointing ------------------------------------

    def begin_sweep(
        self,
        sweep_id: str,
        manifest: dict,
        cells: Sequence[Tuple[str, dict]],
    ) -> None:
        """Record a sweep manifest and materialise its cell rows.

        Every grid cell not yet in the store is inserted ``pending``;
        cells that already exist keep their state (``done`` cells are
        the resume/cache hits, ``failed`` cells will be retried once the
        miss scan queues them).  Any ``running`` rows belonging to this
        manifest are reset to ``pending`` -- they can only be leftovers
        of a sweep process that died without checkpointing.
        """
        now = time.time()
        with self._conn:
            self._conn.execute(
                "INSERT INTO sweeps (sweep_id, manifest_json, status, created_at, "
                "updated_at) VALUES (?,?,?,?,?) "
                "ON CONFLICT(sweep_id) DO UPDATE SET status='running', updated_at=?",
                (sweep_id, json.dumps(manifest, sort_keys=True), "running", now,
                 now, now),
            )
            self._conn.executemany(
                "INSERT INTO cells (key, status, scenario, scenario_fingerprint, "
                "protocol, run, run_seed, config_digest, sweep_id, metrics_json, "
                "error, updated_at) VALUES (?,?,?,?,?,?,?,?,?,?,?,?) "
                "ON CONFLICT(key) DO UPDATE SET sweep_id=excluded.sweep_id, "
                "updated_at=excluded.updated_at",
                [
                    (
                        key,
                        "pending",
                        describe.get("scenario"),
                        describe.get("scenario_fingerprint"),
                        describe.get("protocol"),
                        describe.get("run"),
                        describe.get("run_seed"),
                        describe.get("config_digest"),
                        sweep_id,
                        None,
                        None,
                        now,
                    )
                    for key, describe in cells
                ],
            )
            self._requeue_running(sweep_id, now)

    def _requeue_running(self, sweep_id: str, now: float) -> None:
        """Move the manifest's ``running`` cells back to ``pending``."""
        self._conn.execute(
            "UPDATE cells SET status='pending', updated_at=? "
            "WHERE sweep_id=? AND status='running'",
            (now, sweep_id),
        )

    def checkpoint_sweep(self, sweep_id: str, status: str = "interrupted") -> None:
        """Flush an interrupted sweep to a resumable state.

        All of the manifest's ``running`` cells go back to ``pending``
        (their workers are gone; the results were either stored already
        or lost with the worker) and the sweep row records ``status``.
        """
        now = time.time()
        with self._conn:
            self._requeue_running(sweep_id, now)
            self._conn.execute(
                "UPDATE sweeps SET status=?, updated_at=? WHERE sweep_id=?",
                (status, now, sweep_id),
            )

    def finish_sweep(self, sweep_id: str) -> None:
        """Mark a sweep's manifest complete."""
        with self._conn:
            self._conn.execute(
                "UPDATE sweeps SET status='done', updated_at=? WHERE sweep_id=?",
                (time.time(), sweep_id),
            )

    def get_sweep(self, sweep_id: str) -> Optional[SweepRecord]:
        """The recorded manifest for ``sweep_id``, or ``None``."""
        row = self._conn.execute(
            "SELECT * FROM sweeps WHERE sweep_id=?", (sweep_id,)
        ).fetchone()
        return None if row is None else SweepRecord.from_row(row)

    def sweeps(self) -> List[SweepRecord]:
        """All recorded sweep manifests, most recently written first."""
        rows = self._conn.execute(
            "SELECT * FROM sweeps ORDER BY updated_at DESC"
        ).fetchall()
        return [SweepRecord.from_row(row) for row in rows]

    # -- cross-sweep queries -------------------------------------------------

    def query(
        self,
        scenario: Optional[str] = None,
        protocol: Optional[str] = None,
        status: Optional[str] = None,
        sweep_id: Optional[str] = None,
        with_metrics: bool = False,
    ) -> List[CellRecord]:
        """Cells matching the given coordinates, across all sweeps.

        Filters compose with AND; ``with_metrics`` attaches the raw
        metrics JSON (parse lazily via :meth:`CellRecord.metrics`).
        Rows come back ordered by (scenario, protocol, run) so query
        output -- and the ``repro results`` tables built from it -- is
        deterministic.
        """
        clauses, params = [], []
        for column, value in (
            ("scenario", scenario),
            ("protocol", protocol),
            ("status", status),
            ("sweep_id", sweep_id),
        ):
            if value is not None:
                clauses.append(f"{column}=?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        columns = (
            "key, status, scenario, scenario_fingerprint, protocol, run, "
            "run_seed, config_digest, sweep_id, error, traceback, updated_at"
        )
        if with_metrics:
            columns += ", metrics_json"
        rows = self._conn.execute(
            f"SELECT {columns} FROM cells{where} "
            "ORDER BY scenario, protocol, run, key",
            params,
        ).fetchall()
        return [
            CellRecord(
                key=row["key"],
                status=row["status"],
                scenario=row["scenario"],
                protocol=row["protocol"],
                run=row["run"],
                run_seed=row["run_seed"],
                config_digest=row["config_digest"],
                sweep_id=row["sweep_id"],
                error=row["error"],
                traceback=row["traceback"],
                updated_at=row["updated_at"],
                metrics_json=row["metrics_json"] if with_metrics else None,
            )
            for row in rows
        ]

    def summary(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """``{(scenario, protocol): {status: count}}`` across the store."""
        rows = self._conn.execute(
            "SELECT scenario, protocol, status, COUNT(*) AS n FROM cells "
            "GROUP BY scenario, protocol, status "
            "ORDER BY scenario, protocol, status"
        ).fetchall()
        out: Dict[Tuple[str, str], Dict[str, int]] = {}
        for row in rows:
            coords = (row["scenario"] or "?", row["protocol"] or "?")
            out.setdefault(coords, {})[row["status"]] = int(row["n"])
        return out
