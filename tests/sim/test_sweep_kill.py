"""Kill-based interruption tests for durable sweeps (slow).

These drive the real failure paths the durable-sweep layer exists for:

* a worker process SIGKILLed mid-cell (the OOM-killer case) -- the
  supervisor must replace it, re-queue the cell, and finish the sweep
  with byte-identical metrics;
* the sweep *parent* interrupted (SIGINT), terminated (SIGTERM) or
  silently killed (SIGKILL) in a real subprocess -- the store must come
  back uncorrupted, with no cell stuck `running`, and `resume=True`
  must complete the sweep byte-identically to an uninterrupted run.

Everything here is marked slow (subprocesses, polling, multi-second
sweeps); `make test-fast` skips it, the full suite runs it.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import cell_count
from repro.sim.runner import SimulationConfig
from repro.sim.store import ResultsStore
from repro.sim.sweep import run_sweep

pytestmark = pytest.mark.slow

FAST = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)

#: Grid of the subprocess-driven parent-kill tests (big enough that the
#: driver is still mid-sweep when the signal lands).
GRID = dict(n_runs=10, seed=4)
GRID_CONFIG = SimulationConfig(duration_us=50_000.0, n_subcarriers=8)
GRID_PROTOCOLS = ["802.11n", "n+"]
GRID_CELLS = GRID["n_runs"] * len(GRID_PROTOCOLS)

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_DRIVER = """
import sys
from repro.sim.runner import SimulationConfig
from repro.sim.sweep import run_sweep

run_sweep(
    "three-pair",
    {protocols!r},
    n_runs={n_runs},
    seed={seed},
    config=SimulationConfig(duration_us={duration_us}, n_subcarriers={n_subcarriers}),
    cache_dir=sys.argv[1],
    workers=2,
)
print("SWEEP-COMPLETED")
"""


def _as_dicts(results):
    return {
        protocol: [m.to_dict() if m is not None else None for m in runs]
        for protocol, runs in results.items()
    }


@pytest.fixture(scope="module")
def uninterrupted_grid():
    """The kill-test grid computed once, without any interruption."""
    result = run_sweep(
        "three-pair", GRID_PROTOCOLS, config=GRID_CONFIG, workers=2, **GRID
    )
    return _as_dicts(result.results)


def _suicidal_build_network(marker_path):
    """A build_network wrapper whose first caller SIGKILLs its process."""
    from repro.sim.runner import build_network as real_build_network

    def building(scenario, run_seed, config):
        try:
            fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return real_build_network(scenario, run_seed, config)
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)

    return building


class TestWorkerKill:
    def test_sigkilled_worker_is_absorbed_and_results_match_serial(
        self, tmp_path, monkeypatch
    ):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork so workers inherit the monkeypatch")
        import repro.sim.sweep as sweep_module

        monkeypatch.setattr(
            sweep_module,
            "build_network",
            _suicidal_build_network(str(tmp_path / "killed-once")),
        )
        result = run_sweep(
            "three-pair",
            ["802.11n", "n+"],
            n_runs=3,
            seed=4,
            config=FAST,
            workers=2,
            cache_dir=tmp_path / "store",
        )
        assert result.failures == []
        assert result.worker_deaths == 1
        monkeypatch.undo()
        serial = run_sweep("three-pair", ["802.11n", "n+"], n_runs=3, seed=4, config=FAST)
        assert _as_dicts(result.results) == _as_dicts(serial.results)
        store = ResultsStore(tmp_path / "store")
        assert cell_count(store, "done") == 6
        assert cell_count(store, "running") == cell_count(store, "pending") == 0
        assert store.get_sweep(result.sweep_id).status == "done"


def _launch_driver(cache_dir):
    script = _DRIVER.format(
        protocols=GRID_PROTOCOLS,
        n_runs=GRID["n_runs"],
        seed=GRID["seed"],
        duration_us=GRID_CONFIG.duration_us,
        n_subcarriers=GRID_CONFIG.n_subcarriers,
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SRC + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [sys.executable, "-c", script, str(cache_dir)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for_progress(cache_dir, min_done=2, timeout_s=60.0):
    """Poll the store (WAL allows concurrent reads) until cells finish."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if (Path(cache_dir) / "results.sqlite").exists():
            store = ResultsStore(cache_dir)
            done = cell_count(store, "done")
            store.close()
            if done >= min_done:
                return done
        time.sleep(0.02)
    raise AssertionError("driver sweep made no progress before the timeout")


class TestParentKill:
    @pytest.mark.parametrize(
        "signum, expects_checkpoint",
        [
            (signal.SIGINT, True),
            (signal.SIGTERM, True),
            (signal.SIGKILL, False),  # no chance to checkpoint: hard death
        ],
    )
    def test_killed_parent_leaves_a_resumable_store(
        self, tmp_path, uninterrupted_grid, signum, expects_checkpoint
    ):
        proc = _launch_driver(tmp_path)
        try:
            _wait_for_progress(tmp_path)
            proc.send_signal(signum)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode != 0, stderr
        assert "SWEEP-COMPLETED" not in stdout, "sweep finished before the signal"
        if signum == signal.SIGTERM:
            # The handler checkpoints, then re-delivers SIGTERM so the
            # process dies with the genuine signal disposition.
            assert proc.returncode == -signal.SIGTERM

        store = ResultsStore(tmp_path)
        sweeps = store.sweeps()
        assert len(sweeps) == 1
        done_before = cell_count(store, "done")
        assert 0 < done_before < GRID_CELLS
        if expects_checkpoint:
            assert sweeps[0].status == "interrupted"
            # The checkpoint flushed every in-flight cell back to pending.
            assert cell_count(store, "running") == 0
            assert cell_count(store, "pending") == GRID_CELLS - done_before
        else:
            # SIGKILL: no checkpoint could run; whatever state was
            # committed is still consistent, and begin_sweep reclaims
            # any orphaned `running` rows on resume.
            assert sweeps[0].status == "running"
        store.close()

        resumed = run_sweep(
            "three-pair",
            GRID_PROTOCOLS,
            config=GRID_CONFIG,
            cache_dir=tmp_path,
            workers=2,
            resume=True,
            **GRID,
        )
        assert resumed.failures == []
        assert resumed.cache_hits == done_before
        assert resumed.cache_misses == GRID_CELLS - done_before
        assert _as_dicts(resumed.results) == uninterrupted_grid

        store = ResultsStore(tmp_path)
        assert store.get_sweep(resumed.sweep_id).status == "done"
        assert cell_count(store, "done") == GRID_CELLS
        assert cell_count(store, "running") == cell_count(store, "pending") == 0
