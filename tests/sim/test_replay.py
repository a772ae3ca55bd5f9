"""A failed cell's store row is the record of its failure: the sweep
records the error and the traceback there, and
:func:`~repro.sim.sweep.replay_failed_cell` (``repro replay --cache-dir
DIR KEY``) rebuilds the cell from the row and its sweep's manifest,
simulates it again and reports whether the failure reproduced."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import cli
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.nplus import NPlusMac
from repro.mac.variants import _VARIANTS, ProtocolVariant
from repro.sim import invariants as invariants_module
from repro.sim.faults import FAULT_PROFILES, FaultProfile, FaultSchedule
from repro.sim.invariants import invariant
from repro.sim.runner import SimulationConfig
from repro.sim.scenarios import _SCENARIOS, dense_lan_scenario, register_scenario
from repro.sim.store import ResultsStore
from repro.sim.sweep import replay_failed_cell, run_sweep

FAST = SimulationConfig(duration_us=4000.0, n_subcarriers=4)


class CrashMac(NPlusMac):
    """An n+ agent that dies the moment it wins the floor."""

    protocol_name = "crashy"

    def plan_initial(self, *args, **kwargs):
        raise RuntimeError("injected crash for replay tests")


def _set_crashy(monkeypatch, agent_class):
    """Point the ``crashy`` protocol at ``agent_class`` for one test."""
    monkeypatch.setitem(
        _VARIANTS, "crashy", ProtocolVariant("crashy", agent_class, supports_joining=True)
    )


@pytest.fixture
def crashy_protocol(monkeypatch):
    _set_crashy(monkeypatch, CrashMac)
    return "crashy"


def _crashy_sweep(tmp_path, **kwargs):
    defaults = dict(
        scenario="three-pair",
        protocols=["crashy"],
        n_runs=1,
        seed=3,
        config=FAST,
        workers=1,
        cache_dir=tmp_path,
    )
    defaults.update(kwargs)
    return run_sweep(**defaults)


def _failed_rows(cache_dir):
    with ResultsStore(cache_dir) as store:
        return store.query(status="failed")


def _replay(cache_dir, key):
    return replay_failed_cell(cache_dir, key, "full")


class TestFailedRows:
    def test_a_failed_row_carries_the_error_and_the_traceback(
        self, tmp_path, crashy_protocol
    ):
        result = _crashy_sweep(tmp_path)
        (failure,) = result.failures
        assert "injected crash" in failure.traceback
        (row,) = _failed_rows(tmp_path)
        assert row.key == failure.key
        assert row.error == failure.error == "RuntimeError: injected crash for replay tests"
        assert row.traceback == failure.traceback
        assert (row.protocol, row.run, row.run_seed) == ("crashy", 0, 3)

    def test_no_cache_dir_still_keeps_the_traceback(self, crashy_protocol):
        (failure,) = _crashy_sweep(None, cache_dir=None).failures
        assert "injected crash" in failure.traceback
        assert len(failure.key) == 64

    def test_crash_is_isolated_to_the_failing_protocol(self, tmp_path, crashy_protocol):
        # n+ shares the run's network draw with the crashing protocol but
        # must complete -- and must not get a failed row.
        result = _crashy_sweep(tmp_path, protocols=["n+", "crashy"])
        assert [f.protocol for f in result.failures] == ["crashy"]
        (metrics,) = result.results["n+"]
        assert metrics is not None
        assert result.results["crashy"] == [None]
        assert [row.protocol for row in _failed_rows(tmp_path)] == ["crashy"]
        assert _replay(tmp_path, result.failures[0].key).reproduced

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_ship_the_traceback(self, tmp_path, crashy_protocol, workers):
        def sweep(cache_dir, n_workers):
            return _crashy_sweep(
                cache_dir, protocols=["n+", "crashy"], n_runs=2, workers=n_workers
            )

        result = sweep(tmp_path / "this", workers)
        other = sweep(tmp_path / "other", 3 - workers)
        assert sorted(f.protocol for f in result.failures) == ["crashy", "crashy"]
        # In process or in a worker, a failure is recorded identically --
        # only the traceback text (its frames) may differ.
        assert _failure_fields(result) == _failure_fields(other)
        for failure in result.failures:
            assert "injected crash" in failure.traceback
            assert _replay(tmp_path / "this", failure.key).reproduced
        assert all(m is not None for m in result.results["n+"])


def _failure_fields(result):
    """Every FailedCell field except the traceback text, in cell order
    (worker processes settle cells in any order)."""
    fields = []
    for failure in sorted(result.failures, key=lambda f: (f.run, f.protocol)):
        cell = dataclasses.asdict(failure)
        del cell["traceback"]
        fields.append(cell)
    return fields


def _overcrowded_scenario():
    """30 stations on the 20-location default floor: the network draw
    raises before any protocol is simulated."""
    return dataclasses.replace(
        dense_lan_scenario(n_pairs=15, seed=0), testbed_factory=None
    )


@pytest.fixture
def overcrowded():
    """:func:`_overcrowded_scenario` registered as ``"overcrowded"``."""
    register_scenario("overcrowded", _overcrowded_scenario)
    yield "overcrowded"
    _SCENARIOS.pop("overcrowded")


class TestTaskLevelCrashes:
    """A crash outside the per-protocol simulation -- here in the network
    draw -- fails the whole task, and its traceback must reach the failed
    cells and the store rows on every worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_network_draw_crash_keeps_its_traceback(self, tmp_path, workers, overcrowded):
        result = run_sweep(
            overcrowded,
            ["n+"],
            n_runs=2,
            seed=0,
            config=FAST,
            workers=workers,
            cache_dir=tmp_path,
        )
        assert result.workers == workers
        assert len(result.failures) == 2
        for failure in result.failures:
            assert "place_nodes" in failure.traceback
        rows = _failed_rows(tmp_path)
        assert len(rows) == 2
        assert all("place_nodes" in row.traceback for row in rows)
        assert _replay(tmp_path, rows[0].key).reproduced


class TestReplay:
    def test_replay_reproduces_the_recorded_crash(self, tmp_path, crashy_protocol):
        key = _crashy_sweep(tmp_path).failures[0].key
        outcome = _replay(tmp_path, key[:12])
        assert outcome.reproduced and outcome.key_matched
        assert outcome.error.startswith("RuntimeError: ")
        assert "injected crash" in outcome.traceback
        assert outcome.cell.run_spec.validation == "full"

    def test_replay_is_deterministic(self, tmp_path, crashy_protocol):
        key = _crashy_sweep(tmp_path).failures[0].key
        first = _replay(tmp_path, key)
        second = _replay(tmp_path, key)
        assert first.reproduced and second.reproduced
        assert first.error == second.error

    def test_replay_of_a_fixed_crash_reports_not_reproduced(
        self, tmp_path, crashy_protocol, monkeypatch
    ):
        # the "bug" gets fixed: the cell's protocol now runs clean
        key = _crashy_sweep(tmp_path).failures[0].key
        _set_crashy(monkeypatch, NPlusMac)
        outcome = _replay(tmp_path, key)
        assert not outcome.reproduced
        assert outcome.key_matched
        assert outcome.error is None
        assert np.isfinite(outcome.metrics.total_throughput_mbps())

    def test_replay_re_derives_a_faulty_profiles_schedule(
        self, tmp_path, crashy_protocol
    ):
        config = dataclasses.replace(FAST, duration_us=20000.0)
        result = _crashy_sweep(tmp_path, scenario="dense-lan-20-faulty", config=config)
        outcome = _replay(tmp_path, result.failures[0].key)
        assert outcome.cell.run_spec.fault_profile == "mixed"
        assert outcome.key_matched and outcome.reproduced

    def test_a_traced_cell_replays_after_its_trace_file_is_gone(
        self, tmp_path, crashy_protocol
    ):
        trace = tmp_path / "trace.json"
        episodes = [
            {"type": "loss", "start_us": 0.0, "duration_us": 3000.0, "loss_rate": 0.5},
            {"type": "fade", "start_us": 500.0, "duration_us": 1000.0, "tx_id": 0,
             "rx_id": 1, "depth_db": 20.0},
        ]
        trace.write_text(json.dumps(episodes))
        config = dataclasses.replace(FAST, fault_trace=str(trace))
        result = _crashy_sweep(tmp_path / "cache", config=config)
        trace.unlink()
        outcome = _replay(tmp_path / "cache", result.failures[0].key)
        assert outcome.key_matched and outcome.reproduced
        assert list(outcome.cell.run_spec.trace_episodes) == (
            FaultSchedule.from_jsonable(episodes).episodes
        )
        with ResultsStore(tmp_path / "cache") as store:
            (record,) = store.sweeps()
        assert record.manifest["trace_episodes"] == (
            FaultSchedule.from_jsonable(episodes).to_jsonable()
        )

    def test_an_untraced_manifest_holds_no_episodes(self, tmp_path, crashy_protocol):
        _crashy_sweep(tmp_path)
        with ResultsStore(tmp_path) as store:
            (record,) = store.sweeps()
        assert "trace_episodes" not in record.manifest

    def test_a_retuned_profile_fails_the_key_check(
        self, tmp_path, crashy_protocol, monkeypatch, capsys
    ):
        config = dataclasses.replace(FAST, duration_us=20000.0)
        key = _crashy_sweep(
            tmp_path, scenario="dense-lan-20-faulty", config=config
        ).failures[0].key
        monkeypatch.setitem(
            FAULT_PROFILES,
            "mixed",
            dataclasses.replace(FAULT_PROFILES["mixed"], fade_rate_per_s=99.0),
        )
        assert not _replay(tmp_path, key).key_matched
        cli.main(["replay", "--cache-dir", str(tmp_path), key[:12]])
        warnings = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("WARNING")
        ]
        assert len(warnings) == 1
        assert "inputs changed since it failed" in warnings[0]

    def test_replay_reproduces_an_invariant_violation(self, tmp_path):
        """A broken conservation law is a cell failure like any crash: its
        row replays under full validation and names the checker."""

        @invariant("always-violated")
        def _violated(suite, loop):
            suite.fail("always-violated", loop, detail="injected")

        try:
            result = run_sweep(
                "three-pair",
                ["n+"],
                n_runs=1,
                seed=3,
                config=dataclasses.replace(FAST, validation="cheap"),
                cache_dir=tmp_path,
            )
            outcome = _replay(tmp_path, result.failures[0].key)
        finally:
            del invariants_module._REGISTRY["always-violated"]
        assert outcome.reproduced
        assert outcome.error.startswith("InvariantViolation: ")
        assert "always-violated" in outcome.error

    def test_a_strict_sweep_closes_its_store_when_it_raises(
        self, tmp_path, crashy_protocol, monkeypatch
    ):
        closed = []
        close = ResultsStore.close
        monkeypatch.setattr(
            ResultsStore, "close", lambda store: (closed.append(store), close(store))
        )
        with pytest.raises(SimulationError):
            _crashy_sweep(tmp_path, strict=True)
        assert len(closed) == 1

    def test_an_unknown_or_ambiguous_key_is_refused(self, tmp_path):
        with ResultsStore(tmp_path) as store:
            for key in ("ab" + "0" * 62, "ab" + "1" * 62):
                store.mark_failed(key, "RuntimeError: boom", {})
        with pytest.raises(ConfigurationError, match="no failed cell"):
            _replay(tmp_path, "ff")
        with pytest.raises(ConfigurationError, match="2 failed cells"):
            _replay(tmp_path, "ab")
        with pytest.raises(ConfigurationError, match="no results store"):
            _replay(tmp_path / "elsewhere", "ab")
        assert not (tmp_path / "elsewhere").exists()


class TestCli:
    def test_sweep_exits_nonzero_and_prints_keys_and_the_replay_command(
        self, tmp_path, crashy_protocol, capsys
    ):
        rc = cli.main(
            [
                "sweep",
                "--scenario", "three-pair",
                "--protocols", "crashy",
                "--runs", "1",
                "--duration-ms", "4",
                "--subcarriers", "4",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        (row,) = _failed_rows(tmp_path)
        assert f"FAILED cell {row.key[:12]}: protocol=crashy" in out
        assert f"replay --cache-dir {tmp_path} {row.key[:12]}" in out

    def test_replay_command_round_trips(self, tmp_path, crashy_protocol, capsys):
        key = _crashy_sweep(tmp_path).failures[0].key
        rc = cli.main(["replay", "--cache-dir", str(tmp_path), key[:12]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reproduced: RuntimeError" in out
        assert "WARNING" not in out

    def test_replay_of_a_clean_cell_exits_nonzero(
        self, tmp_path, crashy_protocol, capsys, monkeypatch
    ):
        key = _crashy_sweep(tmp_path).failures[0].key
        _set_crashy(monkeypatch, NPlusMac)
        rc = cli.main(["replay", "--cache-dir", str(tmp_path), key])
        assert rc == 1
        assert "NOT reproduced" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["replay"], "needs --cache-dir"),
            (["replay", "--cache-dir", "{tmp}"], "key"),
            (["replay", "--cache-dir", "{tmp}", "ffff"], "no failed cell"),
            (["replay", "--cache-dir", "{tmp}/elsewhere", "ffff"], "no results store"),
        ],
        ids=["no-store", "no-key", "unknown-key", "missing-store"],
    )
    def test_bad_replay_arguments_exit_2(
        self, tmp_path, crashy_protocol, capsys, argv, match
    ):
        _crashy_sweep(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([arg.format(tmp=tmp_path) for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and err.count("\n") == 1
        assert match in err

    def test_results_lists_failed_cells(self, tmp_path, crashy_protocol, capsys):
        _crashy_sweep(tmp_path)
        rc = cli.main(["results", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        (row,) = _failed_rows(tmp_path)
        assert "crashy" in out and row.key[:12] in out
        assert "replay --cache-dir" in out


class TestExtremeFadeAcceptance:
    """A sweep whose fades drive the channel to ~zero completes with zero
    crashed cells -- the guards degrade, quarantine and keep going
    instead of raising LinAlgError."""

    def test_extreme_fade_sweep_has_zero_failures(self, monkeypatch):
        profile = FaultProfile(
            fade_rate_per_s=400.0,
            fade_depth_db=(280.0, 320.0),  # ~1e-15 amplitude scale
            fade_duration_us=(5000.0, 20000.0),
        )
        monkeypatch.setitem(FAULT_PROFILES, "extreme-fade", profile)
        config = SimulationConfig(
            duration_us=20000.0,
            n_subcarriers=4,
            fault_profile="extreme-fade",
        )
        result = run_sweep(
            "dense-lan-50-faulty",
            ["n+"],
            n_runs=1,
            seed=11,
            config=config,
            workers=1,
        )
        assert result.failures == []
        (metrics,) = result.results["n+"]
        assert metrics is not None
        assert np.isfinite(metrics.total_throughput_mbps())
        for link in metrics.links.values():
            assert np.isfinite(link.airtime_us)
            assert link.quarantined_rounds >= 0
