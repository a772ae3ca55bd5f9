"""Replayable crash capsules: fault-schedule serialization, capsule
build/write/load, end-to-end capture by the sweep, deterministic
replay, the CLI surface, and the extreme-fade acceptance run."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.exceptions import ConfigurationError, SimulationError
from repro.mac.nplus import NPlusMac
from repro.mac.variants import _VARIANTS, ProtocolVariant
from repro.sim import capsule as capsule_module
from repro.sim import invariants as invariants_module
from repro.sim.capsule import (
    CAPSULE_DIRNAME,
    CAPSULE_SCHEMA_VERSION,
    build_capsule,
    load_capsule,
    replay_capsule,
    write_capsule,
)
from repro.sim.faults import (
    FAULT_PROFILES,
    ChurnEpisode,
    FadeEpisode,
    FaultProfile,
    FaultSchedule,
    LossEpisode,
)
from repro.sim.invariants import invariant
from repro.sim.runner import RunSpec, SimulationConfig
from repro.sim.scenarios import dense_lan_scenario, scenario_factory
from repro.sim.store import ResultsStore
from repro.sim.sweep import Cell, run_sweep, scenario_digest
from repro.mac.variants import resolve_protocol

FAST = SimulationConfig(duration_us=4000.0, n_subcarriers=4)


class CrashMac(NPlusMac):
    """An n+ agent that dies the moment it wins the floor."""

    protocol_name = "crashy"

    def plan_initial(self, *args, **kwargs):
        raise RuntimeError("injected crash for capsule tests")


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


class TestFaultScheduleJsonable:
    def test_round_trips_every_episode_type(self):
        schedule = FaultSchedule(
            [
                FadeEpisode(10.0, 500.0, 1, 2, 20.0),
                LossEpisode(50.0, 100.0, 0.25),
                LossEpisode(60.0, 100.0, 0.5, tx_id=3, rx_id=4),
                ChurnEpisode(70.0, 1000.0, 5),
            ]
        )
        data = schedule.to_jsonable()
        json.dumps(data)  # plain JSON, no numpy leakage
        rebuilt = FaultSchedule.from_jsonable(data)
        assert rebuilt.episodes == schedule.episodes

    def test_unknown_episode_type_names_the_index(self):
        with pytest.raises(ConfigurationError, match="episode 1.*martian"):
            FaultSchedule.from_jsonable(
                [
                    {"type": "churn", "start_us": 0.0, "duration_us": 1.0, "node_id": 1},
                    {"type": "martian", "start_us": 0.0},
                ]
            )

    def test_bad_episode_fields_name_the_index(self):
        with pytest.raises(ConfigurationError, match="episode 0"):
            FaultSchedule.from_jsonable([{"type": "fade", "bogus": 1.0}])
        with pytest.raises(ConfigurationError, match="episode 0"):
            FaultSchedule.from_jsonable(["not-a-dict"])


class TestGitRevision:
    """Capsules record the checkout's revision, loose or packed."""

    SHA = "0123456789abcdef0123456789abcdef01234567"

    def _checkout(self, tmp_path, monkeypatch):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        module = tmp_path / "src" / "repro" / "sim" / "capsule.py"
        monkeypatch.setattr(capsule_module, "__file__", str(module))
        return git

    def test_packed_ref_is_read(self, tmp_path, monkeypatch):
        git = self._checkout(tmp_path, monkeypatch)
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'f' * 40} refs/heads/other\n"
            f"{self.SHA} refs/heads/main\n"
        )
        assert capsule_module._git_revision() == self.SHA

    def test_loose_ref_wins_over_a_stale_packed_one(self, tmp_path, monkeypatch):
        git = self._checkout(tmp_path, monkeypatch)
        (git / "packed-refs").write_text(f"{'f' * 40} refs/heads/main\n")
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "refs" / "heads" / "main").write_text(self.SHA + "\n")
        assert capsule_module._git_revision() == self.SHA

    def test_unknown_ref_is_none(self, tmp_path, monkeypatch):
        self._checkout(tmp_path, monkeypatch)
        assert capsule_module._git_revision() is None


class TestCapsuleRoundTrip:
    def _capsule(self):
        scenario = scenario_factory("three-pair")()
        cell = Cell(
            scenario_key="three-pair",
            fingerprint=scenario_digest(scenario),
            spec=resolve_protocol("n+"),
            run=2,
            run_seed=2003,
            run_spec=RunSpec.resolve(scenario, FAST),
        )
        return build_capsule(
            cell,
            scenario,
            FAST,
            "RuntimeError: boom",
            traceback_text="Traceback (most recent call last): ...",
            events=[{"round": 9}],
        )

    def test_build_populates_the_cell_coordinate(self):
        capsule = self._capsule()
        assert capsule.scenario == "three-pair"
        assert capsule.protocol == "n+"
        assert (capsule.run, capsule.run_seed) == (2, 2003)
        assert capsule.error_type == "RuntimeError"
        assert capsule.error_message == "boom"
        assert capsule.schema == CAPSULE_SCHEMA_VERSION
        assert capsule.config["duration_us"] == 4000.0
        # three-pair has no fault profile: nothing to replay
        assert capsule.fault_schedule is None

    def test_write_then_load_is_identity(self, tmp_path):
        capsule = self._capsule()
        path = write_capsule(capsule, tmp_path)
        assert path.parent == tmp_path
        assert load_capsule(path) == capsule
        # latest failure wins: same coordinate, same file
        assert write_capsule(capsule, tmp_path) == path

    def test_filename_is_sanitized(self, tmp_path):
        capsule = dataclasses.replace(self._capsule(), protocol="n+[x=1/2]")
        path = write_capsule(capsule, tmp_path)
        assert "/" not in path.name and "[" not in path.name

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("{not json", "capsule"),
            (json.dumps([1, 2]), "capsule"),
            (json.dumps({"schema": 1, "surprise": True}), "unknown"),
            (json.dumps({"schema": CAPSULE_SCHEMA_VERSION + 1}), "newer"),
            (json.dumps({"schema": "one"}), "schema"),
        ],
    )
    def test_load_rejects_malformed_payloads(self, tmp_path, payload, match):
        path = tmp_path / "capsule.json"
        path.write_text(payload)
        with pytest.raises(ConfigurationError, match=match):
            load_capsule(path)

    def test_load_rejects_a_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_capsule(tmp_path / "nope.json")


class TestSweepWritesCapsules:
    def test_failed_cell_carries_a_replayable_capsule(
        self, tmp_path, crashy_protocol
    ):
        result = _crashy_sweep(tmp_path)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.capsule_path is not None
        assert "injected crash" in failure.traceback
        capsule = load_capsule(failure.capsule_path)
        assert capsule.protocol == "crashy"
        assert capsule.error_type == "RuntimeError"
        assert capsule.traceback == failure.traceback

    def test_capsule_lands_in_the_capsules_dir_next_to_the_store(
        self, tmp_path, crashy_protocol
    ):
        result = _crashy_sweep(tmp_path)
        capsule_dir = tmp_path / CAPSULE_DIRNAME
        assert capsule_dir.is_dir()
        assert str(capsule_dir) in result.failures[0].capsule_path

    def test_store_records_the_capsule_path_and_traceback(
        self, tmp_path, crashy_protocol
    ):
        from repro.sim.store import ResultsStore

        result = _crashy_sweep(tmp_path)
        rows = [r for r in ResultsStore(tmp_path).query() if r.status == "failed"]
        assert len(rows) == 1
        assert rows[0].capsule_path == result.failures[0].capsule_path
        assert "injected crash" in rows[0].traceback

    def test_no_cache_dir_means_no_capsule_but_still_a_traceback(
        self, crashy_protocol
    ):
        result = _crashy_sweep(None, cache_dir=None)
        failure = result.failures[0]
        assert failure.capsule_path is None
        assert "injected crash" in failure.traceback

    def test_crash_is_isolated_to_the_failing_protocol(
        self, tmp_path, crashy_protocol
    ):
        # n+ shares the run's network draw with the crashing protocol
        # but must complete -- and must not get a bogus capsule.
        result = _crashy_sweep(tmp_path, protocols=["n+", "crashy"])
        assert [f.protocol for f in result.failures] == ["crashy"]
        (metrics,) = result.results["n+"]
        assert metrics is not None
        assert result.results["crashy"] == [None]
        outcome = replay_capsule(result.failures[0].capsule_path)
        assert outcome.reproduced

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_ship_traceback_and_replayable_capsule(
        self, tmp_path, crashy_protocol, workers
    ):
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
            assert replay_capsule(failure.capsule_path).reproduced
        assert all(m is not None for m in result.results["n+"])


def _failure_fields(result):
    """Every FailedCell and capsule field except the traceback text, in
    cell order (worker processes settle cells in any order)."""
    fields = []
    for failure in sorted(result.failures, key=lambda f: (f.run, f.protocol)):
        capsule = load_capsule(failure.capsule_path).to_dict()
        del capsule["traceback"]
        cell = dataclasses.asdict(failure)
        del cell["traceback"]
        cell["capsule_path"] = Path(failure.capsule_path).name
        fields.append((cell, capsule))
    return fields


def _overcrowded_scenario():
    """30 stations on the 20-location default floor: the network draw
    raises before any protocol is simulated."""
    return dataclasses.replace(
        dense_lan_scenario(n_pairs=15, seed=0), testbed_factory=None
    )


class TestTaskLevelCrashes:
    """A crash outside the per-protocol simulation -- here in the network
    draw -- fails the whole task, and its traceback must reach the failed
    cells, the store rows and the capsules on every worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_network_draw_crash_keeps_its_traceback(self, tmp_path, workers):
        result = run_sweep(
            _overcrowded_scenario,
            ["n+"],
            n_runs=2,
            seed=0,
            config=FAST,
            workers=workers,
            cache_dir=tmp_path,
            scenario_key="overcrowded",
        )
        assert result.workers == workers
        assert len(result.failures) == 2
        for failure in result.failures:
            assert "place_nodes" in failure.traceback
            assert "place_nodes" in load_capsule(failure.capsule_path).traceback
        rows = [r for r in ResultsStore(tmp_path).query() if r.status == "failed"]
        assert len(rows) == 2
        assert all("place_nodes" in row.traceback for row in rows)


class TestLegacyCapsules:
    """Capsules written while ``SimulationConfig`` still had a
    ``channel_draws`` field: the scenario alone chooses the draw
    contract now, so such a config is not this build's and is refused."""

    @pytest.mark.parametrize("draws", [None, "batched", "grouped"])
    def test_a_channel_draws_field_is_refused(self, tmp_path, crashy_protocol, draws):
        path = _crashy_sweep(tmp_path).failures[0].capsule_path
        with open(path) as handle:
            data = json.load(handle)
        data["config"]["channel_draws"] = draws
        legacy = tmp_path / "legacy" / "capsule.json"
        legacy.parent.mkdir()
        legacy.write_text(json.dumps(data))
        with pytest.raises(
            ConfigurationError, match="does not match this build's SimulationConfig"
        ):
            replay_capsule(legacy)


class TestReplay:
    def test_replay_reproduces_the_recorded_crash(self, tmp_path, crashy_protocol):
        result = _crashy_sweep(tmp_path)
        path = result.failures[0].capsule_path
        outcome = replay_capsule(path)
        assert outcome.reproduced
        assert outcome.error_type == "RuntimeError"
        assert "injected crash" in outcome.traceback
        assert outcome.fingerprint_matched

    def test_replay_is_deterministic(self, tmp_path, crashy_protocol):
        path = _crashy_sweep(tmp_path).failures[0].capsule_path
        first = replay_capsule(path)
        second = replay_capsule(path)
        assert first.reproduced and second.reproduced
        assert first.error_message == second.error_message

    def test_replay_of_a_fixed_crash_reports_not_reproduced(
        self, tmp_path, crashy_protocol, monkeypatch
    ):
        # the "bug" gets fixed: the capsule's protocol now runs clean
        path = _crashy_sweep(tmp_path).failures[0].capsule_path
        _set_crashy(monkeypatch, NPlusMac)
        outcome = replay_capsule(path)
        assert not outcome.reproduced
        assert outcome.error_type is None
        assert outcome.metrics is not None
        assert np.isfinite(outcome.metrics.total_throughput_mbps())

    def test_replay_replays_the_recorded_fault_schedule(
        self, tmp_path, crashy_protocol
    ):
        config = dataclasses.replace(FAST, duration_us=20000.0)
        result = _crashy_sweep(
            tmp_path, scenario="dense-lan-20-faulty", config=config
        )
        capsule = load_capsule(result.failures[0].capsule_path)
        assert capsule.fault_schedule  # the faulty profile produced episodes
        outcome = replay_capsule(capsule)
        assert outcome.reproduced

    def test_replay_reproduces_an_invariant_violation(self, tmp_path):
        """A broken conservation law is a cell failure like any crash: its
        capsule replays under full validation and names the checker."""

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
            outcome = replay_capsule(result.failures[0].capsule_path)
        finally:
            del invariants_module._REGISTRY["always-violated"]
        assert outcome.reproduced
        assert outcome.error_type == "InvariantViolation"
        assert "always-violated" in outcome.error_message

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


class TestCli:
    def test_sweep_exits_nonzero_and_prints_capsule_paths(
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
        assert "FAILED" in out
        assert CAPSULE_DIRNAME in out
        assert "replay" in out

    def test_replay_command_round_trips(self, tmp_path, crashy_protocol, capsys):
        path = _crashy_sweep(tmp_path).failures[0].capsule_path
        rc = cli.main(["replay", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reproduced" in out
        assert "RuntimeError" in out

    def test_replay_of_a_clean_cell_exits_nonzero(
        self, tmp_path, crashy_protocol, capsys, monkeypatch
    ):
        path = _crashy_sweep(tmp_path).failures[0].capsule_path
        _set_crashy(monkeypatch, NPlusMac)
        rc = cli.main(["replay", path])
        assert rc == 1
        assert "NOT reproduced" in capsys.readouterr().out

    def test_replay_requires_a_capsule_path(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["replay"])
        assert "capsule" in capsys.readouterr().err

    def test_results_lists_failed_cells(self, tmp_path, crashy_protocol, capsys):
        _crashy_sweep(tmp_path)
        rc = cli.main(["results", "--cache-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crashy" in out
        assert CAPSULE_DIRNAME in out


class TestExtremeFadeAcceptance:
    """ISSUE acceptance: a sweep whose fades drive the channel to ~zero
    completes with zero crashed cells -- the guards degrade, quarantine
    and keep going instead of raising LinAlgError."""

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
