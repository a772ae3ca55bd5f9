"""Tests for the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def _modules_loaded_by(statements: str) -> list:
    """``sys.modules`` of a fresh interpreter after running ``statements``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    code = statements + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


#: Run-layer modules: only a simulated cell needs them, so neither
#: ``import repro.cli`` nor a replay of stored cells may load one.
RUN_LAYER = (
    "repro.sim.runner",
    "repro.sim.fidelity",
    "repro.sim.supervisor",
    "repro.mac.agent",
    "repro.phy.transceiver",
)


def _run_layer_modules(loaded: list) -> list:
    return [
        name
        for name in loaded
        if name in RUN_LAYER or name == "repro.mimo" or name.startswith("repro.mimo.")
    ]


#: A small sweep: three-pair, 802.11n vs n+ on two placements.
SMALL_SWEEP = [
    "sweep", "--scenario", "three-pair", "--runs", "2", "--duration-ms", "5",
    "--subcarriers", "4",
]


class TestRuntimeDependencies:
    """NumPy is the only runtime requirement (README); SciPy is test-only."""

    def test_importing_the_cli_loads_no_scipy(self):
        loaded = _modules_loaded_by("import repro.cli")
        assert "repro.cli" in loaded
        assert [name for name in loaded if name.split(".")[0] == "scipy"] == []

    def test_importing_the_cli_loads_no_run_layer(self):
        loaded = _modules_loaded_by("import repro.cli")
        assert "repro.sim.sweep" in loaded
        assert _run_layer_modules(loaded) == []

    def test_a_warm_replay_loads_no_run_layer(self, tmp_path):
        argv = [*SMALL_SWEEP, "--cache-dir", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        loaded = _modules_loaded_by(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    assert main({argv!r}) == 0\n"
            "assert '4 cell(s) from cache, 0 simulated' in out.getvalue(), out.getvalue()"
        )
        assert "repro.sim.store" in loaded
        assert _run_layer_modules(loaded) == []

    def test_listing_protocols_loads_no_agent(self):
        loaded = _modules_loaded_by(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    main(['protocols'])\n"
            "assert 'NPlusMac' in out.getvalue(), out.getvalue()"
        )
        agents = {f"repro.mac.{name}" for name in ("dot11n", "beamforming", "nplus", "plain_csma")}
        assert "repro.mac.variants" in loaded
        assert [
            name
            for name in loaded
            if name in agents or name.startswith(("repro.mimo.", "repro.phy."))
        ] == []

    def test_a_worker_pool_starts_with_the_round_loop_loaded(self):
        """Forked workers inherit the round loop and the grid's agents
        rather than each importing them."""
        argv = [*SMALL_SWEEP, "--workers", "2"]
        loaded = _modules_loaded_by(
            "import contextlib, io, sys\n"
            "from repro.sim import supervisor\n"
            "at_start = []\n"
            "original = supervisor.WorkerSupervisor.__init__\n"
            "def recording_init(self, *args, **kwargs):\n"
            "    at_start.append(set(sys.modules))\n"
            "    original(self, *args, **kwargs)\n"
            "supervisor.WorkerSupervisor.__init__ = recording_init\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "needed = {'repro.sim.runner', 'repro.mac.dot11n', 'repro.mac.nplus'}\n"
            "assert len(at_start) == 1 and needed <= at_start[0], needed - at_start[0]"
        )
        assert "repro.sim.supervisor" in loaded

    def test_importing_every_module_loads_no_scipy(self):
        loaded = _modules_loaded_by(
            "import importlib, pkgutil, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)"
        )
        assert "repro.sim.fidelity" in loaded
        assert [name for name in loaded if name.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (
                ["fig12", "--runs", "1", "--duration-ms", "5", "--subcarriers", "4"],
                ("repro.experiments.fig12_throughput", "repro.sim.runner"),
            ),
            (["handshake", "--trials", "2"], ("repro.experiments.handshake_overhead",)),
            (
                [
                    "sweep", "--scenario", "three-pair", "--runs", "1", "--duration-ms",
                    "5", "--subcarriers", "4", "--fidelity", "full",
                ],
                ("repro.sim.runner", "repro.sim.fidelity"),
            ),
        ],
        ids=["fig12", "handshake", "sweep-full-phy"],
    )
    def test_running_an_experiment_loads_no_scipy(self, argv, modules):
        # A lazy import inside the simulation (rate selection, the full
        # PHY tier) would slip past the import-time checks above.
        loaded = _modules_loaded_by(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main({argv!r})"
        )
        for module in modules:
            assert module in loaded
        assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


class TestParser:
    def test_known_commands_parse(self):
        parser = build_parser()
        for command in (
            "fig9", "fig11", "fig12", "fig13", "handshake", "scenarios",
            "protocols", "sweep", "all",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_draw_contract_is_not_an_option(self, capsys):
        """The scenario alone chooses its channel-draw contract."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--help"])
        assert "--channel-draws" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--channel-draws", "grouped"])

    def test_options_have_defaults(self):
        args = build_parser().parse_args(["fig12"])
        assert args.runs > 0
        assert args.duration_ms > 0
        assert args.seed == 0

    def test_the_help_states_both_run_defaults(self):
        """The CLI and SimulationConfig default the run window and the
        subcarriers differently; each flag's help names both values."""
        from repro.sim.spec import SimulationConfig

        actions = {action.dest: action for action in build_parser()._actions}
        library = SimulationConfig()
        for dest, library_default in (
            ("duration_ms", library.duration_us / 1000.0),
            ("subcarriers", library.n_subcarriers),
        ):
            action = actions[dest]
            assert f"default {action.default:g}" in action.help
            assert f"SimulationConfig defaults to {library_default:g}" in action.help

    def test_option_overrides(self):
        args = build_parser().parse_args(
            ["fig12", "--runs", "3", "--duration-ms", "25", "--seed", "9"]
        )
        assert args.runs == 3
        assert args.duration_ms == 25.0
        assert args.seed == 9

    def test_sweep_options(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--scenario", "dense-lan-20",
                "--protocols", "802.11n,n+",
                "--workers", "4",
                "--cache-dir", "/tmp/cache",
            ]
        )
        assert args.scenario == "dense-lan-20"
        assert args.protocols == "802.11n,n+"
        assert args.workers == 4
        assert args.cache_dir == "/tmp/cache"


class TestMain:
    def test_negative_workers_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--workers", "-3", "--runs", "1"])
        assert "--workers must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["handshake", "--trials", "0"],
            ["fig9", "--trials", "0"],
            ["sweep", "--runs", "0"],
            ["validate-fidelity", "--links", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_zero_counts_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"{argv[1]} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--protocols", "foo"],
            ["sweep", "--scenario", "nope"],
            ["sweep", "--fault-profile", "nope"],
            ["sweep", "--subcarriers", "64"],
            ["fig12", "--duration-ms", "-5"],
            ["sweep", "--packet-rate-pps", "nan"],
            ["sweep", "--packet-rate-pps", "inf"],
            ["sweep", "--fidelity-band-db", "-1"],
            ["sweep", "--fidelity-band-db", "nan"],
            ["sweep", "--fidelity-band-db", "inf"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_a_configuration_error_is_one_line_and_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--runs", "1"])
        assert info.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: ")

    def test_handshake_command_runs(self, capsys):
        exit_code = main(["handshake", "--trials", "5"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "handshake overhead" in captured.out

    def test_fig9_command_runs(self, capsys):
        exit_code = main(["fig9", "--trials", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "power jump" in captured.out

    def test_fig12_command_runs_quickly(self, capsys):
        exit_code = main(["fig12", "--runs", "1", "--duration-ms", "10", "--subcarriers", "8"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "802.11n" in captured.out

    def test_scenarios_command_lists_registry(self, capsys):
        exit_code = main(["scenarios"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("three-pair", "dense-lan-20", "dense-lan-50"):
            assert name in captured.out

    def test_protocols_command_lists_registry(self, capsys):
        exit_code = main(["protocols"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("csma", "802.11n", "beamforming", "n+"):
            assert name in captured.out
        for param in ("recovery", "retry_cap", "erasure_k", "erasure_n"):
            assert param in captured.out

    def test_sweep_accepts_parameterised_specs(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--scenario", "three-pair",
            "--protocols", "csma,csma[retry_cap=3]",
            "--runs", "1",
            "--duration-ms", "8",
            "--subcarriers", "8",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "csma[retry_cap=3]" in out

    def test_sweep_rejects_bad_specs_before_simulating(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--scenario", "three-pair",
            "--protocols", "csma,aloha",
            "--runs", "1",
            "--cache-dir", str(tmp_path),
        ]
        with pytest.raises(SystemExit):
            main(argv)
        assert "unknown protocol 'aloha'; protocols:" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    def test_sweep_refuses_more_subcarriers_than_data_bins(self, tmp_path):
        # Only 48 data subcarriers exist; a larger count used to fail every
        # cell mid-run (and record each as failed) instead of the command.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT)
        argv = [
            "sweep",
            "--scenario", "three-pair",
            "--protocols", "n+",
            "--runs", "1",
            "--duration-ms", "5",
            "--subcarriers", "64",
            "--cache-dir", str(tmp_path),
        ]
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert "between 1 and 48" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_sweep_command_runs_with_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--scenario", "three-pair",
            "--protocols", "802.11n,n+",
            "--runs", "1",
            "--duration-ms", "8",
            "--subcarriers", "8",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cell(s) from cache, 2 simulated" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 cell(s) from cache, 0 simulated" in second


class TestClosedPipe:
    @pytest.mark.parametrize("command", ["protocols", "scenarios"])
    def test_a_closed_stdout_exits_without_a_traceback(self, command):
        """``repro protocols | head -1``: the reader is gone before the
        listing is written."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", command],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.stderr == ""
        assert result.returncode == 1


class TestDurableSweepCommands:
    def _sweep_argv(self, tmp_path, extra=()):
        return [
            "sweep",
            "--scenario", "three-pair",
            "--protocols", "802.11n,n+",
            "--runs", "1",
            "--duration-ms", "8",
            "--subcarriers", "8",
            "--cache-dir", str(tmp_path),
            *extra,
        ]

    def test_resume_flag_defaults_off(self):
        args = build_parser().parse_args(["sweep"])
        assert args.resume is False
        assert build_parser().parse_args(["sweep", "--resume"]).resume is True

    def test_resume_without_a_recorded_manifest_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(self._sweep_argv(tmp_path, extra=["--resume"]))
        assert "nothing to resume" in capsys.readouterr().err

    def test_resume_after_a_completed_sweep_replays_from_cache(self, capsys, tmp_path):
        assert main(self._sweep_argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._sweep_argv(tmp_path, extra=["--resume"])) == 0
        assert "2 cell(s) from cache, 0 simulated" in capsys.readouterr().out

    def test_results_command_requires_a_cache_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["results"])
        assert "cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["typo-dir", "typo.sqlite"])
    def test_results_command_refuses_a_path_with_no_store(self, capsys, tmp_path, name):
        """A mistyped --cache-dir is refused, not opened as an empty store."""
        missing = tmp_path / name
        with pytest.raises(SystemExit):
            main(["results", "--cache-dir", str(missing)])
        assert f"no results store at {missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_results_command_reports_sweeps_and_cells(self, capsys, tmp_path):
        assert main(self._sweep_argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(["results", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "three-pair" in out
        assert "802.11n,n+" in out

    def test_results_command_closes_its_store(self, capsys, tmp_path, monkeypatch):
        from repro.sim.store import ResultsStore

        closed = []
        close = ResultsStore.close
        monkeypatch.setattr(
            ResultsStore, "close", lambda store: (closed.append(store), close(store))
        )
        assert main(self._sweep_argv(tmp_path)) == 0
        assert main(["results", "--cache-dir", str(tmp_path)]) == 0
        assert len(closed) == 2  # the sweep's store, then the listing's

    def test_results_command_on_an_empty_store(self, capsys, tmp_path):
        from repro.sim.store import ResultsStore

        ResultsStore(tmp_path).close()
        assert main(["results", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no sweep manifests recorded" in out
        assert "no cells recorded" in out
