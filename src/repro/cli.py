"""Command-line interface for running the paper's experiments.

Installed as a module runner::

    python -m repro.cli fig9
    python -m repro.cli fig11 --trials 1000
    python -m repro.cli fig12 --runs 10 --duration-ms 100
    python -m repro.cli fig12 --scenario dense-lan-20 --workers 4 --cache-dir .sweep-cache
    python -m repro.cli fig13 --runs 10
    python -m repro.cli handshake
    python -m repro.cli scenarios
    python -m repro.cli protocols
    python -m repro.cli sweep --scenario dense-lan-30 --protocols 802.11n,n+ --runs 50 --workers 4
    python -m repro.cli sweep --scenario dense-lan-20-faulty --protocols "n+,n+[recovery=erasure]" --runs 8
    python -m repro.cli sweep --scenario dense-lan-30 --runs 50 --cache-dir .sweep-cache --resume
    python -m repro.cli results --cache-dir .sweep-cache
    python -m repro.cli replay --cache-dir .sweep-cache 3f9c2a1b7d04
    python -m repro.cli validate-fidelity --scenario dense-lan-20 --links 8
    python -m repro.cli all --quick

Each figure sub-command runs the corresponding experiment from
:mod:`repro.experiments` and prints the same summary rows the benchmark
harness produces.  ``scenarios`` lists the registered topologies,
``protocols`` lists the protocol variants and their shared typed
parameters (:mod:`repro.mac.variants`), ``sweep`` runs an arbitrary
scenario x protocol grid through the parallel orchestrator
(:mod:`repro.sim.sweep`) -- protocol entries may carry parameters in
``name[param=value,...]`` form -- with optional worker fan-out and
on-disk result caching, ``sweep --resume`` completes an interrupted
cached sweep exactly where it stopped, ``results`` inspects a results
store -- recorded sweeps, per-(scenario, protocol) cell states and the
failed cells with their keys (:mod:`repro.sim.store`) -- ``replay``
re-executes a failed cell, named by a prefix of its key, under full
validation (:func:`repro.sim.sweep.replay_failed_cell`) and reports
whether the recorded failure reproduced, and ``validate-fidelity``
prints the cross-fidelity agreement table of :mod:`repro.sim.fidelity`
for sampled links of a scenario.

A ``sweep`` that ends with failed cells exits non-zero (even without
``--strict``), printing one line per failure with its cell key.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.experiments.report import format_table
from repro.mac.variants import (
    RECOVERY_PARAMS,
    available_variants,
    parse_protocol,
    split_protocol_list,
)
from repro.sim.scenarios import available_scenarios, scenario_factory
from repro.sim.spec import SimulationConfig
from repro.sim.store import ResultsStore, store_path
from repro.sim.sweep import run_sweep

__all__ = ["main", "build_parser"]


def _print_header(title: str) -> None:
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}")


def _run_fig9(args: argparse.Namespace) -> None:
    from repro.experiments import fig9_carrier_sense as fig9

    _print_header("Fig. 9 -- carrier sense in the presence of ongoing transmissions")
    result = fig9.run_carrier_sense_experiment(n_trials=args.trials, seed=args.seed)
    print(fig9.summarize(result))


def _run_fig11(args: argparse.Namespace) -> None:
    from repro.experiments import fig11_nulling_alignment as fig11

    _print_header("Fig. 11 -- residual error of nulling and alignment")
    nulling = fig11.run_nulling_experiment(n_trials=args.trials, seed=args.seed)
    alignment = fig11.run_alignment_experiment(n_trials=args.trials, seed=args.seed + 1)
    print(fig11.summarize(nulling))
    print()
    print(fig11.summarize(alignment))


def _simulation_config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        duration_us=args.duration_ms * 1000.0,
        n_subcarriers=args.subcarriers,
        packet_rate_pps=args.packet_rate_pps,
        fault_profile=args.fault_profile,
        fault_trace=args.fault_trace,
        fidelity=args.fidelity,
        fidelity_band_db=args.fidelity_band_db,
        validation=args.validation,
    )


def _run_fig12(args: argparse.Namespace) -> None:
    from repro.experiments import fig12_throughput as fig12

    scenario = args.scenario or "three-pair"
    _print_header(f"Fig. 12 -- throughput of n+ vs 802.11n ({scenario} scenario)")
    experiment = fig12.run_throughput_experiment(
        n_runs=args.runs,
        seed=args.seed,
        config=_simulation_config(args),
        scenario=scenario,
        workers=args.workers,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )
    print(fig12.summarize(experiment))


def _run_fig13(args: argparse.Namespace) -> None:
    from repro.experiments import fig13_heterogeneous as fig13

    scenario = args.scenario or "heterogeneous-ap"
    _print_header(f"Fig. 13 -- {scenario} scenario vs 802.11n and beamforming")
    experiment = fig13.run_heterogeneous_experiment(
        n_runs=args.runs,
        seed=args.seed,
        config=_simulation_config(args),
        scenario=scenario,
        workers=args.workers,
        cache_dir=args.cache_dir,
        resume=args.resume,
    )
    print(fig13.summarize(experiment))


def _run_handshake(args: argparse.Namespace) -> None:
    from repro.experiments import handshake_overhead as handshake

    _print_header("§3.5 -- light-weight handshake overhead")
    result = handshake.run_handshake_experiment(n_channels=args.trials, seed=args.seed)
    print(handshake.summarize(result))


def _run_scenarios(args: argparse.Namespace) -> None:
    _print_header("Registered scenarios")
    rows = []
    for name in available_scenarios():
        scenario = scenario_factory(name)()
        traffic = (
            f"Poisson {scenario.packet_rate_pps:.0f} pps"
            if scenario.packet_rate_pps
            else "saturated"
        )
        rows.append(
            [
                name,
                str(len(scenario.stations)),
                str(len(scenario.pairs)),
                str(scenario.max_antennas),
                traffic,
                scenario.fault_profile or "-",
            ]
        )
    print(
        format_table(
            ["scenario", "stations", "pairs", "max antennas", "traffic", "faults"], rows
        )
    )


def _run_protocols(args: argparse.Namespace) -> None:
    _print_header("Protocol variants")
    rows = [
        [entry.name, entry.agent_name, "yes" if entry.supports_joining else "no"]
        for entry in available_variants()
    ]
    print(format_table(["protocol", "agent", "joins"], rows))
    print("\nParameters of every protocol:")
    rows = [
        [
            spec.name,
            repr(spec.default),
            spec.description
            + (f" ({', '.join(spec.choices)})" if spec.choices else ""),
        ]
        for spec in RECOVERY_PARAMS
    ]
    print(format_table(["param", "default", "meaning"], rows))
    print(
        "\nSweep syntax: --protocols \"name,name[param=value,...]\", e.g. "
        "\"n+,n+[recovery=erasure,retry_cap=3]\""
    )


def _run_sweep(args: argparse.Namespace) -> int:
    scenario = args.scenario or "three-pair"
    # Parse (and so validate) every entry up front: an unknown name or
    # parameter aborts here with the protocol listing, before any worker
    # or simulation starts.
    protocols = [parse_protocol(item) for item in split_protocol_list(args.protocols)]
    _print_header(
        f"Sweep -- {scenario}, {len(protocols)} protocol(s) x {args.runs} placement(s)"
    )
    start = time.time()
    result = run_sweep(
        scenario,
        protocols,
        n_runs=args.runs,
        seed=args.seed,
        config=_simulation_config(args),
        workers=args.workers,
        cache_dir=args.cache_dir,
        strict=args.strict,
        resume=args.resume,
    )
    elapsed = time.time() - start
    rows = []
    for spec in protocols:
        totals = result.totals_mbps(spec.key)
        fairness = [
            m.fairness_index() for m in result.results[spec.key] if m is not None
        ]
        if not totals:
            rows.append([spec.key, "-", "-", "-", "-"])
            continue
        rows.append(
            [
                spec.key,
                f"{sum(totals) / len(totals):.1f}",
                f"{min(totals):.1f}",
                f"{max(totals):.1f}",
                f"{sum(fairness) / len(fairness):.2f}",
            ]
        )
    print(format_table(["protocol", "mean Mb/s", "min", "max", "Jain fairness"], rows))
    print(
        f"\n{result.cache_hits} cell(s) from cache, {result.cache_misses} simulated "
        f"on {result.workers} worker(s) in {elapsed:.1f} s"
    )
    if result.worker_deaths:
        print(f"{result.worker_deaths} worker(s) lost; their cells were re-run")
    if result.failures:
        # Failed cells make the sweep exit non-zero even without
        # --strict: the grid is incomplete, and scripts piping sweeps
        # into analysis must not mistake it for a clean run.
        print(f"\n{len(result.failures)} cell(s) FAILED:")
        for failure in result.failures:
            print(
                f"FAILED cell {failure.key[:12]}: protocol={failure.protocol} "
                f"run={failure.run} seed={failure.run_seed}: {failure.error}"
            )
        if args.cache_dir is not None:
            _print_replay_hint(args.cache_dir, result.failures[0].key)
        return 1
    return 0


def _print_replay_hint(cache_dir: str, key: str) -> None:
    print(f"replay one with: python -m repro.cli replay --cache-dir {cache_dir} {key[:12]}")


def _check_store(args: argparse.Namespace) -> None:
    """Refuse a missing ``--cache-dir`` or a directory with no store."""
    if args.cache_dir is None:
        raise ConfigurationError(
            f"the {args.command!r} command needs --cache-dir pointing at a results store"
        )
    path = store_path(args.cache_dir)
    if not path.exists():
        # Opening would create an empty store, so a typo'd path would
        # read as a store with no cells.
        raise ConfigurationError(f"no results store at {path}")


def _run_results(args: argparse.Namespace) -> None:
    _check_store(args)
    with ResultsStore(args.cache_dir) as store:
        _print_header(f"Results store -- {args.cache_dir}")
        sweeps = store.sweeps()
        if sweeps:
            rows = []
            for record in sweeps:
                manifest = record.manifest
                rows.append(
                    [
                        record.sweep_id[:12],
                        record.status,
                        str(manifest.get("scenario", "-")),
                        str(manifest.get("n_runs", "-")),
                        str(manifest.get("seed", "-")),
                        ",".join(manifest.get("protocols", [])) or "-",
                        time.strftime(
                            "%Y-%m-%d %H:%M:%S", time.localtime(record.updated_at)
                        ),
                    ]
                )
            print(
                format_table(
                    ["sweep", "status", "scenario", "runs", "seed", "protocols", "updated"],
                    rows,
                )
            )
        else:
            print("no sweep manifests recorded")
        summary = store.summary()
        if summary:
            states = ("done", "failed", "running", "pending")
            rows = [
                [scenario or "-", protocol or "-"]
                + [str(counts.get(state, 0)) for state in states]
                for (scenario, protocol), counts in sorted(
                    summary.items(), key=lambda item: (item[0][0] or "", item[0][1] or "")
                )
            ]
            print()
            print(format_table(["scenario", "protocol", *states], rows))
        else:
            print("no cells recorded")
        failed = store.query(status="failed")
        if failed:
            print()
            rows = [
                [
                    cell.scenario or "-",
                    cell.protocol or "-",
                    "-" if cell.run is None else str(cell.run),
                    (cell.error or "")[:44],
                    cell.key[:12],
                ]
                for cell in failed
            ]
            print(format_table(["scenario", "protocol", "run", "error", "cell"], rows))
            print()
            _print_replay_hint(args.cache_dir, failed[0].key)


def _run_replay(args: argparse.Namespace) -> int:
    from repro.sim.sweep import replay_failed_cell

    _check_store(args)
    if not args.target:
        raise ConfigurationError(
            "the 'replay' command needs the key (or a key prefix) of a failed "
            "cell, as a failing sweep and 'repro results' print it"
        )
    outcome = replay_failed_cell(
        args.cache_dir, args.target, validation=args.validation or "full"
    )
    row = outcome.row
    _print_header(
        f"Replay -- {row.scenario} / {row.protocol} run {row.run} "
        f"(seed {row.run_seed}), cell {row.key[:12]}"
    )
    print(f"recorded failure: {row.error}")
    if not outcome.key_matched:
        print(
            "WARNING: the cell's inputs changed since it failed (its rebuilt key "
            f"is {outcome.cell.key[:12]}); the replay may not be faithful"
        )
    if outcome.reproduced:
        print(f"reproduced: {outcome.error}")
    elif outcome.error is None:
        print("NOT reproduced: the replay completed cleanly")
    else:
        print(f"NOT reproduced: got {outcome.error}")
    if outcome.traceback:
        print()
        print(outcome.traceback, end="")
    return 0 if outcome.reproduced else 1


def _run_validate_fidelity(args: argparse.Namespace) -> None:
    from repro.sim.fidelity import cross_validate_links

    scenario = args.scenario or "dense-lan-20"
    _print_header(f"Cross-fidelity validation -- {scenario}")
    report = cross_validate_links(
        scenario,
        seed=args.seed,
        n_links=args.links,
        config=_simulation_config(args),
    )
    print(report.format_table())


def _run_all(args: argparse.Namespace) -> None:
    if args.quick:
        args.trials = min(args.trials, 200)
        args.runs = min(args.runs, 4)
        args.duration_ms = min(args.duration_ms, 40.0)
    for runner in (_run_fig9, _run_fig11, _run_handshake, _run_fig12, _run_fig13):
        start = time.time()
        runner(args)
        print(f"[{runner.__name__[5:]}] finished in {time.time() - start:.1f} s")


_COMMANDS: Dict[str, Callable[[argparse.Namespace], Optional[int]]] = {
    "fig9": _run_fig9,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "handshake": _run_handshake,
    "scenarios": _run_scenarios,
    "protocols": _run_protocols,
    "sweep": _run_sweep,
    "results": _run_results,
    "replay": _run_replay,
    "validate-fidelity": _run_validate_fidelity,
    "all": _run_all,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'Random Access Heterogeneous MIMO Networks'.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="experiment to run")
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="for the 'replay' command: the key, or a unique prefix of it, of "
        "the failed cell to re-execute (with --cache-dir)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--trials", type=int, default=400, help="trials for the signal-level experiments"
    )
    parser.add_argument(
        "--runs", type=int, default=8, help="random placements for the throughput experiments"
    )
    parser.add_argument(
        "--duration-ms",
        type=float,
        default=80.0,
        help="simulated time per run, milliseconds (default 80; a library "
        "SimulationConfig defaults to 100)",
    )
    parser.add_argument(
        "--subcarriers",
        type=int,
        default=12,
        help="subcarriers tracked by the link abstraction (default 12; a "
        "library SimulationConfig defaults to 16)",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="registered scenario name (see the 'scenarios' command); "
        "default depends on the experiment",
    )
    parser.add_argument(
        "--protocols",
        default="802.11n,n+",
        help="comma-separated protocols for the 'sweep' command; entries may "
        "carry parameters as name[param=value,...], e.g. "
        "\"n+,n+[recovery=erasure,retry_cap=3]\" (see the 'protocols' command)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for placement sweeps (0 = all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk sweep results store (default: no cache)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="for the 'sweep' command: resume an interrupted cached sweep -- "
        "requires --cache-dir and the exact grid of the interrupted invocation",
    )
    parser.add_argument(
        "--packet-rate-pps",
        type=float,
        default=None,
        help="per-flow Poisson arrival rate; 0 forces saturated sources even "
        "on a bursty scenario (default: saturated, or the scenario's hint)",
    )
    parser.add_argument(
        "--fault-profile",
        default=None,
        help="fault-injection profile for simulation runs (see repro.sim.faults; "
        "'none' disables a faulty scenario's built-in profile)",
    )
    parser.add_argument(
        "--fault-trace",
        default=None,
        help="JSON trace of fault episodes to replay: a list of type-tagged "
        "fade/loss/churn objects, as repro.sim.faults.FaultSchedule.to_jsonable "
        "writes them; combined with --fault-profile if both given",
    )
    parser.add_argument(
        "--fidelity",
        choices=["abstraction", "auto", "full"],
        default=None,
        help="PHY fidelity tier for simulation runs (see repro.sim.fidelity): "
        "'abstraction' (the default), 'auto' escalates uncertain links to the "
        "full transceiver, 'full' escalates every reception",
    )
    parser.add_argument(
        "--validation",
        choices=["off", "cheap", "full"],
        default=None,
        help="runtime invariant checking for simulation runs (see "
        "repro.sim.invariants): 'off' (the default) runs the exact "
        "unvalidated path, 'cheap' checks aggregate conservation laws at "
        "round boundaries, 'full' adds per-link and per-queue checks; "
        "'replay' defaults to 'full'",
    )
    parser.add_argument(
        "--fidelity-band-db",
        type=float,
        default=None,
        help="half-width (dB) of the 'auto' uncertainty band around the "
        "delivery cliff (default 3.0)",
    )
    parser.add_argument(
        "--links",
        type=int,
        default=8,
        help="links sampled per scenario by the 'validate-fidelity' command",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="for the 'sweep' command: re-raise the first cell failure instead of "
        "recording it and continuing",
    )
    parser.add_argument(
        "--quick", action="store_true", help="shrink every experiment (used with 'all')"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments and run the selected experiment."""
    parser = build_parser()
    # Intermixed, so a positional may follow options: "replay --cache-dir DIR KEY".
    args = parser.parse_intermixed_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0 (0 = all usable cores)")
    for flag in ("trials", "runs", "links"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1")
    if args.workers == 0:
        args.workers = None  # run_sweep: None = all usable cores
    if args.packet_rate_pps is not None and args.packet_rate_pps < 0:
        parser.error("--packet-rate-pps must be >= 0 (0 = saturated sources)")
    try:
        exit_code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except ConfigurationError as exc:
        # A refused input is one line; argparse's own parse errors above
        # keep their usage text.
        parser.exit(2, f"repro: error: {exc}\n")
    except BrokenPipeError:
        # The reader closed the pipe (``repro protocols | head -1``).
        # Point stdout at devnull so the interpreter's final flush cannot
        # fail again, and exit 1 without a traceback, as Python itself
        # does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return int(exit_code) if exit_code else 0


if __name__ == "__main__":
    sys.exit(main())
