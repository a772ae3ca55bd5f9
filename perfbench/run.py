"""End-to-end benchmark of ``repro sweep``, with an outside-in layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-dense100 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all                 # every workload, one table
    python3 perfbench/run.py --workload rounds-faulty50 --trace 1   # per-layer table

The workloads, their exact commands and what each layer is predicted to
move are documented in ``perfbench/workloads.json``.  Every command runs
from the source tree (``PYTHONPATH=src``) with ``PYTHONHASHSEED`` pinned to
:data:`HASH_SEED`; BLAS/OpenMP thread variables are left as the caller has
them.

``--trace 0`` (end to end):

a fixed number of rounds -- ``--seconds`` over the workload's recorded
``round_s``, at least :data:`MIN_REPEATS`: a fresh ``python -c "import
repro.cli"``, a cold CLI sweep into a fresh results store and the
identical command against that store (every cell replayed).  Then

* ``setup_s`` -- median scaled wall time of the fresh imports;
* ``cells_per_s`` -- cells simulated per scaled second of the median cold
  sweep, interpreter start included;
* ``replay_s`` -- median scaled wall time of the warm replays;
* ``peak_rss_mb`` -- median peak RSS of the cold sweeps' process trees
  (``os.wait4`` on the CLI process, which reaps its workers).

Scaled times take out the shared host's speed.  On the two-core VM the
workloads were sized on, the same serial work runs 20-40 % faster or
slower from one stretch of seconds or minutes to the next, and CPU time
moves with wall time, so no statistic of a run's raw times is steady
over ten runs.  Every timed launch therefore runs under
``perfbench/hostspeed.py``, which samples a fixed interpreter kernel
inside the process every 25 ms of CPU time; a launch's scaled time is its
wall time times :data:`KERNEL_REFERENCE_S` over its median sample.  The
kernel never changes, so a faster program still reads faster by the same
share.  Over ten seeds this halves the spread of every time metric.
The round count does not depend on how fast the program runs, so parent
and change are compared over the same number of samples.

``--trace 1`` (per layer): one cold sweep and its replay, three
``python -X importtime -c "import repro.cli"`` launches, and the traced
in-process run of ``perfbench/inproc.py`` (see ``perfbench/tracer.py``),
which sweeps the grid a fixed number of times whatever ``--seconds`` is.
Spans are written to ``.perfbench/spans-<workload>-seed<seed>.csv.gz``.

Every run checks its outputs: all CLI invocations exit 0; every store
holds exactly the workload's cells, all ``done``; the cells of every cold
sweep and of the in-process sweeps are byte-identical
(``NetworkMetrics.to_dict`` as stored) -- traced runs sweep the grid
in-process on one and two workers, and for a workload whose CLI command
fans out to several workers, untraced runs sweep its first two
placements in-process on one; each replay reports every cell from the
store and prints the cold sweep's table; the per-protocol mean total
throughput equals the recorded mean of the seed (seeds 0-19, to a
relative :data:`SEED_MEAN_RTOL`) or, for other seeds, lies within the
recorded tolerance of the workload's 20-seed reference; and where the
workload says so, n+ beats 802.11n.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS: Dict[str, dict] = json.loads((HERE / "workloads.json").read_text())[
    "workloads"
]
OUTPUT_DIR = ROOT / ".perfbench"
MIN_REPEATS = 4
REFERENCE_RUNS = 2
IMPORTTIME_LAUNCHES = 3
PROCESS_TIMEOUT_S = 150.0
#: Cells are a pure function of the seed; the tolerance only absorbs
#: summation-order differences between hosts' numerical libraries.
SEED_MEAN_RTOL = 1e-6
CACHE_LINE = re.compile(r"(\d+) cell\(s\) from cache, (\d+) simulated")
IMPORT_PACKAGES = ("numpy", "scipy", "repro")
#: ``PYTHONHASHSEED`` of every launched command.  The same for every
#: ``--seed``: build-dense500's peak RSS depends on when the cyclic garbage
#: collector frees a finished cell's network, which moves with both the
#: hash seed and the placements -- about 325, 420 or 510 MB at hash seed =
#: seed, 414-440 MB over seeds at a pinned hash seed.  Cells do not depend
#: on it.
HASH_SEED = "0"
#: Median seconds of one :func:`hostspeed.kernel` run on the reference host
#: (the two-core Xeon VM the workloads were sized on), so that scaled
#: times read as that host's seconds.
KERNEL_REFERENCE_S = 1.2e-4


def import_cumulative(report: str) -> Dict[str, float]:
    """Cumulative seconds of each of :data:`IMPORT_PACKAGES` in a
    ``python -X importtime`` report.

    A package's time is the cumulative column summed over those of its
    modules that a module outside the package imported (``repro`` and
    ``repro.cli`` from the command line; ``numpy``, ``scipy`` and
    ``scipy.optimize`` from ``repro``), so it includes everything they
    pulled in, the standard library and other packages too.  The report
    prints a nested import before its importer, indented two spaces more.
    """
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    importers: List[str] = []  # package of the latest line at each depth
    for line in reversed(report.splitlines()):
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        cumulative = cumulative.strip()
        if not cumulative.isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        package = name.strip().split(".")[0]
        del importers[depth:]
        if package in totals and importers[-1:] != [package]:
            totals[package] += int(cumulative) / 1e6
        importers.append(package)
    return totals


class Launch:
    """One finished child process: wall time, exit code, peak RSS, output."""

    def __init__(self, cmd: List[str], env: dict, work: Path, timeout: float) -> None:
        out_path = work / "stdout.txt"
        err_path = work / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()


class Workload:
    """A workload of ``workloads.json`` bound to one seed and working directory."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = HASH_SEED
        self.cells = int(self.spec["cells"])
        argv = self.cli_argv(None)
        self.runs = int(argv[argv.index("--runs") + 1])
        self.workers = int(argv[argv.index("--workers") + 1])
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.expected_cells: Dict[str, int] = {}
        self.means: Dict[str, float] = {}
        self.colds: List[Launch] = []
        self.traced: dict = {}
        self._launches = 0

    def cli_argv(self, store: Optional[Path]) -> List[str]:
        """``repro.cli`` arguments of the workload command (after ``python -m
        repro.cli``); without ``--cache-dir`` when ``store`` is ``None``."""
        argv = shlex.split(self.spec["command"].format(seed=self.seed, store=store))[3:]
        if store is None:
            at = argv.index("--cache-dir")
            del argv[at : at + 2]
        return argv

    def launch(self, cmd: List[str]) -> Launch:
        self._launches += 1
        work = self.work / f"launch-{self._launches}"
        work.mkdir()
        return Launch(cmd, self.env, work, PROCESS_TIMEOUT_S)

    def timed(self, *args: str) -> Launch:
        """``python ARGS`` run under ``hostspeed.py``; sets the launch's
        ``scaled_s``, its wall time at the reference host's speed."""
        samples = self.work / f"host-speed-{self._launches + 1}.bin"
        launch = self.launch([sys.executable, str(HERE / "hostspeed.py"), str(samples), *args])
        kernel_s = hostspeed.read_samples(samples) if samples.exists() else []
        scale = KERNEL_REFERENCE_S / statistics.median(kernel_s) if kernel_s else 1.0
        launch.scaled_s = launch.wall_s * scale
        return launch

    def sweep(self, store: Path) -> Launch:
        return self.timed("-m", "repro.cli", *self.cli_argv(store))

    def problem(self, text: str) -> None:
        self.problems.append(text)

    # -- output checks -----------------------------------------------------

    def check_sweep(self, label: str, exit_code: int, stdout: str, stderr: str,
                    store: Optional[str], cells: int, cached: bool) -> None:
        """Count one sweep's cells as attempted and check its summary line.

        A failed process fails all its cells, a replay the cells it did not
        read from the store; :meth:`check_stores` counts the cells of
        ``store`` that are not ``done``.
        """
        self.attempted += cells
        if exit_code != 0:
            self.failed += cells
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            self.problem(f"{label}: exit {exit_code} {tail}")
            return
        expected = (cells, 0) if cached else (0, cells)
        match = CACHE_LINE.search(stdout)
        found = (int(match[1]), int(match[2])) if match else (0, 0)
        if found != expected:
            self.problem(
                f"{label}: expected {expected[0]} cached / {expected[1]} simulated "
                f"cells, got {match[0] if match else 'no summary line'}"
            )
        if cached:
            self.failed += cells - min(found[0], cells)
        if store is not None:
            self.expected_cells[store] = cells

    def check_stores(self, stores: Dict[str, dict]) -> None:
        """Every store of a successful sweep holds its cells, all ``done``;
        after the first, its cells are among the first store's (the same
        grid, or the in-process reference's subset of it) and byte-identical
        to them."""
        seen: Dict[str, str] = {}
        for store_dir, cells in stores.items():
            if store_dir not in self.expected_cells:
                continue
            expected = self.expected_cells[store_dir]
            done = {key: value[2] for key, value in cells.items() if value[0] == "done"}
            self.failed += expected - min(len(done), expected)
            if len(cells) != expected or len(done) != len(cells):
                self.problem(
                    f"store {Path(store_dir).name}: {len(done)} done of {len(cells)} "
                    f"cells, expected {expected}"
                )
            if not seen:
                seen = done
                continue
            unknown = len(done.keys() - seen.keys())
            differing = sum(seen[key] != value for key, value in done.items() if key in seen)
            if unknown or differing:
                self.problem(
                    f"store {Path(store_dir).name}: {unknown} cell(s) missing from and "
                    f"{differing} differing from the first store"
                )

    def check_means(self, means: Dict[str, float]) -> None:
        seed_means = self.spec["seed_means_mbps"].get(str(self.seed))
        if seed_means is not None:
            reference, tolerance = seed_means, SEED_MEAN_RTOL
            source = f"the recorded mean of seed {self.seed}"
        else:
            reference, tolerance = self.spec["reference_mean_mbps"], self.spec["mean_tolerance"]
            source = "the 20-seed reference"
        for protocol, expected in reference.items():
            got = means.get(protocol)
            if got is None or abs(got - expected) > tolerance * expected:
                self.problem(
                    f"{protocol}: mean total throughput {got} Mb/s is not within "
                    f"{tolerance:.2g} (relative) of {source}, {expected} Mb/s"
                )
        if self.spec["nplus_beats_80211n"]:
            if not means.get("n+", 0.0) > means.get("802.11n", float("inf")):
                self.problem(
                    f"n+ ({means.get('n+')} Mb/s) does not beat 802.11n "
                    f"({means.get('802.11n')} Mb/s)"
                )
        self.means = means

    # -- phases ------------------------------------------------------------

    def cold_sweep(self, index: int) -> Tuple[Path, Launch]:
        store = self.work / f"cold-{index}"
        cold = self.sweep(store)
        self.check_sweep(f"cold sweep {index}", cold.exit, cold.stdout, cold.stderr,
                         str(store), self.cells, cached=False)
        return store, cold

    def replay(self, store: Path, cold: Launch) -> Launch:
        replay = self.sweep(store)
        self.check_sweep("warm replay", replay.exit, replay.stdout, replay.stderr,
                         None, self.cells, cached=True)

        def table(stdout: str) -> List[str]:
            return [line for line in stdout.splitlines() if not CACHE_LINE.search(line)]

        if table(cold.stdout) != table(replay.stdout):
            self.problem("warm replay printed a different table than the cold sweep")
        return replay

    def inproc(self, stores: List[Path], trace: bool) -> dict:
        """Run ``inproc.py`` and check its sweeps against the given stores."""
        out = self.work / "inproc.json"
        cmd = [
            sys.executable, str(HERE / "inproc.py"), "--out", str(out),
            "--work", str(self.work / "inproc"),
        ]
        cells = 0
        if trace:
            OUTPUT_DIR.mkdir(exist_ok=True)
            self.spans_path = OUTPUT_DIR / f"spans-{self.name}-seed{self.seed}.csv.gz"
            cmd += ["--trace", "--spans", str(self.spans_path)]
            cells = self.cells
        elif self.workers > 1:
            # One-worker cold sweeps already take the in-process code path.
            cmd += ["--reference-runs", str(REFERENCE_RUNS)]
            cells = self.cells * REFERENCE_RUNS // self.runs
        cmd += ["--stores", *map(str, stores), "--", *self.cli_argv(None)]
        launch = self.launch(cmd)
        if launch.exit != 0:
            self.check_sweep("in-process sweeps", launch.exit, "", launch.stderr,
                             None, cells, cached=False)
            return {}
        result = json.loads(out.read_text())
        for run in result["runs"]:
            self.check_sweep(f"in-process sweep {run['label']}", run["exit"],
                             run["stdout"], "", run["store"], cells, cached=False)
        self.check_means(result["means_mbps"])
        self.check_stores(result["stores"])
        return result

    def setup(self) -> Launch:
        launch = self.timed("-c", "import repro.cli")
        if launch.exit != 0:
            self.problem(f"import repro.cli: exit {launch.exit}")
        return launch

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        rounds = max(MIN_REPEATS, round(seconds / self.spec["round_s"]))
        # Set-up launches and replays are interleaved with the cold sweeps
        # so that all three sample the same stretches of host speed.
        setups: List[Launch] = []
        colds = self.colds
        replays: List[Launch] = []
        stores: List[Path] = []
        for _ in range(rounds):
            setups.append(self.setup())
            store, cold = self.cold_sweep(len(colds))
            stores.append(store)
            colds.append(cold)
            replays.append(self.replay(store, cold))
        self.inproc(stores, trace=False)
        return {
            "setup_s": statistics.median(launch.scaled_s for launch in setups),
            "cells_per_s": self.cells / statistics.median(cold.scaled_s for cold in colds),
            "replay_s": statistics.median(replay.scaled_s for replay in replays),
            "peak_rss_mb": statistics.median(cold.peak_rss_mb for cold in colds),
        }

    def per_layer(self) -> Dict[str, float]:
        store, cold = self.cold_sweep(0)
        self.replay(store, cold)
        breakdown = self.import_breakdown()
        result = self.inproc([store], trace=True)
        if not result:
            return {}
        self.traced = result
        return {**result["layers"], **breakdown}

    def import_breakdown(self) -> Dict[str, float]:
        """Median cumulative ``-X importtime`` seconds per top-level package."""
        samples: Dict[str, List[float]] = {package: [] for package in IMPORT_PACKAGES}
        for _ in range(IMPORTTIME_LAUNCHES):
            launch = self.launch([sys.executable, "-X", "importtime", "-c", "import repro.cli"])
            if launch.exit != 0:
                self.problem(f"python -X importtime: exit {launch.exit}")
                continue
            for package, seconds in import_cumulative(launch.stderr).items():
                samples[package].append(seconds)
        return {
            f"import.{package}_s": statistics.median(values) if values else 0.0
            for package, values in samples.items()
        }


def _units(trace: bool) -> Dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }


def _print_end_to_end(workload: Workload, metrics: Dict[str, float]) -> None:
    print(f"\n== {workload.name} (seed {workload.seed}): {workload.spec['why']}")
    print(f"   {workload.spec['command'].format(seed=workload.seed, store='<fresh dir>')}")
    print(
        f"   {len(workload.colds)} cold sweep(s) of {workload.cells} cells: "
        + ", ".join(f"{cold.wall_s:.2f}s" for cold in workload.colds)
        + " wall; " + ", ".join(f"{cold.scaled_s:.2f}s" for cold in workload.colds)
        + " scaled"
    )
    print("   mean Mb/s: " + ", ".join(f"{p} {m:.2f}" for p, m in workload.means.items()))


def _print_layers(workload: Workload, metrics: Dict[str, float]) -> None:
    print(f"\n== {workload.name} (seed {workload.seed}), traced in-process: "
          f"{workload.traced['traced_wall_s']:.2f} s wall, "
          f"{workload.traced['spans']} spans -> {workload.spans_path.relative_to(ROOT)}")
    print(f"   {'layer':<13}{'self_s':>10}{'calls':>10}{'share':>8}")
    layers = [key[: -len(".share")] for key in metrics if key.endswith(".share")]
    for layer in sorted(layers, key=lambda name: -metrics[f"{name}.share"]):
        print(
            f"   {layer:<13}{metrics[f'{layer}.self_s']:>10.3f}"
            f"{int(metrics[f'{layer}.calls']):>10}{metrics[f'{layer}.share']:>8.3f}"
        )
    for key, value in metrics.items():
        if not key.endswith((".self_s", ".calls", ".share")):
            print(f"   {key:<34}{value:.4g}")


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = Workload(name, seed, work)
    if trace:
        metrics = workload.per_layer()
        if metrics:
            _print_layers(workload, metrics)
    else:
        metrics = workload.end_to_end(seconds)
        _print_end_to_end(workload, metrics)
    units = _units(trace)
    for problem in workload.problems:
        print(f"   CHECK FAILED: {problem}")
    print("   checks: " + ("all passed" if not workload.problems else "FAILED"))
    return {
        "correct": not workload.problems,
        "attempted": max(workload.attempted, 1),
        "failed": workload.failed,
        "metrics": {
            key: {"value": value, "unit": units.get(key, "")}
            for key, value in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end repro sweep benchmark.")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(
            f"perfbench: no repro sources under {ROOT / 'src'}; run from the "
            "repository root", file=sys.stderr,
        )
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUTPUT_DIR.mkdir(exist_ok=True)
    work = OUTPUT_DIR / f"work-{os.getpid()}"
    results = {}
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            results[name] = run(name, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        print(f"\n{'workload':<18}{'metric':<16}{'value':>12}  unit")
        for name, result in results.items():
            for key, value in result["metrics"].items():
                print(f"{name:<18}{key:<16}{value['value']:>12.4g}  {value['unit']}")
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, result in results.items()
                for key, value in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
