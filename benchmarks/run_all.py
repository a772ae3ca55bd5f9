#!/usr/bin/env python
"""Perf-regression harness for the core-primitive benchmarks.

Runs the tracked ``pytest-benchmark`` suite plus the construction-memory
measurements and maintains a committed baseline (``BENCH_core.json`` at
the repository root) so hot-path regressions -- runtime *and* memory --
are caught mechanically:

    python benchmarks/run_all.py             # run suite, (re)write BENCH_core.json
    python benchmarks/run_all.py --compare   # run suite, fail on >25% regressions
    python benchmarks/run_all.py --compare --quick   # the CI-affordable gate
    python benchmarks/run_all.py --compare --threshold 0.5

``--compare`` exits non-zero if any tracked benchmark's mean runtime (or
``mem_*`` entry's peak bytes) regresses more than ``--threshold``
(default 0.25, i.e. 25%) against the committed baseline.  New benchmarks
that have no baseline entry are reported but do not fail the comparison;
refresh the baseline to start tracking them.

``--quick`` skips the expensive entries -- the 500-station tier and the
comparison entries -- so the gate fits in a CI
minute; baseline entries that were deliberately not run are reported but
do not fail a quick comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_core.json"

#: Benchmark files whose timings are tracked against the baseline.  The
#: figure-reproduction benchmarks are excluded: they are experiment
#: re-runs, not per-packet hot paths.  ``bench_sweep_scaling`` tracks
#: only its warm results-store replay; its scaling script remains
#: untracked.
TRACKED_FILES = [
    "benchmarks/bench_core_primitives.py",
    "benchmarks/bench_dense_rounds.py",
    "benchmarks/bench_build_network.py",
    "benchmarks/bench_faults.py",
    "benchmarks/bench_fidelity.py",
    "benchmarks/bench_recovery.py",
    "benchmarks/bench_sweep_scaling.py",
]

#: Entries skipped by ``--quick``: the 500-station tier and the v2
#: comparison entry.  Each has a faster tracked sibling, so quick mode
#: still covers every hot path once.
QUICK_DESELECT = [
    "bench_build_network_500",
    "bench_build_network_200_batched",
]

#: Station counts measured by the memory benchmark (``--quick`` drops 500).
MEMORY_SIZES = (100, 200, 500)
QUICK_MEMORY_SIZES = (100, 200)


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_suite(quick: bool = False) -> dict:
    """Run the tracked benchmarks; return ``{name: {"mean_s": seconds}}``."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            *TRACKED_FILES,
            "-o",
            "python_files=bench_*.py",
            "-o",
            "python_functions=bench_*",
            "--benchmark-only",
            "-p",
            "no:cacheprovider",
            "-q",
            f"--benchmark-json={json_path}",
        ]
        if quick:
            command += ["-k", " and ".join(f"not {name}" for name in QUICK_DESELECT)]
        result = subprocess.run(command, cwd=REPO_ROOT, env=_env_with_src())
        if result.returncode != 0:
            raise SystemExit(f"benchmark run failed with exit code {result.returncode}")
        payload = json.loads(json_path.read_text())
    entries = {}
    for bench in payload["benchmarks"]:
        entries[bench["name"]] = {"mean_s": bench["stats"]["mean"]}
    if not entries:
        raise SystemExit("benchmark run produced no timings")
    return entries


def run_memory(quick: bool = False) -> dict:
    """Run the construction-memory measurements in a fresh interpreter.

    Returns ``{mem_build_network_<n>: {"peak_bytes": bytes}}``.  A
    subprocess keeps tracemalloc's accounting clean of this harness.
    """
    sizes = QUICK_MEMORY_SIZES if quick else MEMORY_SIZES
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "memory.json"
        command = [
            sys.executable,
            "benchmarks/bench_network_memory.py",
            "--sizes",
            ",".join(str(size) for size in sizes),
            "--json",
            str(json_path),
        ]
        result = subprocess.run(command, cwd=REPO_ROOT, env=_env_with_src())
        if result.returncode != 0:
            raise SystemExit(f"memory benchmark failed with exit code {result.returncode}")
        payload = json.loads(json_path.read_text())
    return {name: {"peak_bytes": entry["peak_bytes"]} for name, entry in payload.items()}


def _metric(entry: dict):
    """``(value, formatted)`` of a baseline/run entry, either metric."""
    if "mean_s" in entry:
        return entry["mean_s"], f"{entry['mean_s'] * 1e3:>10.3f}ms"
    return entry["peak_bytes"], f"{entry['peak_bytes'] / 1e6:>10.1f}MB"


def write_baseline(entries: dict) -> None:
    baseline = {
        "note": (
            "Mean runtimes (seconds) and construction peaks (bytes) of the "
            "tracked benchmarks. Regenerate with: python benchmarks/run_all.py"
        ),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "benchmarks": {name: entry for name, entry in sorted(entries.items())},
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote baseline with {len(entries)} benchmarks to {BASELINE_PATH}")


def _expected_quick_skips() -> set:
    """Baseline entries ``--quick`` deliberately does not run."""
    skipped_sizes = set(MEMORY_SIZES) - set(QUICK_MEMORY_SIZES)
    return set(QUICK_DESELECT) | {f"mem_build_network_{size}" for size in skipped_sizes}


def compare(entries: dict, threshold: float, expected_missing: set = frozenset()) -> int:
    """Compare run entries to the baseline; non-zero on any regression.

    ``expected_missing`` names the baseline entries that were
    deliberately not run (quick mode's skip set).  Any *other* missing
    entry still fails -- a renamed or non-collecting benchmark must not
    silently drop out of the gate.
    """
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run without --compare to create one")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())["benchmarks"]

    regressions = []
    width = max(len(name) for name in entries)
    print(f"{'benchmark'.ljust(width)}  {'baseline':>12}  {'current':>12}  {'ratio':>7}")
    for name, entry in sorted(entries.items()):
        value, formatted = _metric(entry)
        base_entry = baseline.get(name)
        if base_entry is None:
            print(f"{name.ljust(width)}  {'--':>12}  {formatted}  {'new':>7}")
            continue
        base, base_formatted = _metric(base_entry)
        ratio = value / base if base > 0 else float("inf")
        flag = "  REGRESSED" if ratio > 1.0 + threshold else ""
        print(f"{name.ljust(width)}  {base_formatted}  {formatted}  {ratio:>6.2f}x{flag}")
        if ratio > 1.0 + threshold:
            regressions.append((name, ratio))
    missing = sorted(set(baseline) - set(entries))
    unexpected_missing = [name for name in missing if name not in expected_missing]
    for name in missing:
        note = (
            "skipped (--quick)"
            if name in expected_missing
            else "present in baseline but not run"
        )
        print(f"{name.ljust(width)}  {note}")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{threshold:.0%} against {BASELINE_PATH.name}"
        )
        return 1
    if unexpected_missing:
        print(f"\n{len(unexpected_missing)} baseline benchmark(s) were not run")
        return 1
    print(f"\nall {len(entries)} tracked benchmarks within {threshold:.0%} of the baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--compare",
        action="store_true",
        help="compare against the committed baseline instead of rewriting it",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated mean-runtime regression (default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the expensive entries (500-station tier, kept references) "
        "for a CI-affordable gate; skipped baseline entries do not fail",
    )
    args = parser.parse_args(argv)
    if args.quick and not args.compare:
        parser.error("--quick is a comparison mode; baselines need the full suite")

    entries = run_suite(quick=args.quick)
    entries.update(run_memory(quick=args.quick))
    if args.compare:
        expected = _expected_quick_skips() if args.quick else frozenset()
        return compare(entries, args.threshold, expected_missing=expected)
    write_baseline(entries)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
