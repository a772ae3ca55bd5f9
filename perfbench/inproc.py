"""Run the real ``repro sweep`` CLI in-process, optionally traced.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/inproc.py --out result.json --work DIR [--reference-runs N]
        [--trace --spans spans.csv.gz] [--stores STORE_DIR ...] -- sweep --scenario ...

The arguments after ``--`` are a ``repro sweep`` command line.  Every
sweep here calls ``repro.cli.main`` with them plus its own ``--workers``
and a fresh ``--cache-dir`` under ``--work`` (appended, so they win over
any given earlier); the cell keys are exactly those of the same command
run from the shell.

Untraced, it sweeps only when given ``--reference-runs N``: the grid's
first N placements on one worker, whose cells -- keyed by placement seed,
not grid size -- are a subset of the whole grid's.  That is the in-process
reference for a CLI sweep that fanned out to several workers.  With
``--trace`` it times ``import repro.cli``, wraps the layer boundaries
(:mod:`tracer`) and runs the one-worker sweep :data:`TRACED_SWEEPS`
times, then runs the grid untraced on one and on two workers (tracing
overhead and parallel speed-up).  Finally it reads the cells of every
store it wrote, plus the ``--stores`` given, and writes one JSON document
to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time

import tracer as tracing

#: Traced sweeps of the grid.  A fixed count, so the per-layer numbers do
#: not depend on how fast the host or the program is; the first sweep also
#: warms the process up, so the overhead ratio uses the others.
TRACED_SWEEPS = 2


def _sweep(cli, argv, workers, store_dir):
    """One in-process ``repro sweep``; ``(wall seconds, exit code, stdout)``."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--workers", str(workers), "--cache-dir", store_dir])
    return time.perf_counter() - start, code, out.getvalue()


def _cells(store_dir):
    """``{cell key: [status, protocol, metrics JSON]}`` of one results store."""
    from repro.sim.store import ResultsStore

    with ResultsStore(store_dir) as store:
        return {
            cell.key: [cell.status, cell.protocol, cell.metrics_json]
            for cell in store.query(with_metrics=True)
        }


def _mean_throughputs(cells):
    """Per-protocol mean total throughput (Mb/s) of the ``done`` cells."""
    from repro.sim.metrics import NetworkMetrics

    totals = {}
    for status, protocol, metrics_json in cells.values():
        if status == "done":
            metrics = NetworkMetrics.from_dict(json.loads(metrics_json))
            totals.setdefault(protocol, []).append(metrics.total_throughput_mbps())
    return {protocol: statistics.fmean(values) for protocol, values in totals.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--stores", nargs="*", default=[])
    parser.add_argument(
        "--reference-runs",
        default=None,
        help="untraced: sweep the grid's first RUNS placements on one worker",
    )
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = tracing.Tracer()
    modules_before = len(sys.modules)
    import_start = time.perf_counter()
    import repro.cli as cli

    import_end = time.perf_counter()
    tracer.record_span("import:repro.cli", "import", import_start, import_end)
    runs = []

    def sweep(label, workers, extra=()):
        store_dir = os.path.join(args.work, label)
        wall, code, stdout = _sweep(cli, [*cli_argv, *extra], workers, store_dir)
        runs.append(
            {"label": label, "wall_s": wall, "exit": code, "stdout": stdout,
             "store": store_dir}
        )
        return wall

    result = {}
    if args.trace:
        with tracer:
            traced_walls = [sweep(f"traced-{i}", 1) for i in range(TRACED_SWEEPS)]
        untraced_1 = sweep("untraced-1w", 1)
        untraced_2 = sweep("untraced-2w", 2)
        wall = (import_end - import_start) + sum(traced_walls)
        layers = tracing.layer_report(tracer, wall, TRACED_SWEEPS)
        layers["import.calls"] = float(len(sys.modules) - modules_before)
        layers["sweep.speedup_2w"] = untraced_1 / untraced_2
        layers["trace.overhead_ratio"] = statistics.median(traced_walls[1:]) / untraced_1
        result.update(layers=layers, traced_wall_s=wall, spans=len(tracer.start))
        if args.spans:
            tracer.write_spans(args.spans)
    elif args.reference_runs is not None:
        sweep("reference-1w", 1, ["--runs", args.reference_runs])

    stores = {d: _cells(d) for d in [*args.stores, *(run["store"] for run in runs)]}
    # Means over a whole grid: the first given store, else the first sweep's.
    whole = args.stores[0] if args.stores else runs[0]["store"]
    result["means_mbps"] = _mean_throughputs(stores[whole])
    result["runs"] = runs
    result["stores"] = stores
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
