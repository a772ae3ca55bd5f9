#!/usr/bin/env python
"""Serial vs parallel sweep scaling, plus cache-replay timing.

Runs a fig12-style placement sweep (three-pair scenario, 802.11n vs n+)
three ways and reports wall-clock:

1. serial (``workers=1``),
2. parallel (``--workers``, default 4), asserting the metrics are
   byte-identical to the serial run,
3. a repeated parallel invocation against a warm on-disk cache,
   asserting every cell is a hit.

On a machine with >= ``--workers`` usable cores the parallel run is
expected to approach ``workers``-fold speedup (>= 3x at 4 workers); on a
constrained CI container the honest number is printed either way.  Pass
``--require-speedup R`` to make the script exit non-zero below a ratio
(useful as an acceptance gate on real hardware).

The script itself is not tracked in ``BENCH_core.json`` (it is an
orchestration benchmark, not a per-packet hot path), but the module also
carries a tracked ``pytest-benchmark`` function,
``bench_sweep_cached_replay_store``, that times a fully warm cache
replay through the SQLite results store -- a read of the manifest and
one batched load of every cell, with no simulation and no write.

    python benchmarks/bench_sweep_scaling.py
    python benchmarks/bench_sweep_scaling.py --runs 50 --workers 4 --require-speedup 3
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.runner import SimulationConfig  # noqa: E402
from repro.sim.sweep import default_workers, run_sweep  # noqa: E402

# -- tracked cache-replay benchmarks -----------------------------------------
#
# A fig12-sized grid (2 protocols x 50 runs = 100 cells) computed once,
# then replayed from the warm store inside the benchmark loop.  Every
# replay only reads the store -- the manifest lookup plus one batched
# SELECT -- so it neither simulates nor writes, and closes with no
# checkpoint to sync.

_REPLAY_CONFIG = SimulationConfig(duration_us=2_000.0, n_subcarriers=8)
_REPLAY_GRID = dict(
    scenario="three-pair", protocols=["802.11n", "n+"], n_runs=50, seed=0
)
_REPLAY_CELLS = _REPLAY_GRID["n_runs"] * len(_REPLAY_GRID["protocols"])

_state: dict = {}


def _warm_cache() -> str:
    """Populate (once) a results store; return its directory."""
    if "store" not in _state:
        tmp = tempfile.TemporaryDirectory(prefix="bench-replay-")
        _state["store"] = tmp  # keep alive: cleaned up at interpreter exit
        _replay(tmp.name)
    return _state["store"].name


def _replay(cache_dir: str):
    grid = _REPLAY_GRID
    return run_sweep(
        grid["scenario"],
        grid["protocols"],
        n_runs=grid["n_runs"],
        seed=grid["seed"],
        config=_REPLAY_CONFIG,
        cache_dir=cache_dir,
    )


def bench_sweep_cached_replay_store(benchmark):
    """Warm 100-cell replay through the SQLite results store."""
    cache_dir = _warm_cache()
    result = benchmark(lambda: _replay(cache_dir))
    assert result.cache_misses == 0
    assert result.cache_hits == _REPLAY_CELLS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=50, help="random placements")
    parser.add_argument("--workers", type=int, default=4, help="worker processes")
    parser.add_argument("--scenario", default="three-pair", help="registered scenario")
    parser.add_argument(
        "--duration-ms", type=float, default=20.0, help="simulated time per run"
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        help="exit non-zero if parallel/serial speedup falls below this ratio",
    )
    args = parser.parse_args(argv)

    config = SimulationConfig(duration_us=args.duration_ms * 1000.0, n_subcarriers=8)
    protocols = ["802.11n", "n+"]
    grid = f"{args.scenario}: {args.runs} placements x {protocols}"
    print(f"sweep grid   : {grid}")
    print(f"usable cores : {default_workers()}")

    start = time.perf_counter()
    serial = run_sweep(
        args.scenario, protocols, n_runs=args.runs, seed=args.seed, config=config, workers=1
    )
    serial_s = time.perf_counter() - start
    print(f"serial       : {serial_s:7.2f} s")

    start = time.perf_counter()
    parallel = run_sweep(
        args.scenario,
        protocols,
        n_runs=args.runs,
        seed=args.seed,
        config=config,
        workers=args.workers,
    )
    parallel_s = time.perf_counter() - start
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"parallel x{args.workers} : {parallel_s:7.2f} s   ({speedup:.2f}x speedup)")

    for protocol in protocols:
        serial_dicts = [m.to_dict() for m in serial.results[protocol]]
        parallel_dicts = [m.to_dict() for m in parallel.results[protocol]]
        assert serial_dicts == parallel_dicts, (
            f"parallel sweep diverged from serial for {protocol}"
        )
    print("parallel metrics are byte-identical to serial")

    with tempfile.TemporaryDirectory() as tmp:
        run_sweep(
            args.scenario,
            protocols,
            n_runs=args.runs,
            seed=args.seed,
            config=config,
            workers=args.workers,
            cache_dir=tmp,
        )
        start = time.perf_counter()
        cached = run_sweep(
            args.scenario,
            protocols,
            n_runs=args.runs,
            seed=args.seed,
            config=config,
            workers=args.workers,
            cache_dir=tmp,
        )
        cached_s = time.perf_counter() - start
        assert cached.cache_misses == 0, "warm cache should satisfy every cell"
        print(
            f"cache replay : {cached_s:7.2f} s   "
            f"({cached.cache_hits} hits, {serial_s / max(cached_s, 1e-9):.0f}x vs serial)"
        )

    if args.require_speedup is not None and speedup < args.require_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required {args.require_speedup:.2f}x "
            f"(usable cores: {default_workers()})"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
