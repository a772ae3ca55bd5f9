#!/usr/bin/env python
"""Construction-memory benchmarks: tracemalloc peak bytes per pair.

The ChannelBank keeps each unordered pair's draws -- its tap normals,
tap scales and SNR -- and computes a pair's ``(n_sub, N, M)`` response
only when a run first reads the link, serving the reciprocal direction
as a transposed *view* of it.  A freshly built network therefore holds
no response at all.  This module measures that with :mod:`tracemalloc`:
the peak allocated bytes during one ``Network`` construction, absolute
and per pair, at the 100/200/500-station dense-LAN tiers, next to the
bytes the bank holds and the number of responses it has computed (zero
right after construction).

Run standalone for a table::

    python benchmarks/bench_network_memory.py
    python benchmarks/bench_network_memory.py --sizes 100,200 --json out.json

``benchmarks/run_all.py`` runs it as a subprocess and tracks the
``mem_build_network_*`` peak bytes in ``BENCH_core.json`` next to the
timing benchmarks, so a memory regression fails ``--compare`` exactly
like a runtime regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The tiers measured by default, and the draw contract each tier uses
#: in practice (the 500-station scenario declares the grouped contract).
DEFAULT_SIZES = (100, 200, 500)
N_SUBCARRIERS = 16
SEED = 0


def measure(n_stations: int, channel_draws: str | None = None) -> dict:
    """Peak construction bytes of one ``dense-lan-<n_stations>`` network.

    The scenario and testbed are built *before* tracing starts, so the
    measurement covers exactly the ``Network`` construction (placements,
    channel draws, ChannelBank storage).  Returns a dict with
    ``peak_bytes``, ``bytes_per_pair``, ``n_pairs``, ``bank_bytes``
    (the kept draws plus the computed responses), ``computed_slots``
    and the effective ``channel_draws``.
    """
    import numpy as np

    from repro.sim.network import Network
    from repro.sim.spec import RunSpec
    from repro.sim.scenarios import scenario_factory

    scenario = scenario_factory(f"dense-lan-{n_stations}")()
    draws = channel_draws or RunSpec.resolve(scenario).channel_draws
    testbed = scenario.make_testbed()
    rng = np.random.default_rng(SEED)

    tracemalloc.start()
    tracemalloc.reset_peak()
    network = Network(
        scenario.stations,
        scenario.pairs,
        rng,
        testbed=testbed,
        n_subcarriers=N_SUBCARRIERS,
        channel_draws=draws,
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    bank = network.channels
    # What the bank holds: every pair's kept draws, plus the responses
    # computed so far (one per read pair; reciprocals are free views).
    n_pairs = sum(len(block) for block in bank._pair_groups)
    computed = [response for slots in bank._responses for response in slots.values()]
    bank_bytes = sum(
        normals.nbytes + scales.nbytes + snrs.nbytes
        for normals, scales, snrs in zip(bank._normals, bank._scales, bank._snrs)
    ) + sum(response.nbytes for response in computed)
    return {
        "n_stations": n_stations,
        "n_pairs": n_pairs,
        "channel_draws": draws,
        "peak_bytes": int(peak),
        "bytes_per_pair": peak / n_pairs if n_pairs else 0.0,
        "bank_bytes": int(bank_bytes),
        "computed_slots": len(computed),
    }


def run(sizes, channel_draws: str | None = None) -> dict:
    """``{mem_build_network_<n>: measurement}`` for every requested tier.

    ``channel_draws`` forces one contract for every tier (for e.g. a
    batched-vs-grouped memory comparison); ``None`` uses each tier's
    effective contract.
    """
    return {
        f"mem_build_network_{size}": measure(size, channel_draws) for size in sizes
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated station counts (default: 100,200,500)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="also write the results as JSON"
    )
    parser.add_argument(
        "--channel-draws",
        choices=["grouped", "batched"],
        default=None,
        help="force one draw contract for every tier (default: each tier's "
        "effective contract -- batched at 100/200, grouped at 500)",
    )
    args = parser.parse_args(argv)
    sizes = [int(part) for part in args.sizes.split(",") if part]

    results = run(sizes, args.channel_draws)
    header = (
        f"{'benchmark':28s} {'contract':>9s} {'pairs':>8s} {'peak':>10s} "
        f"{'bytes/pair':>11s} {'bank':>10s} {'computed':>9s}"
    )
    print(header)
    for name, entry in results.items():
        print(
            f"{name:28s} {entry['channel_draws']:>9s} {entry['n_pairs']:>8d} "
            f"{entry['peak_bytes'] / 1e6:>8.1f}MB {entry['bytes_per_pair']:>11.0f} "
            f"{entry['bank_bytes'] / 1e6:>8.1f}MB {entry['computed_slots']:>9d}"
        )
    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
