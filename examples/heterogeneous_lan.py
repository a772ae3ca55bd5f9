#!/usr/bin/env python
"""A heterogeneous LAN: different antenna counts at transmitters and
receivers (Fig. 4 / Fig. 13).

A single-antenna client c1 uploads to a 2-antenna AP1 while a 3-antenna
AP2 has downlink traffic for two 2-antenna clients.  The example runs the
same random channel realisations under three MACs -- today's 802.11n,
multi-user beamforming, and n+ -- and prints the per-flow and total
throughputs plus the gain CD summary that Fig. 13 reports.

Run it with::

    python examples/heterogeneous_lan.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.experiments.report import format_cdf_summary, format_table
from repro.sim.runner import SimulationConfig
from repro.sim.sweep import run_sweep

#: Set REPRO_QUICK=1 to shrink the sweep for smoke testing.
QUICK = bool(os.environ.get("REPRO_QUICK"))

N_RUNS = 2 if QUICK else 5
PROTOCOLS = ("802.11n", "beamforming", "n+")


def main() -> None:
    config = SimulationConfig(duration_us=20_000.0 if QUICK else 80_000.0, n_subcarriers=8)
    results = run_sweep(
        "heterogeneous-ap", list(PROTOCOLS), n_runs=N_RUNS, seed=2, config=config
    ).results

    rows = []
    for protocol in PROTOCOLS:
        runs = results[protocol]
        total = np.mean([m.total_throughput_mbps() for m in runs])
        uplink = np.mean([m.throughput_mbps("c1->AP1") for m in runs])
        downlink = np.mean([m.throughput_mbps("AP2->c2+c3") for m in runs])
        rows.append(
            [protocol, f"{uplink:.1f}", f"{downlink:.1f}", f"{total:.1f}"]
        )
    print("Average throughput over", N_RUNS, "random placements (Mb/s):")
    print(format_table(["protocol", "c1->AP1 uplink", "AP2 downlink", "total"], rows))
    totals = {
        protocol: np.mean([m.total_throughput_mbps() for m in results[protocol]])
        for protocol in PROTOCOLS
    }
    assert all(value > 0.0 for value in totals.values()), "every protocol should deliver traffic"

    print("\nPer-run gain of n+ (the quantity plotted in Fig. 13):")
    for baseline in ("802.11n", "beamforming"):
        gains = [
            results["n+"][i].total_throughput_mbps()
            / max(results[baseline][i].total_throughput_mbps(), 1e-9)
            for i in range(N_RUNS)
        ]
        print(format_cdf_summary(f"total gain vs {baseline}", gains))


if __name__ == "__main__":
    main()
