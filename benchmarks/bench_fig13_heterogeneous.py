"""Benchmark E6/E7 -- Fig. 13: heterogeneous transmit/receive antenna
counts, n+ vs 802.11n and vs multi-user beamforming.

Paper's reported shape: n+ improves the total network throughput by ~2.4x
over 802.11n and ~1.8x over beamforming; the AP's downlink flows gain
~3.5x while the single-antenna uplink client loses only slightly.
"""

from __future__ import annotations

from reporting import print_block

from repro.experiments.fig13_heterogeneous import run_heterogeneous_experiment, summarize
from repro.sim.runner import SimulationConfig


def bench_fig13_heterogeneous(benchmark):
    config = SimulationConfig(duration_us=100_000.0, n_subcarriers=12)
    experiment = benchmark.pedantic(
        run_heterogeneous_experiment,
        kwargs={"n_runs": 12, "seed": 0, "config": config},
        rounds=1,
        iterations=1,
    )
    print_block(
        "Fig. 13 -- heterogeneous scenario, n+ vs 802.11n and beamforming", summarize(experiment)
    )

    # Shape assertions: ordering of the three protocols and who gains.
    assert experiment.gain_over("802.11n").mean > 1.2
    assert experiment.gain_over("beamforming").mean > 1.0
    assert experiment.gain_over("802.11n", "AP2->c2+c3").mean > 1.5
    assert experiment.gain_over("802.11n", "c1->AP1").mean > 0.5
