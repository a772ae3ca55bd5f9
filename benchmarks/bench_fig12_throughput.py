"""Benchmark E5/E9 -- Fig. 12 and the §6.3 headline numbers: throughput of
n+ vs 802.11n in the three-pair scenario.

Paper's reported shape: the total network throughput roughly doubles, the
2-antenna pair gains ~1.5x, the 3-antenna pair gains ~3.5x, and the
single-antenna pair loses only a few percent.
"""

from __future__ import annotations

from reporting import print_block

from repro.experiments.fig12_throughput import run_throughput_experiment, summarize
from repro.sim.runner import SimulationConfig


def bench_fig12_throughput(benchmark):
    config = SimulationConfig(duration_us=100_000.0, n_subcarriers=12)
    experiment = benchmark.pedantic(
        run_throughput_experiment,
        kwargs={"n_runs": 12, "seed": 0, "config": config},
        rounds=1,
        iterations=1,
    )
    print_block("Fig. 12 -- throughput, n+ vs 802.11n (three-pair scenario)", summarize(experiment))

    # Shape assertions: who wins and roughly by how much.
    def gain(pair=None):
        return experiment.gain_over("802.11n", pair).mean

    assert gain() > 1.3, "n+ should clearly beat 802.11n in total throughput"
    assert gain("tx3->rx3") > 1.8, "the 3-antenna pair should gain the most"
    assert gain("tx3->rx3") > gain("tx2->rx2")
    assert gain("tx1->rx1") > 0.6, "the single-antenna pair should lose only a little"
