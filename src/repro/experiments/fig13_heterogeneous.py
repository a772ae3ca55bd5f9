"""Fig. 13 -- heterogeneous transmitter/receiver antenna counts.

The Fig. 4 topology: a single-antenna client c1 sends uplink traffic to a
2-antenna AP1 while a 3-antenna AP2 sends downlink traffic to two
2-antenna clients.  n+ is compared against both today's 802.11n and the
multi-user beamforming baseline of Aryafar et al. [7].  Expected shape:
n+ beats both baselines in total throughput (the paper reports 2.4x over
802.11n and 1.8x over beamforming), the AP's clients gain the most, and
the single-antenna client loses only slightly.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.report import ThroughputExperiment, format_cdf_summary, format_table
from repro.sim.spec import SimulationConfig
from repro.sim.sweep import run_sweep

__all__ = ["run_heterogeneous_experiment", "summarize"]


def run_heterogeneous_experiment(
    n_runs: int = 20,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    scenario: str = "heterogeneous-ap",
    workers: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
) -> ThroughputExperiment:
    """Run the Fig. 13 sweep over random placements.

    ``config``/``scenario``/``workers``/``cache_dir``/``resume`` behave as in
    :func:`repro.experiments.fig12_throughput.run_throughput_experiment`:
    any registered scenario (e.g. the dense LANs) can be swept, fanned out
    over worker processes, memoised in the on-disk results store, and
    resumed after an interruption; a failed cell raises, as there.
    """
    sweep = run_sweep(
        scenario,
        ["802.11n", "beamforming", "n+"],
        n_runs=n_runs,
        seed=seed,
        config=config,
        workers=workers,
        cache_dir=cache_dir,
        resume=resume,
        strict=True,
    )
    return ThroughputExperiment.from_sweep(sweep)


def summarize(experiment: ThroughputExperiment) -> str:
    """Render the Fig. 13 gain CDFs and headline ratios."""
    lines = ["-- total throughput per protocol (Mb/s) --"]
    for protocol in experiment.totals:
        lines.append(format_cdf_summary(protocol, experiment.totals[protocol]))
    for baseline, figure in (("802.11n", "Fig. 13(a)"), ("beamforming", "Fig. 13(b)")):
        lines.append(f"-- {figure}: throughput gain of n+ over {baseline} --")
        lines.append(format_cdf_summary("total gain", experiment.gain_over(baseline).ratios))
        for flow in experiment.link_names():
            ratios = experiment.gain_over(baseline, flow).ratios
            lines.append(format_cdf_summary(f"gain of {flow}", ratios))
    gains = {
        "total, vs 802.11n": experiment.gain_over("802.11n"),
        "total, vs beamforming": experiment.gain_over("beamforming"),
    }
    if "c1->AP1" in experiment.link_names():
        gains["single-antenna client (c1), vs 802.11n"] = experiment.gain_over("802.11n", "c1->AP1")
    if "AP2->c2+c3" in experiment.link_names():
        gains["AP2 downlink flows, vs 802.11n"] = experiment.gain_over("802.11n", "AP2->c2+c3")
    rows = [[label, f"{gain.mean:.2f}x", gain.dropped_note()] for label, gain in gains.items()]
    lines.append("-- headline gains of n+ (mean of per-run ratios) --")
    lines.append(format_table(["quantity", "gain", "zero-baseline runs"], rows))
    return "\n".join(lines)
