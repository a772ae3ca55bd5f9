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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.experiments.report import (
    RunRatios,
    format_cdf_summary,
    format_table,
    per_run_ratios,
)
from repro.sim.spec import SimulationConfig
from repro.sim.scenarios import Scenario
from repro.sim.sweep import run_sweep

__all__ = ["HeterogeneousExperiment", "run_heterogeneous_experiment", "summarize"]


@dataclass
class HeterogeneousExperiment:
    """Results of the Fig. 13 reproduction.

    Attributes
    ----------
    totals:
        Total throughput per run, keyed by protocol.
    per_flow:
        Per-flow throughput per run, keyed by protocol then flow name.
    """

    totals: Dict[str, List[float]] = field(default_factory=dict)
    per_flow: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def flow_names(self) -> List[str]:
        """The traffic flows present in the results."""
        for per in self.per_flow.values():
            return list(per)
        return []

    def gain_over(self, baseline: str, flow: Optional[str] = None) -> RunRatios:
        """Per-run throughput ratios of n+ over ``baseline``, in total or
        for one flow."""
        if flow is None:
            return per_run_ratios(self.totals.get("n+", []), self.totals.get(baseline, []))
        return per_run_ratios(self.per_flow["n+"][flow], self.per_flow[baseline][flow])


def run_heterogeneous_experiment(
    n_runs: int = 20,
    duration_us: float = 120_000.0,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    scenario: Union[str, Callable[[], Scenario]] = "heterogeneous-ap",
    workers: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
) -> HeterogeneousExperiment:
    """Run the Fig. 13 sweep over random placements.

    ``scenario``/``workers``/``cache_dir``/``resume`` behave as in
    :func:`repro.experiments.fig12_throughput.run_throughput_experiment`:
    any registered scenario (e.g. the dense LANs) can be swept, fanned out
    over worker processes, memoised in the on-disk results store, and
    resumed after an interruption.
    """
    config = config or SimulationConfig(duration_us=duration_us)
    protocols = ["802.11n", "beamforming", "n+"]
    sweep = run_sweep(
        scenario,
        protocols,
        n_runs=n_runs,
        seed=seed,
        config=config,
        workers=workers,
        cache_dir=cache_dir,
        resume=resume,
    )
    raw = sweep.results
    flow_names = sweep.link_names()
    experiment = HeterogeneousExperiment()
    for protocol in protocols:
        experiment.totals[protocol] = [m.total_throughput_mbps() for m in raw[protocol]]
        experiment.per_flow[protocol] = {
            name: [m.throughput_mbps(name) for m in raw[protocol]] for name in flow_names
        }
    return experiment


def summarize(experiment: HeterogeneousExperiment) -> str:
    """Render the Fig. 13 gain CDFs and headline ratios."""
    lines = ["-- total throughput per protocol (Mb/s) --"]
    for protocol in experiment.totals:
        lines.append(format_cdf_summary(protocol, experiment.totals[protocol]))
    for baseline, figure in (("802.11n", "Fig. 13(a)"), ("beamforming", "Fig. 13(b)")):
        lines.append(f"-- {figure}: throughput gain of n+ over {baseline} --")
        lines.append(format_cdf_summary("total gain", experiment.gain_over(baseline).ratios))
        for flow in experiment.flow_names():
            ratios = experiment.gain_over(baseline, flow).ratios
            lines.append(format_cdf_summary(f"gain of {flow}", ratios))
    gains = {
        "total, vs 802.11n": experiment.gain_over("802.11n"),
        "total, vs beamforming": experiment.gain_over("beamforming"),
    }
    if "c1->AP1" in experiment.flow_names():
        gains["single-antenna client (c1), vs 802.11n"] = experiment.gain_over("802.11n", "c1->AP1")
    if "AP2->c2+c3" in experiment.flow_names():
        gains["AP2 downlink flows, vs 802.11n"] = experiment.gain_over("802.11n", "AP2->c2+c3")
    rows = [[label, f"{gain.mean:.2f}x", gain.dropped_note()] for label, gain in gains.items()]
    lines.append("-- headline gains of n+ (mean of per-run ratios) --")
    lines.append(format_table(["quantity", "gain", "zero-baseline runs"], rows))
    return "\n".join(lines)
