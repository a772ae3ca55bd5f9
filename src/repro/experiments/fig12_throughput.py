"""Fig. 12 -- throughput of n+ vs 802.11n in the three-pair scenario.

The experiment sweeps random node placements of the Fig. 3 topology
(1-, 2- and 3-antenna pairs), runs both protocols on the same channel
realisations, and collects the CDFs the paper plots: total network
throughput and per-pair throughput.  The headline numbers of §6.3 are
derived from the same data: the total roughly doubles, the 2-antenna
pair gains ~1.5x, the 3-antenna pair gains ~3.5x and the single-antenna
pair loses only a few percent.

The sweep itself runs through :func:`repro.sim.sweep.run_sweep`, so the
same experiment scales to dense scenario grids (``scenario="dense-lan-20"``
etc.), fans out over worker processes (``workers=4``) and memoises per-run
results in an on-disk cache (``cache_dir=...``) -- all without changing
the numbers a serial run produces.
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

__all__ = ["ThroughputExperiment", "run_throughput_experiment", "summarize"]

#: §6.3 headline labels for the default scenario's pairs.
_HEADLINE_LABELS = {
    "tx1->rx1": "single-antenna pair (tx1)",
    "tx2->rx2": "2-antenna pair (tx2)",
    "tx3->rx3": "3-antenna pair (tx3)",
}


@dataclass
class ThroughputExperiment:
    """Results of the Fig. 12 reproduction.

    Attributes
    ----------
    totals:
        Total network throughput per run, keyed by protocol (Mb/s).
    per_pair:
        Per-pair throughput per run, keyed by protocol then pair name.
    """

    totals: Dict[str, List[float]] = field(default_factory=dict)
    per_pair: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    # -- derived summaries ------------------------------------------------------

    def pair_names(self) -> List[str]:
        """The traffic pairs present in the results."""
        for per in self.per_pair.values():
            return list(per)
        return []

    def gain_over(self, baseline: str, pair_name: Optional[str] = None) -> RunRatios:
        """Per-run throughput ratios of n+ over ``baseline``, in total or
        for one pair."""
        if pair_name is None:
            return per_run_ratios(self.totals.get("n+", []), self.totals.get(baseline, []))
        return per_run_ratios(
            self.per_pair["n+"][pair_name], self.per_pair[baseline][pair_name]
        )


def run_throughput_experiment(
    n_runs: int = 20,
    duration_us: float = 120_000.0,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    scenario: Union[str, Callable[[], Scenario]] = "three-pair",
    workers: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
) -> ThroughputExperiment:
    """Run the Fig. 12 sweep.

    Parameters
    ----------
    n_runs:
        Number of random placements (each run compares both protocols on
        the same channels).
    duration_us:
        Simulated time per run.
    seed:
        Base random seed.
    config:
        Override the full simulation configuration (``duration_us`` is
        ignored if this is given).
    scenario:
        Registered scenario name or factory; the paper's Fig. 12 uses the
        default ``"three-pair"``, and the dense LANs
        (``"dense-lan-20"``...) run the same comparison at scale.
    workers:
        Worker processes for the sweep (1 = serial, ``None`` = all cores).
    cache_dir:
        Optional on-disk results store; repeated invocations replay
        unchanged runs instead of recomputing them.
    resume:
        Resume an interrupted cached sweep (see
        :func:`repro.sim.sweep.run_sweep`); requires ``cache_dir``.
    """
    config = config or SimulationConfig(duration_us=duration_us)
    protocols = ["802.11n", "n+"]
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
    pair_names = sweep.link_names()

    experiment = ThroughputExperiment()
    for protocol in protocols:
        experiment.totals[protocol] = [m.total_throughput_mbps() for m in raw[protocol]]
        experiment.per_pair[protocol] = {
            name: [m.throughput_mbps(name) for m in raw[protocol]] for name in pair_names
        }
    return experiment


def summarize(experiment: ThroughputExperiment) -> str:
    """Render the Fig. 12 CDF summaries and the §6.3 headline gains."""
    lines = ["-- Fig. 12(a): total network throughput (Mb/s) --"]
    for protocol in experiment.totals:
        lines.append(format_cdf_summary(protocol, experiment.totals[protocol]))
    for index, pair in enumerate(experiment.pair_names(), start=2):
        lines.append(f"-- Fig. 12({chr(ord('a') + index - 1)}): throughput of {pair} (Mb/s) --")
        for protocol in experiment.per_pair:
            lines.append(format_cdf_summary(protocol, experiment.per_pair[protocol][pair]))
    gains = {"total network throughput": experiment.gain_over("802.11n")}
    for pair in experiment.pair_names():
        label = _HEADLINE_LABELS.get(pair, f"pair {pair}")
        gains[label] = experiment.gain_over("802.11n", pair)
    rows = [[label, f"{gain.mean:.2f}x", gain.dropped_note()] for label, gain in gains.items()]
    lines.append("-- throughput gain of n+ over 802.11n (mean of per-run ratios) --")
    lines.append(format_table(["quantity", "gain", "zero-baseline runs"], rows))
    return "\n".join(lines)
