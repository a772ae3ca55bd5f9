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

from typing import Optional

from repro.experiments.report import ThroughputExperiment, format_cdf_summary, format_table
from repro.sim.spec import SimulationConfig
from repro.sim.sweep import run_sweep

__all__ = ["run_throughput_experiment", "summarize"]

#: §6.3 headline labels for the default scenario's pairs.
_HEADLINE_LABELS = {
    "tx1->rx1": "single-antenna pair (tx1)",
    "tx2->rx2": "2-antenna pair (tx2)",
    "tx3->rx3": "3-antenna pair (tx3)",
}


def run_throughput_experiment(
    n_runs: int = 20,
    seed: int = 0,
    config: Optional[SimulationConfig] = None,
    scenario: str = "three-pair",
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
    seed:
        Base random seed.
    config:
        The simulation configuration (``None`` means the
        :class:`~repro.sim.spec.SimulationConfig` defaults).
    scenario:
        Registered scenario name; the paper's Fig. 12 uses the
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

    The sweep is strict: a figure averages complete, paired runs, so a
    failed cell raises :class:`~repro.exceptions.SimulationError` naming
    it rather than leaving a hole in the grid.
    """
    sweep = run_sweep(
        scenario,
        ["802.11n", "n+"],
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
    """Render the Fig. 12 CDF summaries and the §6.3 headline gains."""
    lines = ["-- Fig. 12(a): total network throughput (Mb/s) --"]
    for protocol in experiment.totals:
        lines.append(format_cdf_summary(protocol, experiment.totals[protocol]))
    for index, pair in enumerate(experiment.link_names(), start=2):
        lines.append(f"-- Fig. 12({chr(ord('a') + index - 1)}): throughput of {pair} (Mb/s) --")
        for protocol in experiment.per_link:
            lines.append(format_cdf_summary(protocol, experiment.per_link[protocol][pair]))
    gains = {"total network throughput": experiment.gain_over("802.11n")}
    for pair in experiment.link_names():
        label = _HEADLINE_LABELS.get(pair, f"pair {pair}")
        gains[label] = experiment.gain_over("802.11n", pair)
    rows = [[label, f"{gain.mean:.2f}x", gain.dropped_note()] for label, gain in gains.items()]
    lines.append("-- throughput gain of n+ over 802.11n (mean of per-run ratios) --")
    lines.append(format_table(["quantity", "gain", "zero-baseline runs"], rows))
    return "\n".join(lines)
