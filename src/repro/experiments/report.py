"""Plain-text table helpers shared by experiments, benchmarks and examples,
and the per-run throughput results the figure sweeps report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sweep import SweepResult

__all__ = [
    "format_table",
    "format_cdf_summary",
    "percentile_row",
    "RunRatios",
    "per_run_ratios",
    "ThroughputExperiment",
]

#: A baseline throughput at or below this (Mb/s) delivered nothing, so the
#: run has no defined gain.
ZERO_BASELINE_MBPS = 1e-9


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


#: The percentiles a CDF summary reports.
PERCENTILES = (10, 25, 50, 75, 90)


def percentile_row(values: Sequence[float]) -> List[float]:
    """Return the :data:`PERCENTILES` of ``values`` (rounded)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return [float("nan")] * len(PERCENTILES)
    return [round(float(np.percentile(data, p)), 2) for p in PERCENTILES]


def format_cdf_summary(name: str, values: Sequence[float]) -> str:
    """One-line CDF summary: the percentiles the paper's figures convey."""
    p10, p25, p50, p75, p90 = percentile_row(values)
    mean = round(float(np.mean(list(values))), 2) if len(list(values)) else float("nan")
    return (
        f"{name}: mean={mean}  p10={p10}  p25={p25}  median={p50}  p75={p75}  p90={p90}"
    )


@dataclass(frozen=True)
class RunRatios:
    """Per-run throughput ratios of one protocol over a baseline.

    Runs whose baseline delivered nothing have no ratio; they are left out
    of ``ratios`` and counted in ``dropped``, so a summary can say how many
    runs its estimate rests on.
    """

    ratios: List[float]
    dropped: int

    @property
    def mean(self) -> float:
        """The estimator the headline tables print: the mean of the
        per-run ratios (``nan`` when every run was dropped)."""
        return float(np.mean(self.ratios)) if self.ratios else float("nan")

    def dropped_note(self) -> str:
        """``"k of n runs dropped"`` for a summary table."""
        return f"{self.dropped} of {len(self.ratios) + self.dropped} runs dropped"


def per_run_ratios(values: Sequence[float], baselines: Sequence[float]) -> RunRatios:
    """Ratios ``values[i] / baselines[i]`` of paired runs, skipping (and
    counting) runs whose baseline is at most :data:`ZERO_BASELINE_MBPS`."""
    ratios = [
        value / baseline
        for value, baseline in zip(values, baselines)
        if baseline > ZERO_BASELINE_MBPS
    ]
    return RunRatios(ratios, len(values) - len(ratios))


@dataclass
class ThroughputExperiment:
    """Per-run throughputs of a protocol comparison (Figs. 12 and 13).

    Attributes
    ----------
    totals:
        Total network throughput per run, keyed by protocol (Mb/s).
    per_link:
        Per-run throughput keyed by protocol, then by traffic-pair name
        (``"tx1->rx1"``, ``"AP2->c2+c3"``).
    """

    totals: Dict[str, List[float]] = field(default_factory=dict)
    per_link: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    @classmethod
    def from_sweep(cls, sweep: "SweepResult") -> "ThroughputExperiment":
        """The totals and per-link throughputs of every protocol of a
        strict sweep (no failed cells), in the sweep's protocol order."""
        names = sweep.link_names()
        experiment = cls()
        for protocol, runs in sweep.results.items():
            experiment.totals[protocol] = sweep.totals_mbps(protocol)
            experiment.per_link[protocol] = {
                name: [m.throughput_mbps(name) for m in runs] for name in names
            }
        return experiment

    def link_names(self) -> List[str]:
        """The traffic pairs present in the results."""
        for per in self.per_link.values():
            return list(per)
        return []

    def gain_over(self, baseline: str, link: Optional[str] = None) -> RunRatios:
        """Per-run throughput ratios of n+ over ``baseline``, in total or
        for one link."""
        if link is None:
            return per_run_ratios(self.totals.get("n+", []), self.totals.get(baseline, []))
        return per_run_ratios(self.per_link["n+"][link], self.per_link[baseline][link])
