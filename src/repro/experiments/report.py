"""Plain-text table helpers shared by experiments, benchmarks and examples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "format_table",
    "format_cdf_summary",
    "percentile_row",
    "RunRatios",
    "per_run_ratios",
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


def percentile_row(values: Sequence[float], percentiles: Sequence[float] = (10, 25, 50, 75, 90)) -> List[float]:
    """Return the requested percentiles of ``values`` (rounded)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return [float("nan")] * len(percentiles)
    return [round(float(np.percentile(data, p)), 2) for p in percentiles]


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
