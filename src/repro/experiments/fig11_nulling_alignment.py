"""Fig. 11 -- residual SNR loss of the wanted stream after nulling and
alignment.

The experiment follows the three-phase protocol of §6.2 for random node
placements on the synthetic testbed:

1. measure the wanted stream's SNR with the interferer silent;
2. measure the interferer's (unwanted) SNR with no nulling/alignment;
3. let both transmit, with the interferer nulling (Fig. 2 topology) or
   aligning (Fig. 3 topology) using *estimated* channels, and measure the
   wanted stream's SNR again.

The difference between phases 1 and 3 is the SNR reduction plotted in
Fig. 11, binned by the unwanted signal's original SNR.  Expected shape:
the loss grows with the unwanted SNR, stays within ~0.5-3 dB over the
admitted range, nulling loses slightly less than alignment, and the
average below the L = 27 dB admission threshold is ≈0.8 dB for nulling
and ≈1.3 dB for alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.hardware import HardwareProfile
from repro.channel.models import complex_gaussian
from repro.constants import INTERFERENCE_ADMISSION_THRESHOLD_DB
from repro.experiments.report import format_table
from repro.mimo.precoder import compute_precoders_batch
from repro.utils.db import db_to_linear, linear_to_db
from repro.utils.linalg import orthonormal_complement_batch

__all__ = [
    "ResidualErrorExperiment",
    "run_nulling_experiment",
    "run_alignment_experiment",
    "summarize",
]

#: The unwanted-SNR bins of Fig. 11's x axis.
UNWANTED_SNR_BINS: Tuple[Tuple[float, float], ...] = (
    (7.5, 12.5),
    (12.5, 17.5),
    (17.5, 22.5),
    (22.5, 27.5),
    (27.5, 32.5),
)

#: The wanted-SNR groups of Fig. 11's bar families.
WANTED_SNR_BINS: Tuple[Tuple[float, float], ...] = (
    (5.0, 10.0),
    (10.0, 15.0),
    (15.0, 20.0),
    (20.0, 25.0),
)


@dataclass
class ResidualErrorExperiment:
    """Results of a Fig. 11 reproduction (one mechanism: nulling or alignment).

    Attributes
    ----------
    mechanism:
        ``"nulling"`` or ``"alignment"``.
    reductions_db:
        Per-(unwanted bin, wanted bin) list of measured SNR reductions.
    average_reduction_below_threshold_db:
        Mean reduction over samples whose unwanted SNR is below the
        admission threshold (the paper's 0.8 dB / 1.3 dB headline numbers).
    """

    mechanism: str
    reductions_db: Dict[Tuple[int, int], List[float]] = field(default_factory=dict)
    average_reduction_below_threshold_db: float = 0.0

    def mean_reduction(self, unwanted_bin: int, wanted_bin: int) -> float:
        """Mean SNR reduction of one bar of Fig. 11 (NaN if no samples)."""
        values = self.reductions_db.get((unwanted_bin, wanted_bin), [])
        return float(np.mean(values)) if values else float("nan")


def _bin_index(value: float, bins: Tuple[Tuple[float, float], ...]) -> Optional[int]:
    for index, (low, high) in enumerate(bins):
        if low <= value < high:
            return index
    return None


def _draw_snr(rng: np.random.Generator, bins: Tuple[Tuple[float, float], ...]) -> float:
    low = bins[0][0]
    high = bins[-1][1]
    return float(rng.uniform(low, high))


def run_nulling_experiment(n_trials: int = 400, seed: int = 0) -> ResidualErrorExperiment:
    """Reproduce Fig. 11(a): SNR reduction due to imperfect nulling.

    Topology of Fig. 2: a single-antenna pair tx1-rx1 plus a 2-antenna
    pair tx2-rx2; tx2 nulls at rx1 using an estimated channel.
    """
    rng = np.random.default_rng(seed)
    hardware = HardwareProfile()
    result = ResidualErrorExperiment(mechanism="nulling")
    below_threshold: List[float] = []

    for _ in range(n_trials):
        wanted_snr_db = _draw_snr(rng, WANTED_SNR_BINS)
        unwanted_snr_db = _draw_snr(rng, UNWANTED_SNR_BINS)
        # Channel from tx2's two antennas to rx1's antenna; the average
        # per-antenna gain realises the unwanted SNR.
        h_true = complex_gaussian((1, 2), rng, db_to_linear(unwanted_snr_db))
        h_estimated = hardware.perturb_channel_batch(h_true[None], rng, reciprocity=True)

        precoders, _ = compute_precoders_batch(2, h_estimated, n_streams=1)
        precoder = precoders[0, 0]
        residual_power = float(np.sum(np.abs(h_true @ precoder) ** 2))

        wanted_power = db_to_linear(wanted_snr_db)
        noise_power = 1.0
        snr_after_db = linear_to_db(wanted_power / (noise_power + residual_power))
        reduction = float(snr_after_db - wanted_snr_db)

        u_bin = _bin_index(unwanted_snr_db, UNWANTED_SNR_BINS)
        w_bin = _bin_index(wanted_snr_db, WANTED_SNR_BINS)
        if u_bin is None or w_bin is None:
            continue
        result.reductions_db.setdefault((u_bin, w_bin), []).append(reduction)
        if unwanted_snr_db <= INTERFERENCE_ADMISSION_THRESHOLD_DB:
            below_threshold.append(reduction)

    result.average_reduction_below_threshold_db = (
        float(np.mean(below_threshold)) if below_threshold else float("nan")
    )
    return result


def run_alignment_experiment(n_trials: int = 400, seed: int = 1) -> ResidualErrorExperiment:
    """Reproduce Fig. 11(b): SNR reduction due to imperfect alignment.

    Topology of Fig. 3, measured at the 2-antenna receiver rx2: tx1 and
    tx2 transmit; tx3 aligns its signal at rx2 with tx1's interference
    using estimated channels and rx2's (estimated) unwanted subspace.
    """
    rng = np.random.default_rng(seed)
    hardware = HardwareProfile()
    result = ResidualErrorExperiment(mechanism="alignment")
    below_threshold: List[float] = []

    for _ in range(n_trials):
        wanted_snr_db = _draw_snr(rng, WANTED_SNR_BINS)
        unwanted_snr_db = _draw_snr(rng, UNWANTED_SNR_BINS)
        interferer_snr_db = float(rng.uniform(10.0, 25.0))

        # Channels to rx2 (2 antennas): wanted stream from tx2 (effective
        # single column), existing interference from tx1, and the aligner
        # tx3 (3 antennas).
        h_wanted = complex_gaussian((2, 1), rng, db_to_linear(wanted_snr_db))
        h_tx1 = complex_gaussian((2, 1), rng, db_to_linear(interferer_snr_db))
        h_tx3_true = complex_gaussian((2, 3), rng, db_to_linear(unwanted_snr_db))
        h_tx3_estimated = hardware.perturb_channel_batch(
            h_tx3_true[None], rng, reciprocity=True
        )[0]
        # tx3 also needs to null at rx1 (1 antenna) as in Fig. 3.
        h_tx3_rx1_true = complex_gaussian((1, 3), rng, db_to_linear(unwanted_snr_db))
        h_tx3_rx1_estimated = hardware.perturb_channel_batch(
            h_tx3_rx1_true[None], rng, reciprocity=True
        )[0]

        # rx2's decoding direction: orthogonal to tx1's interference; its
        # announcement carries a little estimation error of its own.
        u_perp_true = orthonormal_complement_batch(h_tx1[None], 1)[0][0]
        u_perp_announced = hardware.perturb_channel_batch(u_perp_true[None], rng)[0]
        u_perp_announced = u_perp_announced / np.linalg.norm(u_perp_announced)

        # Constraint rows: null at rx1 (its channel), align at rx2 (Eq. 6).
        rows = np.concatenate(
            [h_tx3_rx1_estimated, u_perp_announced.conj().T @ h_tx3_estimated]
        )
        precoders, _ = compute_precoders_batch(3, rows[None], n_streams=1)
        precoder = precoders[0, 0]

        # Residual interference that leaks into rx2's true decoding direction.
        leak = u_perp_true.conj().T @ (h_tx3_true @ precoder)
        residual_power = float(np.sum(np.abs(leak) ** 2))

        # The wanted stream's post-projection SNR before and after tx3 joins.
        wanted_projected = float(np.sum(np.abs(u_perp_true.conj().T @ h_wanted) ** 2))
        noise_power = 1.0
        snr_before_db = linear_to_db(wanted_projected / noise_power)
        snr_after_db = linear_to_db(wanted_projected / (noise_power + residual_power))
        reduction = float(snr_after_db - snr_before_db)

        u_bin = _bin_index(unwanted_snr_db, UNWANTED_SNR_BINS)
        w_bin = _bin_index(wanted_snr_db, WANTED_SNR_BINS)
        if u_bin is None or w_bin is None:
            continue
        result.reductions_db.setdefault((u_bin, w_bin), []).append(reduction)
        if unwanted_snr_db <= INTERFERENCE_ADMISSION_THRESHOLD_DB:
            below_threshold.append(reduction)

    result.average_reduction_below_threshold_db = (
        float(np.mean(below_threshold)) if below_threshold else float("nan")
    )
    return result


def summarize(result: ResidualErrorExperiment) -> str:
    """Render the Fig. 11 bars as a table (rows: unwanted-SNR bins)."""
    headers = ["unwanted SNR bin"] + [f"wanted {low}-{high} dB" for low, high in WANTED_SNR_BINS]
    rows = []
    for u_index, (low, high) in enumerate(UNWANTED_SNR_BINS):
        row = [f"{low}-{high} dB"]
        for w_index in range(len(WANTED_SNR_BINS)):
            value = result.mean_reduction(u_index, w_index)
            row.append("-" if np.isnan(value) else f"{value:.2f}")
        rows.append(row)
    table = format_table(headers, rows)
    return (
        f"{result.mechanism}: average SNR reduction below the admission threshold = "
        f"{result.average_reduction_below_threshold_db:.2f} dB\n{table}"
    )
