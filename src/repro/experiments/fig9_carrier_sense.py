"""Fig. 9 -- carrier sense in the presence of ongoing transmissions.

The experiment recreates §6.1: tx1 (one antenna) starts transmitting,
tx2 (two antennas) starts a little later and much weaker, and tx3 (three
antennas) senses the medium.  We compare the two components of 802.11
carrier sense -- received power and preamble cross-correlation -- with
and without projecting onto the subspace orthogonal to tx1's signal.

Expected shape (paper):

* without projection, tx2's arrival barely moves the received power
  (≈0.4 dB), while after projection it produces a large jump (≈8.5 dB);
* at low SNR, ~18 % of the cross-correlation values measured while tx2
  transmits are indistinguishable from the silent case without
  projection, whereas with projection the two distributions separate
  almost completely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.channel.models import awgn, complex_gaussian
from repro.constants import SAMPLES_PER_OFDM_SYMBOL
from repro.experiments.report import format_table
from repro.mimo.carrier_sense import MultiDimensionalCarrierSense
from repro.phy.preamble import cross_correlate, short_training_field
from repro.phy.rates import MCS_TABLE
from repro.phy.transceiver import MimoTransmitter, StreamConfig
from repro.utils.bits import random_bits
from repro.utils.db import db_to_linear, linear_to_db

__all__ = ["CarrierSenseExperiment", "run_carrier_sense_experiment", "summarize"]

#: SNRs (dB) at the sensing node for the correlation CDFs: the ongoing
#: (strong) tx1 and the new (weak) tx2 -- the paper focuses on SNR < 3 dB
#: because that is where sensing is hard.
TX1_SNR_DB = 10.0
TX2_SNR_DB = 3.0
#: SNRs (dB) of the power-profile illustration: Fig. 9(a) shows a strong
#: ongoing tx1 masking a moderately strong tx2 unless the sensing node
#: projects.
POWER_PROFILE_TX1_SNR_DB = 20.0
POWER_PROFILE_TX2_SNR_DB = 10.0


@dataclass
class CarrierSenseExperiment:
    """Results of the Fig. 9 reproduction.

    Attributes
    ----------
    power_jump_db_without_projection:
        Median jump in total received power when tx2 starts, no projection.
    power_jump_db_with_projection:
        Same jump measured after projecting out tx1.
    correlations:
        Correlation peaks per condition: keys are
        ``("silent"|"transmitting", "raw"|"projected")``.
    nondistinguishable_fraction_raw:
        Fraction of "transmitting" correlation values that fall below the
        95th percentile of the "silent" distribution without projection.
    nondistinguishable_fraction_projected:
        Same fraction with projection.
    """

    power_jump_db_without_projection: float
    power_jump_db_with_projection: float
    correlations: Dict[tuple, List[float]] = field(default_factory=dict)
    nondistinguishable_fraction_raw: float = 0.0
    nondistinguishable_fraction_projected: float = 0.0


def _transmit_frame(n_antennas: int, n_bits: int, rng: np.random.Generator) -> np.ndarray:
    """Build the per-antenna samples of a simple frame."""
    transmitter = MimoTransmitter(n_antennas)
    precoder = np.zeros(n_antennas, dtype=complex)
    precoder[0] = 1.0
    if n_antennas > 1:
        precoder[1] = 0.7 + 0.2j
        precoder = precoder / np.linalg.norm(precoder)
    stream = StreamConfig(bits=random_bits(n_bits, rng), mcs=MCS_TABLE[2], precoder=precoder)
    samples, _ = transmitter.build_frame([stream])
    return samples


def _per_symbol_power_db(samples: np.ndarray) -> np.ndarray:
    """Average power (dB) of consecutive OFDM-symbol-sized windows."""
    total = np.sum(np.abs(samples) ** 2, axis=0)
    n_symbols = total.size // SAMPLES_PER_OFDM_SYMBOL
    trimmed = total[: n_symbols * SAMPLES_PER_OFDM_SYMBOL].reshape(
        n_symbols, SAMPLES_PER_OFDM_SYMBOL
    )
    return linear_to_db(trimmed.mean(axis=1))


def run_carrier_sense_experiment(n_trials: int = 20, seed: int = 0) -> CarrierSenseExperiment:
    """Run the Fig. 9 reproduction at the module's four SNRs.

    Parameters
    ----------
    n_trials:
        Number of independent channel/noise realisations.
    seed:
        Random seed.
    """
    rng = np.random.default_rng(seed)
    n_sense_antennas = 3
    stf = short_training_field()
    jumps_raw: List[float] = []
    jumps_projected: List[float] = []
    correlations: Dict[tuple, List[float]] = {
        ("silent", "raw"): [],
        ("silent", "projected"): [],
        ("transmitting", "raw"): [],
        ("transmitting", "projected"): [],
    }

    for _ in range(n_trials):
        # Flat channels from tx1 (1 antenna) and tx2 (2 antennas) to tx3.
        h1 = complex_gaussian((n_sense_antennas, 1), rng, db_to_linear(TX1_SNR_DB))
        h1_power = h1 * np.sqrt(db_to_linear(POWER_PROFILE_TX1_SNR_DB - TX1_SNR_DB))
        h2_weak = complex_gaussian((n_sense_antennas, 2), rng, db_to_linear(TX2_SNR_DB))
        h2_power = complex_gaussian(
            (n_sense_antennas, 2), rng, db_to_linear(POWER_PROFILE_TX2_SNR_DB)
        )

        # tx1's frame must outlast tx2's start by a comfortable margin so the
        # "before"/"after" windows both lie inside the ongoing transmission.
        tx1_samples = _transmit_frame(1, 4000, rng)
        tx2_samples = _transmit_frame(2, 400, rng)
        offset = 25 * 80  # tx2 starts 25 OFDM symbols into tx1's frame.
        length = min(tx1_samples.shape[1], offset + tx2_samples.shape[1])
        tx1_padded = tx1_samples[:, :length]

        def received(include_tx2: bool, h_ongoing: np.ndarray, h2: np.ndarray) -> np.ndarray:
            signal = h_ongoing @ tx1_padded
            if include_tx2:
                tx2_padded = np.zeros((2, length), dtype=complex)
                tail = min(tx2_samples.shape[1], length - offset)
                tx2_padded[:, offset : offset + tail] = tx2_samples[:, :tail]
                signal = signal + h2 @ tx2_padded
            return awgn(signal, 1.0, rng)

        sensor = MultiDimensionalCarrierSense(n_sense_antennas)
        sensor.add_ongoing(h1[:, 0])

        y_both = received(include_tx2=True, h_ongoing=h1_power, h2=h2_power)
        # Power profile, with and without projection.
        raw_profile = _per_symbol_power_db(y_both)
        projected_profile = _per_symbol_power_db(sensor.project(y_both))
        before = slice(5, 23)
        after = slice(27, 45)
        jumps_raw.append(float(np.mean(raw_profile[after]) - np.mean(raw_profile[before])))
        jumps_projected.append(
            float(np.mean(projected_profile[after]) - np.mean(projected_profile[before]))
        )

        # Correlation component, tx2 silent vs transmitting (low SNR).
        for label, include in (("silent", False), ("transmitting", True)):
            y = received(include_tx2=include, h_ongoing=h1, h2=h2_weak)
            window = y[:, offset : offset + len(stf) + 160]
            raw_peak = float(np.max(cross_correlate(window[0], stf)))
            projected = sensor.project(window)
            projected_peak = max(
                float(np.max(cross_correlate(projected[d], stf)))
                for d in range(projected.shape[0])
            )
            correlations[(label, "raw")].append(raw_peak)
            correlations[(label, "projected")].append(projected_peak)

    def nondistinguishable(kind: str) -> float:
        silent = np.asarray(correlations[("silent", kind)])
        transmitting = np.asarray(correlations[("transmitting", kind)])
        if silent.size == 0 or transmitting.size == 0:
            return 0.0
        threshold = np.percentile(silent, 95)
        return float(np.mean(transmitting <= threshold))

    return CarrierSenseExperiment(
        power_jump_db_without_projection=float(np.median(jumps_raw)),
        power_jump_db_with_projection=float(np.median(jumps_projected)),
        correlations=correlations,
        nondistinguishable_fraction_raw=nondistinguishable("raw"),
        nondistinguishable_fraction_projected=nondistinguishable("projected"),
    )


def summarize(result: CarrierSenseExperiment) -> str:
    """Render the Fig. 9 summary rows."""
    rows = [
        ["power jump when tx2 starts (raw)", f"{result.power_jump_db_without_projection:.1f} dB"],
        ["power jump when tx2 starts (projected)", f"{result.power_jump_db_with_projection:.1f} dB"],
        [
            "non-distinguishable correlations (raw)",
            f"{100 * result.nondistinguishable_fraction_raw:.0f} %",
        ],
        [
            "non-distinguishable correlations (projected)",
            f"{100 * result.nondistinguishable_fraction_projected:.0f} %",
        ],
    ]
    return format_table(["metric", "value"], rows)
