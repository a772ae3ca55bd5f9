"""Effective SNR and the ESNR-to-bitrate mapping (§3.4).

n+ selects the bitrate of each packet from the effective SNR (ESNR)
measured on the light-weight RTS *after projecting out ongoing
transmissions*.  The ESNR, introduced by Halperin et al. [16], compresses
the per-subcarrier SNRs of a frequency-selective channel into a single
number by going through the bit-error-rate domain:

1. compute the uncoded BER each subcarrier would see for a given
   modulation,
2. average the BERs over subcarriers,
3. map the average BER back to the SNR of a flat channel with the same
   BER -- that flat-equivalent SNR is the ESNR.

The ESNR is then compared against per-MCS thresholds to pick the fastest
scheme expected to deliver the packet.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from repro.phy.modulation import Modulation, get_modulation
from repro.phy.rates import MCS, MCS_TABLE
from repro.utils.db import linear_to_db

__all__ = [
    "per_subcarrier_snr_db",
    "esnr_db",
    "select_mcs",
    "esnr_for_modulation",
    "esnr_ber_average",
    "delivery_margin_db",
    "packet_delivery_probability",
]


def per_subcarrier_snr_db(
    channel_gains: np.ndarray,
    noise_power: float,
    signal_power: float = 1.0,
) -> np.ndarray:
    """Per-subcarrier SNR (dB) from complex channel gains and noise power.

    Parameters
    ----------
    channel_gains:
        Complex effective channel gain of the wanted stream on each
        subcarrier (after any projection / equalisation).
    noise_power:
        Noise (plus residual interference) power per subcarrier, linear.
    signal_power:
        Transmit power allocated to the stream, linear.
    """
    gains = np.abs(np.asarray(channel_gains, dtype=complex)) ** 2
    noise = max(float(noise_power), 1e-30)
    return linear_to_db(signal_power * gains / noise)


def _ber_for_snr(modulation: Modulation, snr_db: float) -> float:
    """Uncoded BER of ``modulation`` at a given SNR (AWGN approximation)."""
    return min(0.5, max(modulation.bit_error_probability(snr_db), 1e-15))


def esnr_ber_average(subcarrier_snrs_db: Sequence[float], modulation: Modulation) -> float:
    """The uncoded-BER-averaging effective SNR.

    Averages the per-subcarrier *uncoded* BER for ``modulation`` and
    inverts the BER curve to find the flat-channel SNR with the same
    average BER.  This is the most literal reading of the ESNR definition,
    but because it ignores the convolutional code and interleaver it is
    dominated by the single worst subcarrier; the simulator therefore uses
    :func:`esnr_for_modulation` (mutual-information averaging) for rate
    selection and keeps this variant for comparison and unit tests.
    """
    snrs = np.asarray(list(subcarrier_snrs_db), dtype=float)
    if snrs.size == 0:
        return -np.inf
    bers = np.array([_ber_for_snr(modulation, snr) for snr in snrs])
    mean_ber = float(np.mean(bers))
    if mean_ber <= 1e-14:
        return float(np.max(snrs))
    if mean_ber >= 0.5 - 1e-12:
        return float(np.min(snrs))

    def objective(snr_db: float) -> float:
        return _ber_for_snr(modulation, snr_db) - mean_ber

    low, high = -20.0, 60.0
    # The BER curve is monotonically decreasing in SNR, so bisection works.
    try:
        return float(brentq(objective, low, high))
    except ValueError:
        # mean BER outside the achievable bracket; clamp.
        return float(np.clip(np.mean(snrs), low, high))


def esnr_for_modulation(subcarrier_snrs_db: Sequence[float], modulation: Modulation) -> float:
    """Effective SNR of a frequency-selective channel for a coded system.

    Per-subcarrier SNRs are mapped to mutual information
    (``log2(1 + SNR)``), averaged, and mapped back to the SNR of a flat
    channel with the same average -- the standard mean-mutual-information
    effective-SNR mapping used in system-level OFDM simulators.  Unlike a
    plain uncoded-BER average (:func:`esnr_ber_average`), this captures the
    fact that the convolutional code and interleaver recover isolated
    faded subcarriers, which is what makes the ESNR-to-rate table of
    Halperin et al. an accurate packet-delivery predictor in practice.

    The ``modulation`` bounds the useful information per symbol: once every
    subcarrier already saturates the constellation, extra SNR does not
    change the effective SNR ordering among candidate rates.
    """
    snrs = np.asarray(list(subcarrier_snrs_db), dtype=float)
    if snrs.size == 0:
        return -np.inf
    snr_linear = np.power(10.0, snrs / 10.0)
    mutual_information = np.log2(1.0 + snr_linear)
    mean_information = float(np.mean(mutual_information))
    effective_linear = max(2.0**mean_information - 1.0, 1e-12)
    return float(10.0 * np.log10(effective_linear))


def esnr_db(
    subcarrier_snrs_db: Sequence[float],
    modulation: Optional[Modulation] = None,
) -> float:
    """Effective SNR of a set of per-subcarrier SNRs.

    If ``modulation`` is omitted the QPSK BER curve is used, which is the
    conventional reference curve for a modulation-agnostic ESNR.
    """
    modulation = modulation or get_modulation("qpsk")
    return esnr_for_modulation(subcarrier_snrs_db, modulation)


def select_mcs(
    subcarrier_snrs_db: Sequence[float],
    table: Iterable[MCS] = MCS_TABLE,
    margin_db: float = 0.0,
) -> MCS:
    """Pick the fastest MCS whose ESNR threshold is met (§3.4).

    Each candidate MCS is evaluated with its own modulation's BER curve,
    as in Halperin et al.; the fastest scheme whose ``min_esnr_db`` (plus
    an optional safety margin) is satisfied wins.  If none qualifies the
    most robust MCS is returned.
    """
    table = list(table)
    best = table[0]
    for mcs in table:
        esnr = esnr_for_modulation(subcarrier_snrs_db, mcs.modulation)
        if esnr >= mcs.min_esnr_db + margin_db:
            best = mcs
    return best


def delivery_margin_db(
    subcarrier_snrs_db: Sequence[float],
    mcs: MCS,
    threshold_offset_db: float = 2.5,
) -> float:
    """Signed ESNR distance (dB) to the 50% delivery point at ``mcs``.

    The abstraction's delivery model is a logistic centred
    ``threshold_offset_db`` *below* ``mcs.min_esnr_db`` (see
    :func:`packet_delivery_probability`): the per-MCS thresholds of
    Halperin et al. mark where delivery is already likely, not the 50%
    point.  This helper exposes that margin directly so the fidelity
    layer (:mod:`repro.sim.fidelity`) classifies links against the *same*
    cliff centre the probability model uses -- a link with
    ``|margin| <= band_db`` sits in the uncertain region where the
    abstraction and the full transceiver may disagree.
    """
    esnr = esnr_for_modulation(subcarrier_snrs_db, mcs.modulation)
    return float(esnr - mcs.min_esnr_db + threshold_offset_db)


def packet_delivery_probability(
    subcarrier_snrs_db: Sequence[float],
    mcs: MCS,
    packet_bits: int,
    steepness_db: float = 1.0,
    threshold_offset_db: float = 2.5,
) -> float:
    """Probability that a packet at ``mcs`` is delivered, given the ESNR.

    The paper's prototype observes essentially binary behaviour around the
    ESNR threshold (packets either deliver or not); we model the packet
    delivery ratio as a logistic function of the ESNR margin with a
    configurable steepness, which reproduces that cliff while keeping the
    simulation differentiable in the SNR.  The per-MCS ``min_esnr_db``
    values are the points where delivery is already *likely* (that is how
    the ESNR-to-rate table of Halperin et al. is defined), so the logistic
    is centred ``threshold_offset_db`` below the threshold: a packet sent
    exactly at threshold succeeds with probability ~0.9, one sent a couple
    of dB above essentially always succeeds, and one sent a couple of dB
    below almost always fails.
    """
    margin = delivery_margin_db(subcarrier_snrs_db, mcs, threshold_offset_db)
    base = 1.0 / (1.0 + np.exp(-margin / max(steepness_db, 1e-3)))
    # Longer packets are slightly harder to deliver at the same BER.
    length_factor = min(1.0, 12_000 / max(packet_bits, 1))
    exponent = 1.0 + 0.25 * (1.0 - length_factor)
    return float(base**exponent)
