"""Effective SNR and the ESNR-to-bitrate mapping (§3.4).

n+ selects the bitrate of each packet from the effective SNR (ESNR)
measured on the light-weight RTS *after projecting out ongoing
transmissions*.  The ESNR, after Halperin et al. [16], compresses the
per-subcarrier SNRs of a frequency-selective channel into a single
number through the mutual-information domain:

1. map each subcarrier's SNR to mutual information, ``log2(1 + SNR)``,
2. average the mutual information over subcarriers,
3. map the average back to the SNR of a flat channel carrying the same
   information -- that flat-equivalent SNR is the ESNR.

Averaging information rather than uncoded bit-error rates captures that
the convolutional code and interleaver recover isolated faded
subcarriers, which is what makes the ESNR-to-rate table an accurate
packet-delivery predictor.  The ESNR is then compared against per-MCS
thresholds to pick the fastest scheme expected to deliver the packet.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Iterable, Sequence

import numpy as np

from repro.constants import DELIVERY_STEEPNESS_DB, DELIVERY_THRESHOLD_OFFSET_DB
from repro.phy.rates import MCS, MCS_TABLE

__all__ = [
    "esnr_db",
    "mcs_for_esnr",
    "select_mcs",
    "delivery_margin_db",
    "packet_delivery_probability",
]


def esnr_db(subcarrier_snrs_db: Iterable[float]) -> float:
    """Mean-mutual-information effective SNR (dB) of per-subcarrier SNRs.

    Per-subcarrier SNRs are mapped to mutual information
    (``log2(1 + SNR)``), averaged, and mapped back to the SNR of a flat
    channel with the same average -- the standard effective-SNR mapping
    of system-level OFDM simulators.  An empty input has ESNR ``-inf``.
    An array is read as it is, without a round trip through Python
    floats; a one-shot iterator is read into a list first.
    """
    if isinstance(subcarrier_snrs_db, Iterator):
        subcarrier_snrs_db = list(subcarrier_snrs_db)
    snrs = np.asarray(subcarrier_snrs_db, dtype=float)
    if snrs.size == 0:
        return -np.inf
    snr_linear = np.power(10.0, snrs / 10.0)
    mutual_information = np.log2(1.0 + snr_linear)
    mean_information = float(np.mean(mutual_information))
    effective_linear = max(2.0**mean_information - 1.0, 1e-12)
    return float(10.0 * np.log10(effective_linear))


def mcs_for_esnr(esnr: float, margin_db: float = 0.0) -> MCS:
    """The fastest MCS of ``MCS_TABLE`` with ``min_esnr_db + margin_db <= esnr``.

    If none qualifies the first (most robust) entry is returned.
    """
    best = MCS_TABLE[0]
    for mcs in MCS_TABLE:
        if esnr >= mcs.min_esnr_db + margin_db:
            best = mcs
    return best


def select_mcs(subcarrier_snrs_db: Sequence[float], margin_db: float = 0.0) -> MCS:
    """Pick the fastest MCS whose ESNR threshold is met (§3.4).

    The ESNR of the subcarriers (:func:`esnr_db`) is computed once and
    compared against every candidate's ``min_esnr_db`` plus an optional
    safety margin; the fastest scheme that qualifies wins.  If none
    qualifies the most robust MCS is returned.
    """
    return mcs_for_esnr(esnr_db(subcarrier_snrs_db), margin_db)


def delivery_margin_db(subcarrier_snrs_db: Sequence[float], mcs: MCS) -> float:
    """Signed ESNR distance (dB) to the 50% delivery point at ``mcs``.

    The abstraction's delivery model is a logistic centred
    :data:`~repro.constants.DELIVERY_THRESHOLD_OFFSET_DB` *below*
    ``mcs.min_esnr_db`` (see :func:`packet_delivery_probability`): the
    per-MCS thresholds of
    Halperin et al. mark where delivery is already likely, not the 50%
    point.  This helper exposes that margin directly so the fidelity
    layer (:mod:`repro.sim.fidelity`) classifies links against the *same*
    cliff centre the probability model uses -- a link with
    ``|margin| <= band_db`` sits in the uncertain region where the
    abstraction and the full transceiver may disagree.
    """
    return float(esnr_db(subcarrier_snrs_db) - mcs.min_esnr_db + DELIVERY_THRESHOLD_OFFSET_DB)


def packet_delivery_probability(
    subcarrier_snrs_db: Sequence[float],
    mcs: MCS,
    packet_bits: int,
) -> float:
    """Probability that a packet at ``mcs`` is delivered, given the ESNR.

    The paper's prototype observes essentially binary behaviour around the
    ESNR threshold (packets either deliver or not); we model the packet
    delivery ratio as a logistic function of the ESNR margin
    (:data:`~repro.constants.DELIVERY_STEEPNESS_DB` per unit), which
    reproduces that cliff while keeping the simulation differentiable in
    the SNR.  The per-MCS ``min_esnr_db`` values are the points where
    delivery is already *likely* (that is how the ESNR-to-rate table of
    Halperin et al. is defined), so the logistic is centred
    :data:`~repro.constants.DELIVERY_THRESHOLD_OFFSET_DB` below the
    threshold: a packet sent exactly at threshold succeeds with
    probability ~0.9, one sent a couple of dB above essentially always
    succeeds, and one sent a couple of dB below almost always fails.
    """
    margin = delivery_margin_db(subcarrier_snrs_db, mcs)
    base = 1.0 / (1.0 + np.exp(-margin / DELIVERY_STEEPNESS_DB))
    # Longer packets are slightly harder to deliver at the same BER.
    length_factor = min(1.0, 12_000 / max(packet_bits, 1))
    exponent = 1.0 + 0.25 * (1.0 - length_factor)
    return float(base**exponent)
