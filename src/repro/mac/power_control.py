"""The L-threshold admission and power-control rule (§4).

Nulling and alignment suppress interference by a finite amount (about
25-27 dB on the paper's hardware).  A joiner whose raw signal would
arrive at an ongoing receiver more than L dB above the noise floor could
therefore still leave residual interference above the noise even after
nulling.  n+'s rule: estimate the interference power your signal would
create at each ongoing receiver; if it exceeds L dB above the noise,
reduce transmit power until it does not, and only then contend.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.constants import INTERFERENCE_ADMISSION_THRESHOLD_DB
from repro.utils.db import db_to_linear, linear_to_db

__all__ = ["interference_power_db", "admission_power_scale"]


def interference_power_db(
    channel_to_receiver: np.ndarray,
    noise_power: float = 1.0,
) -> float:
    """Interference power (dB above the noise) an unprotected, un-precoded
    transmission would create at a receiver.

    Parameters
    ----------
    channel_to_receiver:
        Channel matrix/vector from the joiner to the receiver; for
        per-subcarrier channels pass shape ``(n_subcarriers, N, M)`` and
        the power is averaged across subcarriers.
    noise_power:
        Receiver noise power (linear, same normalisation as the channel).

    The joiner transmits at unit power.
    """
    h = np.asarray(channel_to_receiver, dtype=complex)
    # With unit total transmit power split evenly (and uncorrelated) across
    # the transmitter's antennas, the expected interference power at one
    # receive antenna is the mean squared channel gain.
    power = float(np.mean(np.abs(h) ** 2))
    return float(linear_to_db(power / max(noise_power, 1e-30)))


def admission_power_scale(
    interference_levels_db: Iterable[float],
    threshold_db: float = INTERFERENCE_ADMISSION_THRESHOLD_DB,
) -> float:
    """Return the transmit-power scale factor (0 < scale <= 1) a joiner
    must apply so its strongest interference stays at or below the
    threshold.

    Parameters
    ----------
    interference_levels_db:
        Interference power, in dB above the noise floor, that the joiner's
        full-power signal would create at each ongoing receiver.
    threshold_db:
        The L threshold (27 dB by default).
    """
    levels = list(interference_levels_db)
    if not levels:
        return 1.0
    worst = max(levels)
    if worst <= threshold_db:
        return 1.0
    return float(db_to_linear(-(worst - threshold_db)))
