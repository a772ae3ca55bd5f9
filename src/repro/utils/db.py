"""Decibel and power conversion helpers.

The evaluation sections of the paper are phrased almost entirely in dB
(SNR of wanted/unwanted streams, residual nulling error, the 27 dB
admission threshold), so these conversions are used everywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "signal_power",
]

#: Floor used to avoid ``log10(0)`` when converting powers to dB.
_POWER_FLOOR = 1e-30


def db_to_linear(value_db):
    """Convert a power ratio expressed in dB to a linear ratio."""
    return np.power(10.0, np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value_linear):
    """Convert a linear power ratio to dB.

    Values at or below zero are clamped to a very small positive floor so
    the result is a large negative number rather than ``-inf``.
    """
    value = np.maximum(np.asarray(value_linear, dtype=float), _POWER_FLOOR)
    return 10.0 * np.log10(value)


def signal_power(samples: np.ndarray) -> float:
    """Return the average power of a complex sample vector (mean |x|^2)."""
    samples = np.asarray(samples)
    if samples.size == 0:
        return 0.0
    return float(np.mean(np.abs(samples) ** 2))

