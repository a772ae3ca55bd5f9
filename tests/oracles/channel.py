"""Channel oracles: the one-link forms of the testbed's link draw and of
the hardware's channel estimate.

The package draws links and measures channels only as stacks
(:func:`~repro.channel.multipath.taps_from_normals`,
:func:`~repro.channel.multipath.frequency_response_batch`,
:meth:`~repro.channel.testbed.Testbed.link_scalars_batch`,
:meth:`~repro.channel.hardware.HardwareProfile.perturb_channel_batch`).
These are the readable one-link loops those kernels are checked against
bit for bit, down to the generator state; the PHY tests also use
:class:`MultipathChannel` as a random frequency-selective channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.channel.hardware import HardwareProfile
from repro.channel.models import complex_gaussian
from repro.channel.multipath import exponential_power_delay_profile
from repro.channel.testbed import Testbed
from repro.constants import CYCLIC_PREFIX_LENGTH, NUM_SUBCARRIERS
from repro.exceptions import ConfigurationError, DimensionError
from repro.utils.db import db_to_linear


@dataclass
class MultipathChannel:
    """A static frequency-selective MIMO channel.

    ``taps`` is a complex array of shape ``(n_taps, n_rx, n_tx)``;
    ``taps[d]`` is the channel matrix of delay ``d`` samples.
    """

    taps: np.ndarray

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=complex)
        if self.taps.ndim != 3:
            raise DimensionError(
                f"taps must have shape (n_taps, n_rx, n_tx), got {self.taps.shape}"
            )

    @classmethod
    def random(
        cls,
        n_rx: int,
        n_tx: int,
        rng: np.random.Generator,
        n_taps: int = 4,
        decay_samples: float = 3.0,
        average_gain: float = 1.0,
    ) -> "MultipathChannel":
        """A Rayleigh multipath channel, one complex Gaussian draw per tap.

        ``average_gain`` scales the total (linear) power; the taps must
        fit in the cyclic prefix.
        """
        if n_taps > CYCLIC_PREFIX_LENGTH:
            raise ConfigurationError(
                f"n_taps ({n_taps}) must not exceed the cyclic prefix "
                f"({CYCLIC_PREFIX_LENGTH})"
            )
        profile = exponential_power_delay_profile(n_taps, decay_samples)
        taps = np.zeros((n_taps, n_rx, n_tx), dtype=complex)
        for d in range(n_taps):
            taps[d] = complex_gaussian((n_rx, n_tx), rng, profile[d] * average_gain)
        return cls(taps=taps)

    @property
    def n_taps(self) -> int:
        return self.taps.shape[0]

    @property
    def n_rx(self) -> int:
        return self.taps.shape[1]

    @property
    def n_tx(self) -> int:
        return self.taps.shape[2]

    def frequency_response(self, fft_size: int = NUM_SUBCARRIERS) -> np.ndarray:
        """Per-subcarrier channel matrices, shape ``(fft_size, n_rx, n_tx)``."""
        padded = np.zeros((fft_size, self.n_rx, self.n_tx), dtype=complex)
        padded[: self.n_taps] = self.taps
        return np.fft.fft(padded, axis=0)


def draw_link_reference(
    testbed: Testbed,
    tx_location: int,
    rx_location: int,
    n_tx: int,
    n_rx: int,
    rng: np.random.Generator,
) -> Tuple[float, MultipathChannel]:
    """One link of ``testbed``: ``(snr_db, channel)``.

    Draws, in order: the shadowing normal, the line-of-sight coin, then
    the channel's taps.  The
    shadowed log-distance budget is clamped to the testbed's operating
    range; the channel's average power gain is the linear SNR.
    """
    xa, ya = testbed.locations[tx_location]
    xb, yb = testbed.locations[rx_location]
    loss = testbed.path_loss_at_distance(float(np.hypot(xa - xb, ya - yb)))
    loss = loss + rng.normal(0.0, testbed.shadowing_sigma_db)
    snr = testbed.tx_power_dbm - loss - testbed.noise_floor_dbm
    snr_db = float(min(max(snr, testbed.min_snr_db), testbed.max_snr_db))
    line_of_sight = rng.random() < testbed.los_probability
    channel = MultipathChannel.random(
        n_rx=n_rx,
        n_tx=n_tx,
        rng=rng,
        n_taps=testbed.n_taps,
        # Line of sight: a strong first tap plus weak scattering.
        decay_samples=0.6 if line_of_sight else 1.5,
        average_gain=float(db_to_linear(snr_db)),
    )
    return snr_db, channel


def perturb_channel_reference(
    hardware: HardwareProfile,
    channel: np.ndarray,
    rng: np.random.Generator,
    reciprocity: bool = False,
) -> np.ndarray:
    """A noisy estimate of one channel: complex Gaussian error
    ``channel_estimation_error_db`` below its mean power, plus the
    reciprocity penalty for a reverse-direction estimate."""
    channel = np.asarray(channel, dtype=complex)
    power = float(np.mean(np.abs(channel) ** 2)) if channel.size else 0.0
    error_db = hardware.channel_estimation_error_db
    if reciprocity:
        error_db = 10 * np.log10(
            db_to_linear(error_db) + db_to_linear(hardware.reciprocity_error_db)
        )
    variance = power * db_to_linear(error_db)
    error = np.sqrt(variance / 2.0) * (
        rng.standard_normal(channel.shape) + 1j * rng.standard_normal(channel.shape)
    )
    return channel + error
