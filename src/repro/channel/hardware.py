"""Hardware impairment models.

Perfect nulling and alignment are impossible on real radios: channel
estimates are noisy, the hardware is slightly non-linear and reciprocity
calibration is imperfect, so a joiner's interference is suppressed by a
finite amount (~25-27 dB in the paper's USRP2 measurements, §6.2).  The
:class:`HardwareProfile` gathers those knobs so every layer draws its
imperfections from a single place, keeping the simulation honest about
the *residual interference* that drives the paper's Fig. 11 and the small
single-antenna throughput loss in Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    ALIGNMENT_SUPPRESSION_DB,
    NOISE_FLOOR_DBM,
    NULLING_SUPPRESSION_DB,
)
from repro.utils.db import db_to_linear

__all__ = ["HardwareProfile"]


@dataclass(frozen=True)
class HardwareProfile:
    """Per-node hardware characteristics.

    Attributes
    ----------
    noise_floor_dbm:
        Receiver noise floor over the simulated bandwidth.
    nulling_suppression_db:
        How far below its uncontrolled level a nulled interferer ends up.
    alignment_suppression_db:
        Same for alignment (slightly worse, because the aligner also needs
        the receiver's estimate of its unwanted subspace, §6.2).
    channel_estimation_error_db:
        Power of the channel-estimation error relative to the channel
        (dB); drives the spread of the residual error.
    reciprocity_error_db:
        Additional error of reverse-channel (reciprocity-derived)
        estimates relative to forward estimates.
    max_cfo_hz:
        Largest carrier-frequency offset between any two nodes.
    """

    noise_floor_dbm: float = NOISE_FLOOR_DBM
    nulling_suppression_db: float = NULLING_SUPPRESSION_DB
    alignment_suppression_db: float = ALIGNMENT_SUPPRESSION_DB
    channel_estimation_error_db: float = -30.0
    reciprocity_error_db: float = -32.0
    max_cfo_hz: float = 2_000.0

    # -- derived quantities ----------------------------------------------------

    #: Standard deviation (dB) of the per-packet suppression fluctuation
    #: around the mean, reproducing the spread of Fig. 11.
    SUPPRESSION_JITTER_SIGMA_DB = 2.0

    def draw_suppression_jitter(self, rng: np.random.Generator, size=None):
        """Draw the suppression fluctuation (dB) around the mean.

        Vector draws fill in C order, so one ``size=(n_sub, n_streams)``
        draw reproduces the sequence of the equivalent nested scalar loop.
        """
        return rng.normal(0.0, self.SUPPRESSION_JITTER_SIGMA_DB, size=size)

    def residual_interference_power_batch(
        self,
        interference_power: np.ndarray,
        aligned: bool,
        suppression_jitter_db: np.ndarray | None = None,
    ) -> np.ndarray:
        """Residual interference power after nulling or alignment.

        Parameters
        ----------
        interference_power:
            Per-subcarrier interference powers (linear) the joiner would
            create with no nulling/alignment at all.
        aligned:
            ``True`` for alignment, ``False`` for nulling.
        suppression_jitter_db:
            Optional per-subcarrier suppression fluctuation in dB (the
            caller draws it, so it can control the draw order of a shared
            generator).
        """
        suppression_db = (
            self.alignment_suppression_db if aligned else self.nulling_suppression_db
        )
        if suppression_jitter_db is not None:
            suppression_db = suppression_db + np.asarray(suppression_jitter_db, dtype=float)
        return np.asarray(interference_power, dtype=float) * db_to_linear(-suppression_db)

    def perturb_channel(
        self, channel: np.ndarray, rng: np.random.Generator, reciprocity: bool = False
    ) -> np.ndarray:
        """Return a noisy estimate of ``channel``.

        Adds complex Gaussian error at ``channel_estimation_error_db``
        below the channel power (plus the reciprocity penalty when the
        estimate is derived from the reverse direction).
        """
        channel = np.asarray(channel, dtype=complex)
        power = float(np.mean(np.abs(channel) ** 2)) if channel.size else 0.0
        error_db = self.channel_estimation_error_db
        if reciprocity:
            error_db = 10 * np.log10(
                db_to_linear(error_db) + db_to_linear(self.reciprocity_error_db)
            )
        variance = power * db_to_linear(error_db)
        error = np.sqrt(variance / 2.0) * (
            rng.standard_normal(channel.shape) + 1j * rng.standard_normal(channel.shape)
        )
        return channel + error

    def perturb_channel_batch(
        self, channels: np.ndarray, rng: np.random.Generator, reciprocity: bool = False
    ) -> np.ndarray:
        """Noisy estimates of a stack of same-shape channels at once.

        ``channels`` has shape ``(n_channels, ...)``.  The error normals
        are drawn as one ``(n_channels, 2, ...)`` block, which consumes
        the generator in exactly the order of ``n_channels`` sequential
        :meth:`perturb_channel` calls -- slice ``c`` of the result is
        bit-identical to ``perturb_channel(channels[c], rng,
        reciprocity)`` (the test suite asserts it).  One stacked call
        instead of two rng calls plus bookkeeping per link is what makes
        the grouped estimate prefetch
        (:meth:`repro.sim.network.Network.prefetch_estimates`) cheap.
        """
        channels = np.asarray(channels, dtype=complex)
        if channels.ndim < 2:
            raise ValueError(
                f"channels must be a stack with shape (n_channels, ...), got {channels.shape}"
            )
        n_channels = channels.shape[0]
        if channels.size:
            power = np.mean(np.abs(channels) ** 2, axis=tuple(range(1, channels.ndim)))
        else:
            power = np.zeros(n_channels)
        error_db = self.channel_estimation_error_db
        if reciprocity:
            error_db = 10 * np.log10(
                db_to_linear(error_db) + db_to_linear(self.reciprocity_error_db)
            )
        variance = power * db_to_linear(error_db)
        raw = rng.standard_normal((n_channels, 2) + channels.shape[1:])
        scale = np.sqrt(variance / 2.0).reshape((n_channels,) + (1,) * (channels.ndim - 1))
        return channels + scale * (raw[:, 0] + 1j * raw[:, 1])
