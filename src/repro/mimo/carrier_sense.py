"""Multi-dimensional carrier sense (§3.2, Fig. 6).

A node interested in the unused degrees of freedom first learns the
channel vectors of the ongoing transmissions (from their light-weight RTS
preambles), then projects its received samples onto the subspace
orthogonal to those vectors.  In the projected space the ongoing signals
vanish, so ordinary 802.11 carrier sense -- an energy check plus a
preamble cross-correlation -- tells the node whether the *next* degree of
freedom is free or occupied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.exceptions import DimensionError
from repro.phy.preamble import cross_correlate
from repro.utils.db import linear_to_db, signal_power
from repro.utils.linalg import orthonormal_basis, orthonormal_complement

__all__ = ["CarrierSenseResult", "MultiDimensionalCarrierSense"]


@dataclass(frozen=True)
class CarrierSenseResult:
    """Outcome of one carrier-sense measurement.

    Attributes
    ----------
    busy:
        Whether the sensed degree of freedom is occupied.
    power_dbm:
        Signal power after projection, in dB (relative units).
    correlation:
        Peak normalised preamble correlation after projection (0 if no
        template was supplied).
    energy_detected, preamble_detected:
        The two 802.11 carrier-sense components individually.
    """

    busy: bool
    power_dbm: float
    correlation: float
    energy_detected: bool
    preamble_detected: bool


@dataclass
class MultiDimensionalCarrierSense:
    """Carrier sense in the subspace orthogonal to ongoing transmissions.

    Parameters
    ----------
    n_antennas:
        Number of antennas at the sensing node.
    energy_threshold_db:
        Projected power above which the energy detector declares busy.
    correlation_threshold:
        Normalised correlation above which the preamble detector fires.
    """

    n_antennas: int
    energy_threshold_db: float = -20.0
    correlation_threshold: float = 0.6
    _ongoing: List[np.ndarray] = field(default_factory=list, repr=False)

    # -- bookkeeping of ongoing transmissions --------------------------------

    def add_ongoing(self, channel_vectors: np.ndarray) -> None:
        """Register the channel vector(s) of an ongoing transmission.

        ``channel_vectors`` has shape ``(n_antennas,)`` for a single stream
        or ``(n_antennas, k)`` for a k-stream transmission; it is the
        channel from the ongoing transmitter to *this* node, estimated from
        the overheard RTS preamble.
        """
        vectors = np.asarray(channel_vectors, dtype=complex)
        if vectors.ndim == 1:
            vectors = vectors.reshape(-1, 1)
        if vectors.shape[0] != self.n_antennas:
            raise DimensionError(
                f"channel vectors have dimension {vectors.shape[0]}, expected {self.n_antennas}"
            )
        self._ongoing.append(vectors)

    @property
    def n_ongoing_streams(self) -> int:
        """Number of degrees of freedom currently occupied."""
        if not self._ongoing:
            return 0
        return int(orthonormal_basis(np.concatenate(self._ongoing, axis=1)).shape[1])

    # -- projection ------------------------------------------------------------

    def projection_basis(self) -> np.ndarray:
        """Orthonormal basis of the subspace orthogonal to ongoing signals."""
        if not self._ongoing:
            return np.eye(self.n_antennas, dtype=complex)
        occupied = np.concatenate(self._ongoing, axis=1)
        return orthonormal_complement(occupied)

    def project(self, samples: np.ndarray) -> np.ndarray:
        """Project received samples onto the interference-free subspace.

        Parameters
        ----------
        samples:
            ``(n_antennas, n_samples)`` received samples (or 1-D for a
            single antenna).

        Returns
        -------
        numpy.ndarray
            ``(n_antennas - n_ongoing_streams, n_samples)`` projected samples.
        """
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim == 1:
            samples = samples.reshape(1, -1)
        if samples.shape[0] != self.n_antennas:
            raise DimensionError(
                f"samples have {samples.shape[0]} rows, expected {self.n_antennas}"
            )
        basis = self.projection_basis()
        return basis.conj().T @ samples

    # -- the two 802.11 carrier-sense components ---------------------------------

    def sense_power_db(self, samples: np.ndarray) -> float:
        """Average projected power in dB."""
        projected = self.project(samples)
        return float(linear_to_db(signal_power(projected)))

    def correlate_preamble(self, samples: np.ndarray, template: np.ndarray) -> float:
        """Peak normalised preamble correlation in the projected space.

        Each projected dimension contains a scaled copy of any new
        transmission, so the correlation is computed per dimension and the
        maximum returned.
        """
        projected = self.project(samples)
        best = 0.0
        for dimension in range(projected.shape[0]):
            values = cross_correlate(projected[dimension], template)
            if values.size:
                best = max(best, float(values.max()))
        return best

    # -- combined decision --------------------------------------------------------

    def sense(
        self,
        samples: np.ndarray,
        preamble_template: Optional[np.ndarray] = None,
    ) -> CarrierSenseResult:
        """Run both carrier-sense components and combine them like 802.11
        (busy if either fires)."""
        power_db = self.sense_power_db(samples)
        energy_detected = power_db > self.energy_threshold_db
        correlation = 0.0
        preamble_detected = False
        if preamble_template is not None:
            correlation = self.correlate_preamble(samples, preamble_template)
            preamble_detected = correlation > self.correlation_threshold
        return CarrierSenseResult(
            busy=bool(energy_detected or preamble_detected),
            power_dbm=power_db,
            correlation=correlation,
            energy_detected=bool(energy_detected),
            preamble_detected=bool(preamble_detected),
        )
