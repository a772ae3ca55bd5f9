"""Multi-dimensional carrier sense (§3.2, Fig. 6).

A node interested in the unused degrees of freedom first learns the
channel vectors of the ongoing transmissions (from their light-weight RTS
preambles), then projects its received samples onto the subspace
orthogonal to those vectors.  In the projected space the ongoing signals
vanish, so an ordinary 802.11 energy check tells the node whether the
*next* degree of freedom is free or occupied (Fig. 9 measures that
projected power).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.exceptions import DimensionError
from repro.utils.db import linear_to_db, signal_power
from repro.utils.linalg import orthonormal_complement_batch

__all__ = ["MultiDimensionalCarrierSense"]


@dataclass
class MultiDimensionalCarrierSense:
    """Carrier sense in the subspace orthogonal to ongoing transmissions.

    Parameters
    ----------
    n_antennas:
        Number of antennas at the sensing node.
    """

    n_antennas: int
    _ongoing: List[np.ndarray] = field(default_factory=list, repr=False)
    _basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._basis = np.eye(self.n_antennas, dtype=complex)

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
        occupied = np.concatenate(self._ongoing, axis=1)
        self._basis = orthonormal_complement_batch(occupied[None])[0][0]

    # -- projection ------------------------------------------------------------

    def projection_basis(self) -> np.ndarray:
        """Orthonormal basis of the subspace orthogonal to ongoing signals;
        its width is ``n_antennas`` minus the rank of their directions
        (computed once per :meth:`add_ongoing`)."""
        return self._basis

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

    # -- the energy detector ---------------------------------------------------------

    def sense_power_db(self, samples: np.ndarray) -> float:
        """Average projected power in dB."""
        projected = self.project(samples)
        return float(linear_to_db(signal_power(projected)))
