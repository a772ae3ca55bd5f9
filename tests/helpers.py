"""Test tools: helpers that build inputs for tests or measure their outputs.

None of these runs inside the simulator; they live with the tests that use
them.  Every public name here is imported by at least one test module
(``tests/test_oracles.py`` enforces it).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import DimensionError
from repro.sim.node import Station, TrafficPair
from repro.sim.scenarios import Scenario
from repro.utils.linalg import orthonormal_basis


# -- bits -----------------------------------------------------------------------


def bit_errors(a: np.ndarray, b: np.ndarray) -> int:
    """Return the number of differing positions between two bit arrays."""
    a = np.asarray(a, dtype=np.int8)
    b = np.asarray(b, dtype=np.int8)
    if a.shape != b.shape:
        raise DimensionError(f"bit arrays differ in shape: {a.shape} vs {b.shape}")
    return int(np.sum(a != b))


def bit_error_rate(a: np.ndarray, b: np.ndarray) -> float:
    """Return the fraction of differing positions between two bit arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return bit_errors(a, b) / a.size


# -- subspaces ------------------------------------------------------------------


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Return a Haar-distributed ``n x n`` unitary matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # Normalise the phases so the distribution is Haar.
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Return the principal angle (radians) between the subspaces spanned by
    the columns of ``a`` and ``b``."""
    qa = orthonormal_basis(a)
    qb = orthonormal_basis(b)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return float(np.pi / 2)
    sigma = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return float(np.arccos(float(np.clip(sigma.max(), -1.0, 1.0))))


def is_in_subspace(vector: np.ndarray, basis: np.ndarray, tol: float = 1e-8) -> bool:
    """Return ``True`` if ``vector`` lies (numerically) inside the span of
    the columns of ``basis``."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        return True
    ortho = orthonormal_basis(basis)
    residual = v - ortho @ (ortho.conj().T @ v)
    return float(np.linalg.norm(residual)) <= tol * max(1.0, norm)


# -- scenarios --------------------------------------------------------------------


def custom_pairs_scenario(antenna_counts: List[int], name: str = "custom") -> Scenario:
    """A scenario of independent pairs with the given antenna counts.

    ``antenna_counts=[1, 2, 3]`` has the shape of
    :func:`~repro.sim.scenarios.three_pair_scenario`.
    """
    stations: List[Station] = []
    pairs: List[TrafficPair] = []
    for index, antennas in enumerate(antenna_counts, start=1):
        tx = Station(2 * index - 2, antennas, f"tx{index}")
        rx = Station(2 * index - 1, antennas, f"rx{index}")
        stations.extend([tx, rx])
        pairs.append(TrafficPair(tx, [rx]))
    return Scenario(name, stations, pairs)
