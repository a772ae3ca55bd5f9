"""Test tools: helpers that build inputs for tests or measure their outputs.

None of these runs inside the simulator; they live with the tests that use
them.  Every public name here is imported by at least one test module
(``tests/test_oracles.py`` enforces it).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from oracles.channel import MultipathChannel
from repro.channel.multipath import tap_scales, taps_from_normals
from repro.exceptions import DimensionError
from repro.mac.plan import PlanCache
from repro.sim.network import ChannelBank
from repro.sim.node import Station, TrafficPair
from repro.sim.scenarios import Scenario
from repro.sim.store import ResultsStore


# -- MAC agents -----------------------------------------------------------------


def make_agent(agent_class, pair: TrafficPair, network, rng, **kwargs):
    """An agent of ``agent_class`` with a plan cache of its own and Poisson
    arrival streams seeded ``(0, transmitter_id, receiver_id)``."""
    return agent_class(
        pair, network, rng, arrival_seed=(0,), plan_cache=PlanCache(), **kwargs
    )


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


# -- channels -------------------------------------------------------------------


def bank_pairs(bank: ChannelBank) -> List[Tuple[int, int]]:
    """The unordered pairs a channel bank stores, in (group, slot) order."""
    return [(int(a), int(b)) for block in bank._pair_groups for a, b in block]


def bank_nbytes(bank: ChannelBank) -> int:
    """Bytes a bank holds: the kept tap normals, tap scales and SNRs, plus
    every response computed so far (reciprocals are free views)."""
    kept = sum(
        normals.nbytes + scales.nbytes + snrs.nbytes
        for normals, scales, snrs in zip(bank._normals, bank._scales, bank._snrs)
    )
    return kept + sum(
        response.nbytes for responses in bank._responses for response in responses.values()
    )


def bank_computed_pairs(bank: ChannelBank) -> List[Tuple[int, int]]:
    """The unordered pairs whose response the bank has computed so far."""
    return [
        (int(a), int(b))
        for pairs, responses in zip(bank._pair_groups, bank._responses)
        for a, b in pairs[sorted(responses)]
    ]


def random_taps(
    n_rx: int,
    n_tx: int,
    rng: np.random.Generator,
    n_channels: int,
    n_taps: int = 4,
    decay_samples=3.0,
    average_gain=1.0,
) -> np.ndarray:
    """The ``(n_channels, n_taps, n_rx, n_tx)`` taps of ``n_channels``
    Rayleigh channels from one ``standard_normal`` draw, through the
    package's tap kernels: channel ``c`` is bit-identical to the ``c``-th
    of ``n_channels`` sequential :meth:`oracles.channel.MultipathChannel.random`
    calls on the same generator."""
    normals = rng.standard_normal((n_channels, n_taps, 2, n_rx, n_tx))
    decays = np.broadcast_to(np.asarray(decay_samples, dtype=float), (n_channels,))
    gains = np.broadcast_to(np.asarray(average_gain, dtype=float), (n_channels,))
    return taps_from_normals(normals, tap_scales(n_taps, decays, gains))


def apply_channel(channel: MultipathChannel, samples: np.ndarray) -> np.ndarray:
    """Convolve ``(n_tx, n_samples)`` transmitted samples (or 1-D for one
    antenna) with a multipath channel: ``(n_rx, n_samples)`` received
    samples, the convolution tail truncated so lengths match."""
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples.reshape(1, -1)
    if samples.shape[0] != channel.n_tx:
        raise DimensionError(
            f"channel expects {channel.n_tx} transmit antennas, got {samples.shape[0]}"
        )
    n_samples = samples.shape[1]
    out = np.zeros((channel.n_rx, n_samples), dtype=complex)
    for rx in range(channel.n_rx):
        for tx in range(channel.n_tx):
            out[rx] += np.convolve(samples[tx], channel.taps[:, rx, tx])[:n_samples]
    return out


# -- subspaces ------------------------------------------------------------------


def orthonormal_basis(matrix: np.ndarray, rcond: float = 1e-10) -> np.ndarray:
    """Return an orthonormal basis for the column space of ``matrix`` (a
    1-D input is one column; singular values below ``rcond`` times the
    largest are rank-deficient)."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = rcond * (s[0] if s.size else 0.0)
    return u[:, : int(np.sum(s > tol))]


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


# -- results stores ----------------------------------------------------------------


def cell_count(store: ResultsStore, status: Optional[str] = None) -> int:
    """Number of cells in ``store``, optionally restricted to one state."""
    if status is None:
        row = store._conn.execute("SELECT COUNT(*) AS n FROM cells").fetchone()
    else:
        row = store._conn.execute(
            "SELECT COUNT(*) AS n FROM cells WHERE status=?", (status,)
        ).fetchone()
    return int(row["n"])


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
