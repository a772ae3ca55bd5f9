"""§3.5 -- overhead of the light-weight handshake.

The ACK header of n+ carries the receiver's alignment space,
differentially encoded across OFDM subcarriers.  This experiment draws
testbed channels, measures how many OFDM symbols the encoded feedback
needs (the paper reports about three), and computes the total handshake
overhead for a 1500-byte packet at 18 Mb/s (the paper estimates ~4 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.channel.multipath import frequency_response_batch, tap_scales, taps_from_normals
from repro.channel.testbed import Testbed, default_testbed
from repro.exceptions import ConfigurationError
from repro.experiments.report import format_table
from repro.mac.handshake import alignment_feedback_symbols, handshake_overhead
from repro.phy.rates import MCS_TABLE
from repro.utils.db import db_to_linear
from repro.utils.linalg import orthonormal_complement_batch

__all__ = ["HandshakeExperiment", "run_handshake_experiment", "summarize"]


@dataclass
class HandshakeExperiment:
    """Results of the handshake-overhead estimate.

    Attributes
    ----------
    feedback_symbols:
        OFDM symbols needed per measured channel realisation.
    overhead_fraction:
        Total handshake overhead as a fraction of the exchange, for a
        1500-byte packet at the reference bitrate.
    reference_mcs_index:
        The MCS used for the reference overhead number.
    """

    feedback_symbols: List[int]
    overhead_fraction: float
    reference_mcs_index: int

    @property
    def mean_feedback_symbols(self) -> float:
        """Average number of alignment-feedback OFDM symbols."""
        return float(np.mean(self.feedback_symbols)) if self.feedback_symbols else 0.0


def run_handshake_experiment(n_channels: int = 50, seed: int = 0) -> HandshakeExperiment:
    """Measure the alignment-feedback size on the default testbed's channels.

    For each random link the receiver's 2-antenna decoding subspace is
    computed per subcarrier (orthogonal to a random 1-stream interferer)
    and differentially encoded; the number of OFDM symbols needed is
    recorded.

    The subspace computation runs as one batched SVD over every
    ``(channel, subcarrier)`` pair
    (:func:`repro.utils.linalg.orthonormal_complement_batch`, the
    batched pre-coder path) instead of ``n_channels * 64`` Python-level
    calls -- this loop was the dominant cost of the experiment.
    """
    if n_channels < 1:
        raise ConfigurationError(f"need at least one channel, got {n_channels}")
    rng = np.random.default_rng(seed)
    # 16-QAM rate 3/4 at 10 MHz is 18 Mb/s -- the paper's reference point.
    reference_mcs = MCS_TABLE[5]
    responses = _draw_link_responses(default_testbed(), n_channels, rng)  # (n, 64, 2, 1)
    subspaces, _ = orthonormal_complement_batch(responses.reshape(-1, 2, 1), 1)
    per_channel = subspaces.reshape(n_channels, 64, 2, 1)
    symbols: List[int] = [
        alignment_feedback_symbols(per_channel[i]) for i in range(n_channels)
    ]
    overhead = handshake_overhead(
        reference_mcs, payload_bytes=1500, alignment_symbols=int(round(np.mean(symbols)))
    )
    return HandshakeExperiment(
        feedback_symbols=symbols,
        overhead_fraction=overhead.symbol_fraction,
        reference_mcs_index=reference_mcs.index,
    )


def _draw_link_responses(
    testbed: Testbed, n_channels: int, rng: np.random.Generator
) -> np.ndarray:
    """The 64-bin responses of ``n_channels`` random 1x2 links of
    ``testbed``, shape ``(n_channels, 64, 2, 1)``.

    Each link draws, in order: two distinct locations, its shadowing
    normal, its line-of-sight coin and its tap normals.  The loop only
    draws; the link budget, the tap scaling and the FFT then run once
    over the whole stack, through the kernels the network construction
    uses.
    """
    n_taps = testbed.n_taps
    placements = np.empty((n_channels, 2), dtype=int)
    shadowing = np.empty(n_channels)
    coins = np.empty(n_channels)
    normals = np.empty((n_channels, n_taps, 2, 2, 1))
    for index in range(n_channels):
        placements[index] = testbed.place_nodes(2, rng)
        shadowing[index] = rng.standard_normal()
        coins[index] = rng.random()
        rng.standard_normal(out=normals[index])
    xy = np.asarray(testbed.locations, dtype=float)[placements]  # (n, 2, 2)
    dx, dy = (xy[:, 0] - xy[:, 1]).T
    losses = testbed.path_loss_at_distance(np.hypot(dx, dy))
    snrs, decays = testbed.link_scalars_batch(losses, shadowing, coins)
    taps = taps_from_normals(normals, tap_scales(n_taps, decays, db_to_linear(snrs)))
    return frequency_response_batch(taps, np.arange(64))


def summarize(result: HandshakeExperiment) -> str:
    """Render the handshake-overhead summary."""
    rows = [
        ["mean alignment-feedback symbols", f"{result.mean_feedback_symbols:.1f}"],
        ["max alignment-feedback symbols", f"{max(result.feedback_symbols)}"],
        [
            "handshake overhead (1500 B at reference rate)",
            f"{100 * result.overhead_fraction:.1f} %",
        ],
    ]
    return format_table(["metric", "value"], rows)
