"""Ablation -- why alignment is needed on top of nulling (§2, Eq. 2 vs Eq. 4).

The paper argues that a third transmitter cannot join two ongoing
transmissions with interference nulling alone: nulling at three receive
antennas consumes all three of its antennas.  This ablation quantifies the
claim across random channels: with nulling-only the joiner gets zero
streams (and therefore zero throughput); with nulling + alignment it gets
one stream whose post-projection SNR supports a useful bitrate.
"""

from __future__ import annotations

import numpy as np
from reporting import print_block

from repro.channel.models import complex_gaussian
from repro.exceptions import PrecodingError
from repro.mimo.decoder import post_projection_snr_batch
from repro.mimo.precoder import compute_precoders_batch
from repro.phy.esnr import select_mcs
from repro.utils.db import db_to_linear, linear_to_db
from repro.utils.linalg import orthonormal_complement_batch


def _third_joiner_comparison(n_trials: int = 300, seed: int = 0):
    """For each random channel draw, how many streams (and what bitrate)
    does the third transmitter get with nulling-only vs nulling+alignment?"""
    rng = np.random.default_rng(seed)
    nulling_only_streams = []
    combined_streams = []
    combined_rates_mbps = []
    for _ in range(n_trials):
        gain = db_to_linear(rng.uniform(10.0, 25.0))
        h_rx1 = complex_gaussian((1, 3), rng, gain)
        h_rx2 = complex_gaussian((2, 3), rng, gain)
        h_rx3 = complex_gaussian((3, 3), rng, gain)
        interference_at_rx2 = complex_gaussian((2, 1), rng, gain)

        # Nulling-only: must null at rx1 (1 antenna) and rx2 (2 antennas),
        # i.e. satisfy all three rows of its channels (pre-coders take a
        # stack of constraint matrices; one matrix is a one-element stack).
        try:
            precoders = compute_precoders_batch(3, np.concatenate([h_rx1, h_rx2])[None])
            nulling_only_streams.append(precoders.shape[1])
        except PrecodingError:
            nulling_only_streams.append(0)

        # Nulling at rx1 + alignment at rx2 (its row is U_perp^H H, Eq. 6).
        u_perp = orthonormal_complement_batch(interference_at_rx2[None], 1)[0]
        rows = np.concatenate([h_rx1, u_perp.conj().T @ h_rx2])
        try:
            vectors = compute_precoders_batch(3, rows[None])[0]
        except PrecodingError:
            combined_streams.append(0)
            continue
        combined_streams.append(len(vectors))
        # The joiner's receiver projects out the two ongoing streams.
        ongoing_at_rx3 = complex_gaussian((3, 2), rng, gain)
        wanted = (h_rx3 @ vectors[0]).reshape(1, 3, 1)
        snr = linear_to_db(
            post_projection_snr_batch(wanted, ongoing_at_rx3[None], noise_power=1.0)[0]
        )
        mcs = select_mcs(list(snr) * 8)
        combined_rates_mbps.append(mcs.data_rate_mbps())
    return nulling_only_streams, combined_streams, combined_rates_mbps


def bench_ablation_nulling_only_vs_alignment(benchmark):
    nulling_only, combined, rates = benchmark.pedantic(
        _third_joiner_comparison, kwargs={"n_trials": 300, "seed": 0}, rounds=1, iterations=1
    )
    body = "\n".join(
        [
            f"third transmitter streams, nulling only   : mean {np.mean(nulling_only):.2f}",
            f"third transmitter streams, null + align   : mean {np.mean(combined):.2f}",
            f"third transmitter bitrate with alignment  : mean {np.mean(rates):.1f} Mb/s",
        ]
    )
    print_block("Ablation -- nulling-only vs nulling + alignment for the third joiner", body)
    assert np.mean(nulling_only) == 0.0
    assert np.mean(combined) == 1.0
    assert np.mean(rates) > 3.0
