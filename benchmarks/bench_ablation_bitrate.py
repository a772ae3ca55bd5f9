"""Ablation -- per-packet ESNR bitrate selection vs historical rate control
(§3.4, Fig. 7).

When concurrent transmissions come from different nodes, the angle between
the wanted stream and the interference -- and therefore the best bitrate --
changes from packet to packet even if the channels do not.  This ablation
simulates a receiver whose interferer set changes randomly per packet and
compares the throughput of n+'s per-packet ESNR selection against a
conventional history-based controller.
"""

from __future__ import annotations

import numpy as np
from reporting import print_block

from repro.channel.models import complex_gaussian
from repro.mac.bitrate import HistoricalRateController, choose_bitrate
from repro.mimo.decoder import post_projection_snr_batch
from repro.phy.esnr import packet_delivery_probability
from repro.utils.db import db_to_linear, linear_to_db


def _per_packet_vs_historical(n_packets: int = 2000, seed: int = 0):
    rng = np.random.default_rng(seed)
    # Static wanted channel (2-antenna receiver), 20 dB average SNR.
    h_wanted = complex_gaussian((2, 1), rng, db_to_linear(20.0))
    controller = HistoricalRateController()
    per_packet_bits = 0.0
    historical_bits = 0.0
    packet_bits = 12_000
    for _ in range(n_packets):
        # The set of concurrent transmitters changes per packet: sometimes
        # nobody, sometimes a single-antenna interferer in a random direction.
        if rng.random() < 0.6:
            interference = complex_gaussian((2, 1), rng, db_to_linear(20.0))
        else:
            interference = None
        snr = post_projection_snr_batch(
            h_wanted[None], None if interference is None else interference[None], noise_power=1.0
        )[0][0]
        snrs = list(linear_to_db(snr)) * 8

        # n+: measure on the light-weight RTS, pick per packet.
        mcs = choose_bitrate(snrs, margin_db=1.0)
        if rng.random() < packet_delivery_probability(snrs, mcs, packet_bits):
            per_packet_bits += packet_bits

        # Baseline: history-based selection, updated from outcomes.
        historical_mcs = controller.select()
        delivered = rng.random() < packet_delivery_probability(snrs, historical_mcs, packet_bits)
        controller.record(historical_mcs, delivered)
        if delivered:
            historical_bits += packet_bits
    return per_packet_bits, historical_bits


def bench_ablation_bitrate_selection(benchmark):
    per_packet, historical = benchmark.pedantic(
        _per_packet_vs_historical, kwargs={"n_packets": 2000, "seed": 0}, rounds=1, iterations=1
    )
    improvement = per_packet / max(historical, 1.0)
    body = "\n".join(
        [
            f"delivered bits, per-packet ESNR selection : {per_packet / 1e6:.1f} Mbit",
            f"delivered bits, historical rate control   : {historical / 1e6:.1f} Mbit",
            f"improvement                               : {improvement:.2f}x",
        ]
    )
    print_block("Ablation -- per-packet bitrate selection vs historical control", body)
    assert per_packet > historical
