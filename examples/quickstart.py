#!/usr/bin/env python
"""Quickstart: the building blocks of 802.11n+ in five minutes.

The script walks through the paper's Fig. 2 example end to end:

1. a single-antenna pair (tx1 -> rx1) is already transmitting;
2. a 2-antenna transmitter (tx2) computes a pre-coding vector that *nulls*
   its signal at rx1, so it can transmit concurrently without harming the
   ongoing reception;
3. rx2 decodes tx2's stream by projecting out tx1's interference;
4. finally, a short MAC-level simulation compares n+ against plain 802.11n
   on the full three-pair topology of Fig. 3.

Run it with::

    python examples/quickstart.py

Every step asserts its own claim, so the script doubles as a headless
smoke test (the suite runs it with ``REPRO_QUICK=1``, which shrinks the
simulated durations).
"""

from __future__ import annotations

import os

import numpy as np

#: Set REPRO_QUICK=1 to shrink the run for smoke testing.
QUICK = bool(os.environ.get("REPRO_QUICK"))

from repro.channel.models import complex_gaussian
from repro.mimo.carrier_sense import MultiDimensionalCarrierSense
from repro.mimo.decoder import post_projection_snr_batch
from repro.mimo.precoder import compute_precoders_batch
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import three_pair_scenario
from repro.utils.db import db_to_linear, linear_to_db
from repro.utils.linalg import orthonormal_complement_batch


def nulling_example(rng: np.random.Generator) -> None:
    print("=" * 70)
    print("Step 1-3: interference nulling and projection decoding (Fig. 2)")
    print("=" * 70)

    # Channels (20 dB links): tx2's two antennas to rx1, and to rx2's two antennas.
    h_tx2_rx1 = complex_gaussian((1, 2), rng, db_to_linear(20.0))
    h_tx2_rx2 = complex_gaussian((2, 2), rng, db_to_linear(20.0))
    h_tx1_rx2 = complex_gaussian((2, 1), rng, db_to_linear(20.0))

    # tx2 nulls at rx1 (Claim 3.3): one pre-coding vector in the null space.
    # The MIMO kernels take a stack of matrices (one per OFDM subcarrier);
    # a single flat channel is a one-element stack.
    precoder = compute_precoders_batch(2, h_tx2_rx1[None])[0, 0]
    leak_at_rx1 = np.abs(h_tx2_rx1 @ precoder)[0]
    print(f"interference tx2 leaves at rx1 : {linear_to_db(leak_at_rx1 ** 2):7.1f} dB (ideal: -inf)")
    assert leak_at_rx1**2 < 1e-12, "nulling should cancel tx2 at rx1 to numerical precision"

    # rx2 decodes tx2's symbols by projecting out tx1's interference.
    n_symbols = 500 if QUICK else 2000
    p = complex_gaussian(n_symbols, rng, 1.0)  # tx1's symbols
    q = complex_gaussian(n_symbols, rng, 1.0)  # tx2's symbols
    noise = complex_gaussian((2, n_symbols), rng, 1e-2)
    received = (
        h_tx1_rx2 @ p.reshape(1, -1)
        + (h_tx2_rx2 @ precoder).reshape(2, 1) @ q.reshape(1, -1)
        + noise
    )
    # Project onto the complement of tx1's direction, then zero-force.
    h_wanted = (h_tx2_rx2 @ precoder).reshape(2, 1)
    projector = orthonormal_complement_batch(h_tx1_rx2[None], 1)[0]
    decoded = np.linalg.pinv(projector.conj().T @ h_wanted) @ (projector.conj().T @ received)
    error = float(np.mean(np.abs(decoded - q) ** 2))
    snr = linear_to_db(post_projection_snr_batch(h_wanted[None], h_tx1_rx2[None], 1e-2)[0, 0])
    print(f"rx2 post-projection SNR        : {snr:7.1f} dB")
    print(f"rx2 symbol error power         : {error:7.4f} (unit-power symbols)")
    assert error < 0.5, "projection decoding should recover tx2's unit-power symbols"


def carrier_sense_example(rng: np.random.Generator) -> None:
    print()
    print("=" * 70)
    print("Step 4: multi-dimensional carrier sense (Fig. 6)")
    print("=" * 70)

    sensor = MultiDimensionalCarrierSense(n_antennas=3)
    h_ongoing = complex_gaussian(3, rng, db_to_linear(20.0))
    sensor.add_ongoing(h_ongoing)

    ongoing_only = np.outer(h_ongoing, complex_gaussian(500, rng, 1.0))
    noise = complex_gaussian((3, 500), rng, 1.0)
    raw_db = linear_to_db(np.mean(np.abs(ongoing_only) ** 2))
    projected_db = sensor.sense_power_db(ongoing_only + noise)
    print(f"raw power on the medium        : {raw_db:7.1f} dB")
    print(f"power after projection         : {projected_db:7.1f} dB")
    print("-> the second degree of freedom looks idle, so a 2+ antenna node may contend")
    assert projected_db < raw_db - 10.0, "projection should hide the ongoing transmission"


def mac_comparison(rng: np.random.Generator) -> None:
    print()
    print("=" * 70)
    print("Step 5: n+ vs 802.11n on the three-pair topology (Fig. 3)")
    print("=" * 70)

    duration = 20_000.0 if QUICK else 60_000.0
    config = SimulationConfig(duration_us=duration, n_subcarriers=8)
    totals = {}
    for protocol in ("802.11n", "n+"):
        metrics = run_simulation(three_pair_scenario(), protocol, seed=7, config=config)
        totals[protocol] = metrics.total_throughput_mbps()
        per_pair = "  ".join(
            f"{name}: {value:5.1f}" for name, value in metrics.per_link_throughputs().items()
        )
        print(f"{protocol:9s} total {metrics.total_throughput_mbps():5.1f} Mb/s   ({per_pair})")
    assert all(value > 0.0 for value in totals.values()), "both protocols should deliver traffic"


def main() -> None:
    rng = np.random.default_rng(0)
    nulling_example(rng)
    carrier_sense_example(rng)
    mac_comparison(rng)


if __name__ == "__main__":
    main()
