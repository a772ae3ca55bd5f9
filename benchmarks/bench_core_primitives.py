"""Micro-benchmarks of the core primitives.

These do not correspond to a paper figure; they track the cost of the
operations an n+ node performs per packet (pre-coder computation,
multi-dimensional carrier sense, FEC) so regressions in the hot paths are
visible.
"""

from __future__ import annotations

import numpy as np

from repro.mac.plan import PlannedReceiver, ProtectedReceiver, plan_join
from repro.mimo.carrier_sense import MultiDimensionalCarrierSense
from repro.phy.coding.codec import Codec
from repro.phy.rates import MCS_TABLE
from repro.phy.transceiver import MimoTransmitter, StreamConfig
from repro.utils.bits import random_bits


def bench_plan_join_per_subcarrier(benchmark):
    """Cost of computing a full per-subcarrier join plan (Fig. 5(d) case)."""
    rng = np.random.default_rng(0)
    n_sub = 16

    def channels(n_rx, n_tx):
        return rng.standard_normal((n_sub, n_rx, n_tx)) + 1j * rng.standard_normal(
            (n_sub, n_rx, n_tx)
        )

    u_perp = np.zeros((n_sub, 2, 1), dtype=complex)
    u_perp[:, 0, 0] = 1.0
    protected = [
        ProtectedReceiver(1, 1, 1, channels(1, 3)),
        ProtectedReceiver(3, 2, 1, channels(2, 3), u_perp=u_perp),
    ]
    receivers = [PlannedReceiver(5, 3, 1, channels(3, 3))]

    plan = benchmark(lambda: plan_join(4, 3, protected, receivers))
    assert len(plan.streams) == 1


def bench_carrier_sense_power_db(benchmark):
    """Cost of projecting a 500-sample window on 3 antennas and measuring
    its power: the multi-dimensional carrier sense Fig. 9 runs."""
    rng = np.random.default_rng(1)
    sensor = MultiDimensionalCarrierSense(3)
    sensor.add_ongoing(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    samples = rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500))

    power_db = benchmark(lambda: sensor.sense_power_db(samples))
    assert np.isfinite(power_db)


def bench_codec_encode_1500_bytes(benchmark):
    """FEC encoding cost of a 1500-byte packet at 16-QAM rate 3/4."""
    rng = np.random.default_rng(2)
    codec = Codec(MCS_TABLE[5])
    bits = random_bits(12_000, rng)

    coded = benchmark(lambda: codec.encode(bits))
    assert coded.size > 0


def bench_codec_decode_1500_bytes(benchmark):
    """Viterbi decoding cost of a 1500-byte packet (the receive hot path)."""
    rng = np.random.default_rng(3)
    codec = Codec(MCS_TABLE[5])
    bits = random_bits(12_000, rng)
    coded = codec.encode(bits).astype(float)

    decoded = benchmark(lambda: codec.decode(coded, bits.size))
    assert np.array_equal(decoded, bits)


def bench_build_frame_precoded(benchmark):
    """Cost of building a 2-stream frame with per-subcarrier pre-coders
    (the n+ transmit hot path, §4 "Multipath")."""
    rng = np.random.default_rng(5)
    n_antennas = 3
    transmitter = MimoTransmitter(n_antennas)
    fft_size = transmitter.config.fft_size
    streams = [
        StreamConfig(
            bits=random_bits(2_000, rng),
            mcs=MCS_TABLE[3],
            precoder=rng.standard_normal((fft_size, n_antennas))
            + 1j * rng.standard_normal((fft_size, n_antennas)),
            stream_id=index,
        )
        for index in range(2)
    ]

    samples, layout = benchmark(lambda: transmitter.build_frame(streams))
    assert samples.shape[0] == n_antennas
    assert layout.n_streams == 2
