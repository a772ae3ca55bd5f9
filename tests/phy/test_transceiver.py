"""End-to-end tests of the MIMO transmit/receive chain."""

import numpy as np
import pytest

from helpers import apply_channel, bit_error_rate
from oracles.phy import estimate_mimo_channel_reference
from repro.channel.models import awgn
from repro.channel.multipath import MultipathChannel
from repro.exceptions import ConfigurationError
from repro.phy.rates import MCS_TABLE
from repro.phy.transceiver import MimoReceiver, MimoTransmitter, StreamConfig
from repro.utils.bits import random_bits
from repro.utils.db import db_to_linear


def _run_link(rng, n_tx, n_rx, streams, snr_db=30.0, n_taps=3):
    """Build a frame, run it through a random channel and decode it."""
    transmitter = MimoTransmitter(n_tx)
    samples, layout = transmitter.build_frame(streams)
    channel = MultipathChannel.random(
        n_rx, n_tx, rng, n_taps=n_taps, average_gain=db_to_linear(snr_db)
    )
    noise_power = 1.0
    received = awgn(apply_channel(channel, samples), noise_power, rng)
    return _decode(MimoReceiver(n_rx), received, layout, noise_power=noise_power)


def _decode(receiver, received, layout, **kwargs):
    """Decode with the least-squares estimate of the received preamble."""
    estimate = estimate_mimo_channel_reference(received, layout.preamble)
    return receiver.decode(received, layout, estimate, **kwargs)


class TestSingleStream:
    @pytest.mark.parametrize("mcs_index", [0, 2, 4])
    def test_single_antenna_link(self, mcs_index, rng):
        bits = random_bits(600, rng)
        streams = [
            StreamConfig(bits=bits, mcs=MCS_TABLE[mcs_index], precoder=np.array([1.0]), stream_id=1)
        ]
        decoded = _run_link(rng, 1, 1, streams, snr_db=28.0)
        assert bit_error_rate(bits, decoded[1].bits) == 0.0

    def test_low_snr_high_mcs_fails(self, rng):
        bits = random_bits(600, rng)
        streams = [
            StreamConfig(bits=bits, mcs=MCS_TABLE[7], precoder=np.array([1.0]), stream_id=0)
        ]
        decoded = _run_link(rng, 1, 1, streams, snr_db=3.0)
        assert bit_error_rate(bits, decoded[0].bits) > 0.0

    def test_post_snr_reported_reasonably(self, rng):
        bits = random_bits(400, rng)
        streams = [
            StreamConfig(bits=bits, mcs=MCS_TABLE[2], precoder=np.array([1.0]), stream_id=0)
        ]
        decoded = _run_link(rng, 1, 1, streams, snr_db=25.0)
        assert decoded[0].post_snr_db > 10.0


class TestSpatialMultiplexing:
    def test_two_streams_over_2x2(self, rng):
        bits_a = random_bits(500, rng)
        bits_b = random_bits(500, rng)
        streams = [
            StreamConfig(bits=bits_a, mcs=MCS_TABLE[2], precoder=np.array([1.0, 0.0]), stream_id=0),
            StreamConfig(bits=bits_b, mcs=MCS_TABLE[2], precoder=np.array([0.0, 1.0]), stream_id=1),
        ]
        decoded = _run_link(rng, 2, 2, streams, snr_db=32.0)
        assert bit_error_rate(bits_a, decoded[0].bits) == 0.0
        assert bit_error_rate(bits_b, decoded[1].bits) == 0.0

    def test_three_streams_over_3x3(self, rng):
        all_bits = [random_bits(300, rng) for _ in range(3)]
        streams = [
            StreamConfig(
                bits=bits,
                mcs=MCS_TABLE[1],
                precoder=np.eye(3)[i].astype(complex),
                stream_id=i,
            )
            for i, bits in enumerate(all_bits)
        ]
        decoded = _run_link(rng, 3, 3, streams, snr_db=35.0)
        for i, bits in enumerate(all_bits):
            assert bit_error_rate(bits, decoded[i].bits) < 0.01

    def test_wanted_subset_only(self, rng):
        bits_a = random_bits(200, rng)
        bits_b = random_bits(200, rng)
        streams = [
            StreamConfig(bits=bits_a, mcs=MCS_TABLE[0], precoder=np.array([1.0, 0.0]), stream_id=10),
            StreamConfig(bits=bits_b, mcs=MCS_TABLE[0], precoder=np.array([0.0, 1.0]), stream_id=11),
        ]
        transmitter = MimoTransmitter(2)
        samples, layout = transmitter.build_frame(streams)
        channel = MultipathChannel.random(2, 2, rng, n_taps=2, average_gain=1e3)
        received = awgn(apply_channel(channel, samples), 1.0, rng)
        decoded = _decode(MimoReceiver(2), received, layout, wanted_streams=[11], noise_power=1.0)
        assert list(decoded) == [11]
        assert bit_error_rate(bits_b, decoded[11].bits) == 0.0


class TestPrecodedNulling:
    def test_nulling_precoder_protects_a_bystander(self, rng):
        """A 2-antenna transmitter nulling at a single-antenna bystander
        must deliver its stream while leaving (almost) no power there."""
        from repro.mimo.precoder import compute_precoders_batch

        h_bystander = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        precoder = compute_precoders_batch(2, h_bystander[None], n_streams=1)[0][0, 0]
        bits = random_bits(400, rng)
        streams = [StreamConfig(bits=bits, mcs=MCS_TABLE[2], precoder=precoder, stream_id=0)]
        transmitter = MimoTransmitter(2)
        samples, layout = transmitter.build_frame(streams)
        leak = h_bystander @ samples
        assert np.mean(np.abs(leak) ** 2) < 1e-20

        matrix = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        channel = MultipathChannel(taps=np.sqrt(db_to_linear(28.0)) * matrix[None])
        received = awgn(apply_channel(channel, samples), 1.0, rng)
        decoded = _decode(MimoReceiver(2), received, layout, noise_power=1.0)
        assert bit_error_rate(bits, decoded[0].bits) == 0.0


class TestValidation:
    def test_zero_antennas_rejected(self):
        with pytest.raises(ConfigurationError):
            MimoTransmitter(0)
        with pytest.raises(ConfigurationError):
            MimoReceiver(0)

    def test_empty_streams_rejected(self):
        with pytest.raises(ConfigurationError):
            MimoTransmitter(2).build_frame([])

    def test_layout_reports_lengths(self, rng):
        bits = random_bits(100, rng)
        streams = [StreamConfig(bits=bits, mcs=MCS_TABLE[0], precoder=np.array([1.0]), stream_id=0)]
        samples, layout = MimoTransmitter(1).build_frame(streams)
        assert samples.shape[1] == layout.preamble_length + layout.body_length
        assert layout.n_streams == 1
