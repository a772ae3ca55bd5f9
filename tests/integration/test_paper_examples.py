"""Integration tests reproducing the worked examples of the paper's §2.

These tests exercise the whole pipeline -- channels, pre-coding, the
sample-level transceiver and decoding -- on the exact scenarios of
Figs. 2, 3 and 4.  The package's kernels take a stack of matrices (one
per subcarrier); a flat channel is a one-element stack.
"""

import numpy as np
import pytest

from oracles.mimo import (
    OwnReceiver,
    ReceiverConstraint,
    compute_precoders_with_own_receivers,
    ongoing_rows,
    project_and_decode,
    two_antenna_nulling_weight,
)
from repro.channel.models import awgn, complex_gaussian
from repro.exceptions import PrecodingError
from repro.mimo.decoder import post_projection_snr_batch
from repro.mimo.precoder import compute_precoders_batch
from repro.utils.db import db_to_linear, linear_to_db
from repro.utils.linalg import orthonormal_complement_batch


def _channel(rng, shape, snr_db=20.0):
    return complex_gaussian(shape, rng, db_to_linear(snr_db))


class TestFig2TwoPairExample:
    """tx2 (2 antennas) joins the single-antenna pair tx1-rx1."""

    def test_symbol_level_story(self, rng):
        # Channels as named in the paper: h_ij from antenna i to antenna j.
        h21, h31 = _channel(rng, 2)  # tx2's antennas -> rx1
        alpha = two_antenna_nulling_weight(h21, h31)
        h12 = _channel(rng, 1)[0]  # tx1 -> rx2 antenna 2
        h13 = _channel(rng, 1)[0]  # tx1 -> rx2 antenna 3
        h22, h32 = _channel(rng, 2)  # tx2 -> rx2 antenna 2
        h23, h33 = _channel(rng, 2)  # tx2 -> rx2 antenna 3

        n_symbols = 200
        p = complex_gaussian(n_symbols, rng, 1.0)  # tx1's symbols
        q = complex_gaussian(n_symbols, rng, 1.0)  # tx2's symbols

        # rx1 hears only p (tx2's signal cancels).
        rx1 = h21 * q + h31 * alpha * q
        assert np.max(np.abs(rx1)) < 1e-9

        # rx2 receives Eq. 1 and solves the 2x2 system for q.
        y2 = h12 * p + (h22 + h32 * alpha) * q
        y3 = h13 * p + (h23 + h33 * alpha) * q
        received = np.stack([y2, y3])
        h_wanted = np.array([[h22 + h32 * alpha], [h23 + h33 * alpha]])
        h_interference = np.array([[h12], [h13]])
        decoded = project_and_decode(received, h_wanted, h_interference)
        assert np.allclose(decoded, q, atol=1e-8)


class TestFig3ThreePairExample:
    """tx3 (3 antennas) joins tx1-rx1 and tx2-rx2 via nulling + alignment."""

    def test_all_three_receivers_decode(self, rng):
        # Ongoing: tx1 (1 antenna) -> rx1 (1 antenna), tx2 (2 ant) -> rx2 (2 ant).
        h_tx1_rx1 = _channel(rng, (1, 1))
        h_tx1_rx2 = _channel(rng, (2, 1))
        h_tx1_rx3 = _channel(rng, (3, 1))
        h_tx2_rx1 = _channel(rng, (1, 2))
        h_tx2_rx2 = _channel(rng, (2, 2))
        h_tx2_rx3 = _channel(rng, (3, 2))
        h_tx3_rx1 = _channel(rng, (1, 3))
        h_tx3_rx2 = _channel(rng, (2, 3))
        h_tx3_rx3 = _channel(rng, (3, 3))

        # tx2 nulls at rx1 (it joined second): one stream, pre-coder w2.
        w2 = compute_precoders_batch(2, h_tx2_rx1[None])[0, 0]
        # tx3 nulls at rx1 and aligns at rx2 inside rx2's unwanted space.
        rx2_interference = h_tx1_rx2  # direction of p at rx2
        u_perp_rx2 = orthonormal_complement_batch(rx2_interference[None], 1)[0]
        ongoing = [
            ReceiverConstraint(channel=h_tx3_rx1),
            ReceiverConstraint(channel=h_tx3_rx2, u_perp=u_perp_rx2),
        ]
        w3 = compute_precoders_batch(3, ongoing_rows(3, ongoing))[0, 0]

        n = 500
        p = complex_gaussian(n, rng, 1.0)
        q = complex_gaussian(n, rng, 1.0)
        r = complex_gaussian(n, rng, 1.0)
        noise_power = 1e-4

        # rx1: only tx1's signal should remain.
        rx1 = (
            h_tx1_rx1[:, 0] * p
            + (h_tx2_rx1 @ w2) * q
            + (h_tx3_rx1 @ w3) * r
        )
        rx1 = awgn(rx1, noise_power, rng)
        wanted_power = np.mean(np.abs(h_tx1_rx1[:, 0] * p) ** 2)
        residual_power = np.mean(np.abs(rx1 - h_tx1_rx1[:, 0] * p) ** 2)
        assert 10 * np.log10(wanted_power / residual_power) > 20.0

        # rx2: decodes q after projecting out the (aligned) interference.
        rx2 = (
            h_tx1_rx2 @ p.reshape(1, -1)
            + (h_tx2_rx2 @ w2).reshape(2, 1) @ q.reshape(1, -1)
            + (h_tx3_rx2 @ w3).reshape(2, 1) @ r.reshape(1, -1)
        )
        rx2 = awgn(rx2, noise_power, rng)
        decoded_q = project_and_decode(
            rx2, (h_tx2_rx2 @ w2).reshape(2, 1), h_tx1_rx2
        )
        error = np.mean(np.abs(decoded_q - q) ** 2)
        assert error < 0.05

        # rx3: decodes r after projecting out p and q directions.
        rx3 = (
            h_tx1_rx3 @ p.reshape(1, -1)
            + (h_tx2_rx3 @ w2).reshape(3, 1) @ q.reshape(1, -1)
            + (h_tx3_rx3 @ w3).reshape(3, 1) @ r.reshape(1, -1)
        )
        rx3 = awgn(rx3, noise_power, rng)
        interference_at_rx3 = np.concatenate(
            [h_tx1_rx3, (h_tx2_rx3 @ w2).reshape(3, 1)], axis=1
        )
        decoded_r = project_and_decode(
            rx3, (h_tx3_rx3 @ w3).reshape(3, 1), interference_at_rx3
        )
        assert np.mean(np.abs(decoded_r - r) ** 2) < 0.05

    def test_alignment_is_necessary(self, rng):
        """Nulling alone at rx1 and rx2 consumes all three antennas (Eq. 2)."""
        h_rx1 = _channel(rng, (1, 3))
        h_rx2 = _channel(rng, (2, 3))
        with pytest.raises(PrecodingError):
            compute_precoders_batch(3, np.concatenate([h_rx1, h_rx2])[None])


class TestFig4HeterogeneousExample:
    """AP2 (3 antennas) serves two 2-antenna clients while protecting AP1."""

    def test_all_receivers_protected_and_served(self, rng):
        h_c1_ap1 = _channel(rng, (2, 1))  # ongoing uplink signal direction at AP1
        h_ap2_ap1 = _channel(rng, (2, 3))
        h_ap2_c2 = _channel(rng, (2, 3))
        h_ap2_c3 = _channel(rng, (2, 3))
        h_c1_c2 = _channel(rng, (2, 1))
        h_c1_c3 = _channel(rng, (2, 1))

        # AP1 keeps receiving c1: its decoding direction is orthogonal to
        # nothing yet (c1 is the wanted signal), so AP2 must align its two
        # streams inside AP1's unwanted space (orthogonal to AP1's decoding
        # direction for c1).
        u_perp_ap1 = h_c1_ap1 / np.linalg.norm(h_c1_ap1)
        u_perp_c2 = orthonormal_complement_batch(h_c1_c2[None], 1)[0]
        u_perp_c3 = orthonormal_complement_batch(h_c1_c3[None], 1)[0]

        precoders = compute_precoders_with_own_receivers(
            3,
            [ReceiverConstraint(channel=h_ap2_ap1, u_perp=u_perp_ap1)],
            [
                OwnReceiver(channel=h_ap2_c2, u_perp=u_perp_c2, n_streams=1),
                OwnReceiver(channel=h_ap2_c3, u_perp=u_perp_c3, n_streams=1),
            ],
        )
        v2, v3 = precoders

        # AP1's decoding direction sees no interference from either stream.
        for v in (v2, v3):
            leak = u_perp_ap1.conj().T @ (h_ap2_ap1 @ v)
            assert np.max(np.abs(leak)) < 1e-8

        # c2 can decode p2: its post-projection SNR is healthy once p1 and
        # p3 are accounted for (p3 is aligned along p1 at c2).
        snr_c2 = linear_to_db(
            post_projection_snr_batch(
                (h_ap2_c2 @ v2).reshape(1, 2, 1), h_c1_c2[None], noise_power=1e-3
            )[0, 0]
        )
        assert snr_c2 > 10.0
        leak_p3_at_c2 = u_perp_c2.conj().T @ (h_ap2_c2 @ v3)
        assert np.max(np.abs(leak_p3_at_c2)) < 1e-8
