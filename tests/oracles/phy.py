"""PHY oracles: the per-state Viterbi decoder and per-pair channel estimation."""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.phy.channel_est import ChannelEstimate, estimate_channel_from_ltf
from repro.phy.coding.convolutional import ConvolutionalEncoder, default_encoder
from repro.phy.coding.viterbi import _checked_pairs
from repro.phy.preamble import Preamble, ltf_frequency_sequence


def _branch_metrics_hard(received_pair: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Hamming distance between a received coded pair and each branch output."""
    metrics = np.zeros(outputs.shape[:2])
    for idx in range(2):
        value = received_pair[idx]
        if np.isnan(value):
            continue
        metrics += outputs[:, :, idx] != int(round(float(value)))
    return metrics


def _branch_metrics_soft(received_pair: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Negative correlation metric for soft inputs (LLR > 0 means bit 0)."""
    metrics = np.zeros(outputs.shape[:2])
    for idx in range(2):
        llr = received_pair[idx]
        if np.isnan(llr):
            continue
        # Bit value 0 should be rewarded when llr > 0; bit 1 when llr < 0.
        signs = 1.0 - 2.0 * outputs[:, :, idx]  # +1 for bit 0, -1 for bit 1
        metrics += -signs * llr
    return metrics


def viterbi_decode_reference(
    coded: np.ndarray,
    n_data_bits: int,
    soft: bool = False,
    encoder: ConvolutionalEncoder | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Slow per-state decoder: the readable specification of the trellis
    recursion :func:`~repro.phy.coding.viterbi.viterbi_decode` must match
    bit-exactly."""
    encoder = encoder or default_encoder()
    pairs = _checked_pairs(coded, n_data_bits, encoder, terminated)
    n_steps = pairs.shape[0]

    next_state, outputs = encoder.transitions()
    n_states = encoder.n_states
    metric_fn = _branch_metrics_soft if soft else _branch_metrics_hard

    infinity = np.inf
    path_metric = np.full(n_states, infinity)
    path_metric[0] = 0.0
    decisions = np.zeros((n_steps, n_states), dtype=np.int8)
    predecessors = np.zeros((n_steps, n_states), dtype=np.int32)

    for step in range(n_steps):
        branch = metric_fn(pairs[step], outputs)
        new_metric = np.full(n_states, infinity)
        new_decision = np.zeros(n_states, dtype=np.int8)
        new_pred = np.zeros(n_states, dtype=np.int32)
        for state in range(n_states):
            if not np.isfinite(path_metric[state]):
                continue
            for bit in range(2):
                nxt = next_state[state, bit]
                candidate = path_metric[state] + branch[state, bit]
                if candidate < new_metric[nxt]:
                    new_metric[nxt] = candidate
                    new_decision[nxt] = bit
                    new_pred[nxt] = state
        path_metric = new_metric
        decisions[step] = new_decision
        predecessors[step] = new_pred

    if terminated:
        final_state = 0
        if not np.isfinite(path_metric[0]):
            final_state = int(np.argmin(path_metric))
    else:
        final_state = int(np.argmin(path_metric))

    # Trace back.
    bits = np.zeros(n_steps, dtype=np.int8)
    state = final_state
    for step in range(n_steps - 1, -1, -1):
        bits[step] = decisions[step, state]
        state = predecessors[step, state]
    return bits[:n_data_bits]


def estimate_mimo_channel_reference(
    received: np.ndarray,
    preamble: Preamble,
    preamble_start: int = 0,
) -> ChannelEstimate:
    """Per-(tx, rx)-pair estimation loop.

    :func:`~repro.phy.channel_est.estimate_mimo_channel` must produce
    bit-identical matrices.
    """
    received = np.asarray(received, dtype=complex)
    if received.ndim == 1:
        received = received.reshape(1, -1)
    n_rx = received.shape[0]
    config = preamble.config
    if preamble_start + preamble.length > received.shape[1]:
        raise DimensionError(
            "received samples are shorter than the preamble: "
            f"{received.shape[1]} < {preamble_start + preamble.length}"
        )

    matrices = np.zeros((config.fft_size, n_rx, preamble.n_antennas), dtype=complex)
    reference = ltf_frequency_sequence(config)
    occupied = np.abs(reference) > 0
    for tx_antenna in range(preamble.n_antennas):
        start, end = preamble.ltf_slot_bounds(tx_antenna)
        start += preamble_start
        end += preamble_start
        for rx_antenna in range(n_rx):
            slot = received[rx_antenna, start:end]
            estimate = estimate_channel_from_ltf(slot, config)
            matrices[:, rx_antenna, tx_antenna] = estimate
    return ChannelEstimate(matrices=matrices, valid_bins=np.where(occupied)[0])
