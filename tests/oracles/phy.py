"""PHY oracles: the per-state Viterbi decoder, the unprecoded training
fields and per-pair channel estimation from them (the tests' receivers
decode with it), and the uncoded-BER-averaging effective SNR with its
AWGN error curves."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc

from repro.constants import NUM_LONG_TRAINING_SYMBOLS
from repro.exceptions import DimensionError
from repro.phy.channel_est import ChannelEstimate
from repro.phy.coding.convolutional import ConvolutionalEncoder, default_encoder
from repro.phy.coding.viterbi import _checked_pairs
from repro.phy.modulation import Modulation
from repro.phy.ofdm import OfdmConfig, OfdmModem
from repro.phy.preamble import Preamble, ltf_frequency_sequence, short_training_field


def trellis_transitions(encoder: ConvolutionalEncoder):
    """Forward trellis of ``encoder``, built bit by bit.

    ``next_state[s, b]`` is the state after input bit ``b`` in state ``s``,
    and ``outputs[s, b]`` the coded pair emitted (g0 output first): the
    shift register holds ``b`` above the ``K - 1`` bits of ``s``, and each
    output is the parity of the register masked by its generator.
    """
    k = encoder.constraint_length
    n_states = encoder.n_states
    next_state = np.zeros((n_states, 2), dtype=np.int32)
    outputs = np.zeros((n_states, 2, 2), dtype=np.int8)
    for state in range(n_states):
        for bit in range(2):
            register = (bit << (k - 1)) | state
            next_state[state, bit] = register >> 1
            for idx, poly in enumerate((encoder.g0, encoder.g1)):
                outputs[state, bit, idx] = bin(register & poly).count("1") % 2
    return next_state, outputs


def branch_metrics_hard(received_pair: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Hamming distance between a received coded pair and each branch output."""
    metrics = np.zeros(outputs.shape[:2])
    for idx in range(2):
        value = received_pair[idx]
        if np.isnan(value):
            continue
        metrics += outputs[:, :, idx] != int(round(float(value)))
    return metrics


def viterbi_decode_reference(
    coded: np.ndarray,
    n_data_bits: int,
    encoder: ConvolutionalEncoder | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Slow per-state hard-decision decoder: the readable specification of
    the trellis recursion :func:`~repro.phy.coding.viterbi.viterbi_decode`
    must match bit-exactly."""
    encoder = encoder or default_encoder()
    pairs = _checked_pairs(coded, n_data_bits, encoder, terminated)
    n_steps = pairs.shape[0]

    next_state, outputs = trellis_transitions(encoder)
    n_states = encoder.n_states

    infinity = np.inf
    path_metric = np.full(n_states, infinity)
    path_metric[0] = 0.0
    decisions = np.zeros((n_steps, n_states), dtype=np.int8)
    predecessors = np.zeros((n_steps, n_states), dtype=np.int32)

    for step in range(n_steps):
        branch = branch_metrics_hard(pairs[step], outputs)
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


def long_training_symbol(config: Optional[OfdmConfig] = None) -> np.ndarray:
    """One time-domain long training symbol, cyclic prefix included."""
    config = config or OfdmConfig()
    grid = ltf_frequency_sequence(config)
    return OfdmModem(config).modulate_grid(grid.reshape(1, -1))


def long_training_field(
    config: Optional[OfdmConfig] = None, n_symbols: int = NUM_LONG_TRAINING_SYMBOLS
) -> np.ndarray:
    """``n_symbols`` long training symbols back to back."""
    return np.tile(long_training_symbol(config), n_symbols)


def per_antenna_samples(preamble: Preamble) -> np.ndarray:
    """The ``(n_antennas, length)`` unprecoded preamble: every antenna
    sends the STF (scaled so the sum over antennas keeps unit power),
    then antenna ``i`` its LTF in slot ``i`` and silence in the others."""
    stf = short_training_field(preamble.config) * (1.0 / np.sqrt(preamble.n_antennas))
    ltf = long_training_field(preamble.config)
    samples = np.zeros((preamble.n_antennas, preamble.length), dtype=complex)
    samples[:, : len(stf)] = stf
    for antenna in range(preamble.n_antennas):
        start, end = preamble.ltf_slot_bounds(antenna)
        samples[antenna, start:end] = ltf
    return samples


def estimate_channel_from_ltf(
    received_slot: np.ndarray, config: Optional[OfdmConfig] = None
) -> np.ndarray:
    """Least-squares single-antenna channel estimate from one received LTF
    slot (``NUM_LONG_TRAINING_SYMBOLS`` OFDM symbols of time samples): one
    value per FFT bin, zero on bins the LTF does not occupy."""
    config = config or OfdmConfig()
    grid = OfdmModem(config).demodulate_grid(np.asarray(received_slot, dtype=complex))
    reference = ltf_frequency_sequence(config)
    occupied = np.abs(reference) > 0
    estimate = np.zeros(config.fft_size, dtype=complex)
    estimate[occupied] = grid.mean(axis=0)[occupied] / reference[occupied]
    return estimate


def estimate_mimo_channel_reference(
    received: np.ndarray,
    preamble: Preamble,
    preamble_start: int = 0,
) -> ChannelEstimate:
    """Least-squares MIMO channel estimate from a received preamble: one
    per-slot LTF estimate per (tx, rx) antenna pair.  The tests' receivers
    decode with it (:meth:`repro.phy.transceiver.MimoReceiver.decode`)."""
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


def symbol_error_probability(modulation: Modulation, snr_db: float) -> float:
    """Approximate symbol error probability of ``modulation`` on AWGN."""
    snr = 10 ** (snr_db / 10.0)
    if modulation.bits_per_symbol == 1:
        return float(0.5 * erfc(np.sqrt(snr)))
    m = 1 << modulation.bits_per_symbol
    k = np.sqrt(3.0 * snr / (m - 1))
    per_axis = (1 - 1 / np.sqrt(m)) * erfc(k / np.sqrt(2))
    return float(min(1.0, 2 * per_axis - per_axis**2))


def bit_error_probability(modulation: Modulation, snr_db: float) -> float:
    """Approximate (Gray-mapped) bit error probability of ``modulation`` on AWGN."""
    return symbol_error_probability(modulation, snr_db) / modulation.bits_per_symbol


def _ber_for_snr(modulation: Modulation, snr_db: float) -> float:
    """Uncoded BER of ``modulation`` at a given SNR, clipped to ``[1e-15, 0.5]``."""
    return min(0.5, max(bit_error_probability(modulation, snr_db), 1e-15))


def esnr_ber_average(subcarrier_snrs_db: Sequence[float], modulation: Modulation) -> float:
    """The uncoded-BER-averaging effective SNR.

    Averages the per-subcarrier *uncoded* BER for ``modulation`` and
    inverts the BER curve to find the flat-channel SNR with the same
    average BER.  This is the most literal reading of the ESNR definition,
    but because it ignores the convolutional code and interleaver it is
    dominated by the single worst subcarrier; the simulator's
    :func:`repro.phy.esnr.esnr_db` averages mutual information instead,
    and the tests pin how the two compare.
    """
    snrs = np.asarray(list(subcarrier_snrs_db), dtype=float)
    if snrs.size == 0:
        return -np.inf
    bers = np.array([_ber_for_snr(modulation, snr) for snr in snrs])
    mean_ber = float(np.mean(bers))
    if mean_ber <= 1e-14:
        return float(np.max(snrs))
    if mean_ber >= 0.5 - 1e-12:
        return float(np.min(snrs))

    def objective(snr_db: float) -> float:
        return _ber_for_snr(modulation, snr_db) - mean_ber

    low, high = -20.0, 60.0
    # The BER curve is monotonically decreasing in SNR, so bisection works.
    try:
        return float(brentq(objective, low, high))
    except ValueError:
        # mean BER outside the achievable bracket; clamp.
        return float(np.clip(np.mean(snrs), low, high))
