"""Hard-decision Viterbi decoding of the 802.11 convolutional code.

The input is a demodulated 0/1 stream: Hamming branch metrics on the
rounded values, with punctured positions marked by erasures (NaN) that
contribute zero metric.  A rounded value that is neither 0 nor 1 matches
neither output bit (metric 1).

The decoder does three things per frame, each with a fixed number of NumPy
calls or one tight Python loop:

* **Branch metrics from a table.**  After rounding, every received coded
  pair is one of 16 patterns (each bit is 0, 1, erased or other).  The
  encoder caches the incoming metrics of every state for each pattern
  (:meth:`~repro.phy.coding.convolutional.ConvolutionalEncoder.incoming_metrics`),
  so the frame's metrics are one gather, ``table[pattern]``.
* **Add-compare-select over a history array.**  Every step's path metrics
  are one row of an ``(n_steps + 1, n_states)`` array.  The trellis has
  butterfly structure -- the predecessors of state ``s`` are
  ``(2s, 2s + 1) mod n_states`` -- so each step is one ``np.add`` of the
  incoming metrics to a strided view of the previous row, and one
  ``np.minimum`` of the two candidates into the next row.  The survivor
  decisions (``candidate[1] < candidate[0]``: ties keep the lower
  predecessor) are taken for all steps at once after the loop.
* **Traceback through packed words.**  Each step's decisions are packed
  into one Python int, and the walk reads ``(word >> state) & 1``.

The readable per-state decoder is kept as a test oracle
(``tests/oracles/phy.py``) and asserted bit-exact against this one.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DecodingError
from repro.phy.coding.convolutional import (
    BIT_ERASED,
    BIT_ONE,
    BIT_OTHER,
    BIT_ZERO,
    ConvolutionalEncoder,
    default_encoder,
)

__all__ = ["viterbi_decode"]

#: Bits in one lane of a packed decision word.
_LANE_BITS = 64


def _checked_pairs(
    coded: np.ndarray,
    n_data_bits: int,
    encoder: ConvolutionalEncoder,
    terminated: bool,
) -> np.ndarray:
    """Validate the coded stream and reshape it to ``(n_steps, 2)``."""
    coded = np.asarray(coded, dtype=float)
    if coded.size % 2 != 0:
        raise DecodingError(f"coded length {coded.size} is not a multiple of 2")
    n_steps = coded.size // 2
    total_bits = n_data_bits + (encoder.tail_bits if terminated else 0)
    if n_steps < total_bits:
        raise DecodingError(
            f"coded stream has {n_steps} steps but {total_bits} bits are expected"
        )
    return coded[: 2 * total_bits].reshape(total_bits, 2)


def _pair_patterns(pairs: np.ndarray) -> np.ndarray:
    """The pattern ``4 * code0 + code1`` of every received coded pair."""
    received = np.rint(pairs)
    codes = np.where(
        received == 0.0,
        BIT_ZERO,
        np.where(received == 1.0, BIT_ONE, np.where(np.isnan(received), BIT_ERASED, BIT_OTHER)),
    )
    return 4 * codes[:, 0] + codes[:, 1]


def _packed_words(choices: np.ndarray) -> list:
    """One Python int per step whose bit ``s`` is ``choices[step, s]``."""
    n_steps, n_states = choices.shape
    n_lanes = -(-n_states // _LANE_BITS)
    padded = np.zeros((n_steps, n_lanes * _LANE_BITS), dtype=bool)
    padded[:, :n_states] = choices
    lanes = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    words = lanes[:, 0].tolist()
    for lane in range(1, n_lanes):
        shift = lane * _LANE_BITS
        words = [word | (high << shift) for word, high in zip(words, lanes[:, lane].tolist())]
    return words


def viterbi_decode(
    coded: np.ndarray,
    n_data_bits: int,
    encoder: ConvolutionalEncoder | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Decode a rate-1/2 hard-decision coded sequence back to ``n_data_bits`` bits.

    Parameters
    ----------
    coded:
        The received coded stream: 0/1 values, with NaN erasures at
        punctured positions.
    n_data_bits:
        Number of information bits to return (excluding tail bits).
    encoder:
        The encoder whose trellis to use; defaults to the 802.11 encoder.
    terminated:
        Whether the encoder appended tail bits (the decoder then forces
        the final state to zero).
    """
    encoder = encoder or default_encoder()
    pairs = _checked_pairs(coded, n_data_bits, encoder, terminated)
    n_steps = pairs.shape[0]
    n_states = encoder.n_states
    n_half = n_states // 2

    # incoming[step, j, h, k]: metric of the j-th incoming transition of
    # state h * n_half + k, whose predecessor is state 2k + j.
    incoming = encoder.incoming_metrics()[_pair_patterns(pairs)]

    history = np.empty((n_steps + 1, n_states))
    history[0] = np.inf
    history[0, 0] = 0.0
    # previous[step, j, 0, k] is history[step, 2k + j], broadcast over h.
    previous = history[:-1].reshape(n_steps, n_half, 2).transpose(0, 2, 1)[:, :, None, :]
    following = history[1:].reshape(n_steps, 2, n_half)
    candidates = np.empty((n_steps, 2, 2, n_half))
    for inc_t, prev_t, cand_t, next_t in zip(incoming, previous, candidates, following):
        np.add(inc_t, prev_t, out=cand_t)
        np.minimum(cand_t[0], cand_t[1], out=next_t)
    # Strict comparison keeps the first (lower-state) predecessor on ties,
    # matching the per-state decoder's scan order.
    choices = (candidates[:, 1] < candidates[:, 0]).reshape(n_steps, n_states)
    path_metric = history[-1]

    if terminated:
        final_state = 0
        if not np.isfinite(path_metric[0]):
            final_state = int(np.argmin(path_metric))
    else:
        final_state = int(np.argmin(path_metric))

    # Trace back.  Plain Python ints and lists are faster than numpy scalar
    # indexing for this strictly sequential walk.
    prev_states, prev_bits = encoder.predecessors()
    prev_state_list = prev_states.tolist()
    prev_bit_list = prev_bits.tolist()
    words = _packed_words(choices)
    bits = [0] * n_steps
    state = final_state
    for step in range(n_steps - 1, -1, -1):
        j = (words[step] >> state) & 1
        bits[step] = prev_bit_list[state][j]
        state = prev_state_list[state][j]
    return np.array(bits[:n_data_bits], dtype=np.int8)
