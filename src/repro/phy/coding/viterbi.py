"""Viterbi decoding of the 802.11 convolutional code.

Supports hard-decision decoding (Hamming branch metrics on 0/1 inputs)
and soft-decision decoding (correlation metrics on log-likelihood
ratios).  Punctured positions are marked by erasure values and contribute
zero branch metric.

The decoder is fully vectorized: every branch metric of the frame is
precomputed in one ``(n_steps, n_states, 2)`` array, and the
add-compare-select recursion operates on whole state vectors per trellis
step instead of iterating over states in Python.  The original readable
per-state implementation is kept as a test oracle
(``tests/oracles/phy.py``) and asserted bit-exact against the vectorized
decoder.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DecodingError
from repro.phy.coding.convolutional import ConvolutionalEncoder, default_encoder

__all__ = ["viterbi_decode", "ERASURE"]

#: Marker inserted by :func:`repro.phy.coding.puncturing.depuncture` for
#: coded positions that were never transmitted.
ERASURE = np.nan


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


def _branch_metrics(pairs: np.ndarray, outputs: np.ndarray, soft: bool) -> np.ndarray:
    """All branch metrics of the frame, shape ``(n_steps, n_states, 2)``.

    Erasures (NaN) are masked to zero before the metric sum, so punctured
    positions contribute nothing in both the hard (Hamming) and the soft
    (negative correlation) formulation.
    """
    valid = ~np.isnan(pairs)  # (n_steps, 2)
    if soft:
        llr = np.where(valid, pairs, 0.0)
        # Bit value 0 should be rewarded when llr > 0; bit 1 when llr < 0.
        signs = 1.0 - 2.0 * outputs  # +1 for bit 0, -1 for bit 1
        return -np.einsum("ti,sbi->tsb", llr, signs)
    received = np.rint(np.where(valid, pairs, 0.0)).astype(np.int8)
    mismatch = outputs[None, :, :, :] != received[:, None, None, :]
    return np.einsum("tsbi,ti->tsb", mismatch, valid.astype(np.float64))


def viterbi_decode(
    coded: np.ndarray,
    n_data_bits: int,
    soft: bool = False,
    encoder: ConvolutionalEncoder | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Decode a rate-1/2 coded sequence back to ``n_data_bits`` bits.

    Parameters
    ----------
    coded:
        The received coded stream.  For hard decoding this is a 0/1 array
        (possibly with :data:`ERASURE` at punctured positions); for soft
        decoding it is an array of LLRs.
    n_data_bits:
        Number of information bits to return (excluding tail bits).
    soft:
        Use soft-decision branch metrics.
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

    _, outputs = encoder.transitions()
    prev_states, prev_bits = encoder.predecessors()

    branch = _branch_metrics(pairs, outputs, soft)
    # Gather each state's two incoming branch metrics once for every step,
    # so the recursion below only touches (n_states, 2) arrays.  The trellis
    # has butterfly structure: the predecessors of state ``s`` are
    # ``(2s, 2s + 1) mod n_states``, so the gathered path metrics of the
    # lower and the upper half of the states are both exactly
    # ``path_metric.reshape(n_half, 2)`` -- the add-compare-select step then
    # needs no per-step index gather at all, only a broadcast add.
    n_half = n_states // 2
    incoming = branch[:, prev_states, prev_bits].reshape(n_steps, 2, n_half, 2)

    path_metric = np.full(n_states, np.inf)
    path_metric[0] = 0.0
    next_metric = np.empty(n_states)
    choices = np.empty((n_steps, n_states), dtype=bool)
    choices_halved = choices.reshape(n_steps, 2, n_half)
    candidates = np.empty((2, n_half, 2))
    low, high = candidates[..., 0], candidates[..., 1]
    # Pre-built ping-pong views so the loop body is three ufunc calls.
    pairs_views = (path_metric.reshape(n_half, 2), next_metric.reshape(n_half, 2))
    halved_views = (path_metric.reshape(2, n_half), next_metric.reshape(2, n_half))
    for step in range(n_steps):
        current = step & 1
        np.add(incoming[step], pairs_views[current], out=candidates)
        # Strict comparison keeps the first (lower-state) predecessor on
        # ties, matching the per-state decoder's scan order.
        np.less(high, low, out=choices_halved[step])
        np.minimum(low, high, out=halved_views[1 - current])
    path_metric = (path_metric, next_metric)[n_steps & 1]

    if terminated:
        final_state = 0
        if not np.isfinite(path_metric[0]):
            final_state = int(np.argmin(path_metric))
    else:
        final_state = int(np.argmin(path_metric))

    # Trace back.  Plain Python lists are faster than numpy scalar indexing
    # for this strictly sequential walk.
    prev_state_list = prev_states.tolist()
    prev_bit_list = prev_bits.tolist()
    choice_list = choices.tolist()
    bits = np.empty(n_steps, dtype=np.int8)
    state = final_state
    for step in range(n_steps - 1, -1, -1):
        j = 1 if choice_list[step][state] else 0
        bits[step] = prev_bit_list[state][j]
        state = prev_state_list[state][j]
    return bits[:n_data_bits]
