"""Hard-decision Viterbi decoding of the 802.11 convolutional code.

The input is a demodulated 0/1 stream: Hamming branch metrics on the
rounded values, with punctured positions marked by erasures (NaN) that
contribute zero metric.  A rounded value that is neither 0 nor 1 matches
neither output bit (metric 1).

The decoder advances ``steps`` trellis steps per add-compare-select (3 for
the 802.11 code: a radix-8 trellis), with a fixed number of NumPy calls per
block of steps or one tight Python loop:

* **Block metrics from a table.**  After rounding, every received coded
  pair is one of 16 patterns (each bit is 0, 1, erased or other), and a
  block of ``steps`` pairs is one of ``16**steps`` pattern tuples.  The
  encoder caches, per code, the summed metric of every ``steps``-step
  path for each tuple in int8
  (:meth:`~repro.phy.coding.convolutional.ConvolutionalEncoder.block_metrics`),
  so the frame's metrics are one gather, ``table[tuple]``.  A frame whose
  step count is not a multiple of ``steps`` gets virtual steps in front of
  its first real one: erased pairs whose input bits are forced to zero.
* **Add-compare-select over a history array.**  Every block's path
  metrics are one row of an ``(n_blocks + 1, n_states)`` array.  Over
  ``steps`` steps the predecessors of state ``H * (n_states >> steps) + K``
  are the ``2**steps`` states ``K * 2**steps + J``, so each block is one
  ``np.add`` of the block metrics to a strided view of the previous row,
  and one ``np.minimum.reduce`` over ``J`` into the next row.  Metrics are
  small integers (or inf), so the float64 sums are exact.
* **Traceback.**  Keeping the lower predecessor on every one-step tie keeps
  the lowest ``J``, so the walk takes the first ``J`` whose candidate
  reaches the new metric, ``state = ((state << steps) | J) & mask``; a
  block's input bits are the top ``steps`` bits of its end state.

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
    N_PAIR_PATTERNS,
    ConvolutionalEncoder,
    default_encoder,
)

__all__ = ["viterbi_decode"]

#: The received pattern of a virtual step: both bits erased, metric 0
#: against every transition.
_ERASED_PAIR = 4 * BIT_ERASED + BIT_ERASED


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
    memory = encoder.tail_bits
    steps, table = encoder.block_metrics()
    span = 1 << steps
    n_low = n_states >> steps
    n_blocks = -(-n_steps // steps)
    pad = n_blocks * steps - n_steps

    # The frame runs as n_blocks blocks of `steps` steps; `pad` virtual
    # steps in front of the first real one fill the first block.
    patterns = np.concatenate([np.full(pad, _ERASED_PAIR), _pair_patterns(pairs)])
    digits = N_PAIR_PATTERNS ** np.arange(steps - 1, -1, -1)
    # candidates[block, J, H, K] starts as the metric of the path into
    # state H * n_low + K from state K * span + J (see block_metrics); the
    # loop adds the predecessor's path metric in place.
    candidates = table[patterns.reshape(n_blocks, steps) @ digits].astype(float)
    if pad:
        # A virtual step's input bit is zero: the first block may only end
        # in states whose `pad` lowest input bits (the low bits of H) are 0.
        candidates[0, :, np.arange(span) % (1 << pad) != 0] = np.inf

    history = np.empty((n_blocks + 1, n_states))
    history[0] = np.inf
    history[0, 0] = 0.0
    # previous[block, J, 0, K] is history[block, K * span + J], broadcast over H.
    previous = history[:-1].reshape(n_blocks, n_low, span).transpose(0, 2, 1)[:, :, None, :]
    following = history[1:].reshape(n_blocks, span, n_low)
    for cand_t, prev_t, next_t in zip(candidates, previous, following):
        np.add(cand_t, prev_t, out=cand_t)
        np.minimum.reduce(cand_t, axis=0, out=next_t)
    # reached[block, J, state]: whether the path from predecessor J
    # reaches the state's new metric, one byte per flag.
    reached = (candidates == following[:, None]).tobytes()
    path_metric = history[-1]

    if terminated:
        final_state = 0
        if not np.isfinite(path_metric[0]):
            final_state = int(np.argmin(path_metric))
    else:
        final_state = int(np.argmin(path_metric))

    # Trace back through the first J whose path reaches the new metric (the
    # per-state decoder's tie rule; see the module docstring).  Plain Python
    # ints and bytes are faster than numpy scalar indexing for this strictly
    # sequential walk.
    mask = n_states - 1
    end_states = [0] * n_blocks
    state = final_state
    for block in range(n_blocks - 1, -1, -1):
        end_states[block] = state
        flag = block * span * n_states + state
        choice = 0
        while not reached[flag]:
            flag += n_states
            choice += 1
        state = ((state << steps) | choice) & mask
    # A block's input bits, first step lowest, are the top bits H of its
    # end state.
    inputs = np.array(end_states, dtype=np.int64)[:, None] >> (memory - steps)
    bits = (inputs >> np.arange(steps)) & 1
    return bits.reshape(-1)[pad : pad + n_data_bits].astype(np.int8)
