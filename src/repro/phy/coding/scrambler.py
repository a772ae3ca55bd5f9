"""The 802.11 frame scrambler (127-bit maximal-length sequence).

Scrambling whitens the data so that the OFDM signal has no strong
spectral lines; the same self-synchronising generator
``x^7 + x^4 + 1`` is used for scrambling and descrambling.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scramble", "descramble", "scrambler_sequence"]

#: Initial state of the 7-bit scrambler register (all ones).
SEED = 0x7F

#: Period of the sequence: ``x^7 + x^4 + 1`` is primitive, so every
#: non-zero register state recurs after exactly ``2^7 - 1`` bits.
PERIOD = 127


def _scrambler_period() -> np.ndarray:
    """One period of the sequence from the register state :data:`SEED`."""
    state = SEED
    out = np.empty(PERIOD, dtype=np.int8)
    for i in range(PERIOD):
        feedback = ((state >> 6) ^ (state >> 3)) & 1
        out[i] = feedback
        state = ((state << 1) | feedback) & 0x7F
    out.setflags(write=False)
    return out


_PERIOD_BITS = _scrambler_period()


def scrambler_sequence(length: int) -> np.ndarray:
    """Return ``length`` bits of the 802.11 scrambling sequence."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return np.resize(_PERIOD_BITS, length)


def scramble(bits: np.ndarray) -> np.ndarray:
    """XOR ``bits`` with the scrambling sequence."""
    bits = np.asarray(bits, dtype=np.int8)
    return (bits ^ scrambler_sequence(bits.size)).astype(np.int8)


def descramble(bits: np.ndarray) -> np.ndarray:
    """Reverse :func:`scramble` (the operation is an involution)."""
    return scramble(bits)
