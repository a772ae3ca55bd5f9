"""The 802.11 rate-1/2 convolutional encoder (constraint length 7).

Generator polynomials are the standard industry pair g0 = 133 (octal) and
g1 = 171 (octal).  The encoder is used for every data rate; higher code
rates are obtained by puncturing (:mod:`repro.phy.coding.puncturing`).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "ConvolutionalEncoder",
    "default_encoder",
    "CONSTRAINT_LENGTH",
    "G0",
    "G1",
]

#: Constraint length of the 802.11 convolutional code.
CONSTRAINT_LENGTH = 7

#: Generator polynomials (octal 133 and 171).
G0 = 0o133
G1 = 0o171


def _polynomial_taps(poly: int, constraint_length: int) -> np.ndarray:
    """Return the tap mask of ``poly`` as a 0/1 array, newest bit first."""
    return np.array(
        [(poly >> (constraint_length - 1 - i)) & 1 for i in range(constraint_length)],
        dtype=np.int8,
    )


#: Trellis tables keyed by ``(g0, g1, constraint_length)``.  The tables are
#: pure functions of the polynomials, so every encoder instance with the same
#: parameters shares one read-only copy instead of rebuilding them per decode.
_TRELLIS_CACHE: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

#: Codes of one received coded bit after ``np.rint``: a clean ``0`` or
#: ``1``, an erasure (NaN, metric 0 against either output bit), or any
#: other value (matches neither output bit, metric 1).  A received coded
#: pair is one of ``N_PAIR_PATTERNS = 4 * 4`` patterns ``4 * code0 + code1``.
BIT_ZERO, BIT_ONE, BIT_ERASED, BIT_OTHER = range(4)
N_PAIR_PATTERNS = 16

#: Block-metric tables keyed like :data:`_TRELLIS_CACHE`: ``(steps, table)``
#: per code, built on the first decode and shared read-only.
_BLOCK_CACHE: Dict[Tuple[int, int, int], Tuple[int, np.ndarray]] = {}

#: Most trellis steps one block of the decoder spans, and the size limit of
#: a code's block-metric table (one int8 entry per pattern tuple and path).
_MAX_BLOCK_STEPS = 3
_BLOCK_TABLE_BYTES = 2 << 20


def _build_trellis(
    g0: int, g1: int, constraint_length: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build ``(prev_states, prev_bits, incoming_metrics)`` for a code."""
    k = constraint_length
    n_states = 1 << (k - 1)

    # Each state has exactly two incoming transitions, from the registers
    # ``2 * state`` and ``2 * state + 1`` (ascending predecessor order, which
    # matches the scan order of the reference add-compare-select loop).
    states = np.arange(n_states, dtype=np.int64)
    registers = 2 * states[:, None] + np.arange(2, dtype=np.int64)[None, :]  # (n_states, 2)
    prev_bits = (registers >> (k - 1)).astype(np.int8)
    prev_states = (registers & (n_states - 1)).astype(np.int32)

    # The coded pair each incoming transition emits.
    shifts = k - 1 - np.arange(k, dtype=np.int64)
    windows = (registers[:, :, None] >> shifts) & 1  # (n_states, 2, k), newest first
    out0 = (windows @ _polynomial_taps(g0, k).astype(np.int64)) % 2
    out1 = (windows @ _polynomial_taps(g1, k).astype(np.int64)) % 2

    # mismatch[code, bit]: metric of one received code against an emitted bit.
    mismatch = np.zeros((4, 2))
    mismatch[BIT_ZERO, 1] = mismatch[BIT_ONE, 0] = 1.0
    mismatch[BIT_OTHER] = 1.0
    codes = np.arange(4)
    metrics = mismatch[codes[:, None, None, None], out0] + mismatch[codes[:, None, None], out1]
    # [code0, code1, state, j] -> [pattern, h, k, j] with state = h * n_half + k
    # -> [pattern, j, h, k], the layout of the decoder's candidate array.
    metrics = metrics.reshape(N_PAIR_PATTERNS, 2, n_states // 2, 2).transpose(0, 3, 1, 2)
    incoming_metrics = np.ascontiguousarray(metrics)

    tables = (prev_states, prev_bits, incoming_metrics)
    for array in tables:
        array.setflags(write=False)
    return tables


def _trellis_tables(
    g0: int, g1: int, constraint_length: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (g0, g1, constraint_length)
    tables = _TRELLIS_CACHE.get(key)
    if tables is None:
        tables = _build_trellis(g0, g1, constraint_length)
        _TRELLIS_CACHE[key] = tables
    return tables


def _build_block_metrics(
    prev_states: np.ndarray, incoming_metrics: np.ndarray, memory: int
) -> Tuple[int, np.ndarray]:
    """Build ``(steps, table)``: the summed metric of every ``steps``-step path.

    ``steps`` is ``min(_MAX_BLOCK_STEPS, memory)``, shrunk while the table
    would exceed :data:`_BLOCK_TABLE_BYTES`.  The path into end state
    ``H * (n_states >> steps) + K`` from predecessor ``K * 2**steps + J``
    takes, at its ``i``-th step from the end, the incoming transition
    ``(J >> (steps - i)) & 1`` (so a tie rule that prefers the lower
    predecessor at every step prefers the lowest ``J``).
    ``table[pattern, J, H, K]`` sums the one-step metrics along that path
    for the received pair patterns ``pattern = sum(p_i * 16**(steps - i))``,
    ``p_1`` the first step's.  Entries are at most ``2 * steps``, in int8.
    """
    n_states = prev_states.shape[0]
    steps = min(_MAX_BLOCK_STEPS, memory)
    while steps > 1 and N_PAIR_PATTERNS**steps * n_states * (1 << steps) > _BLOCK_TABLE_BYTES:
        steps -= 1
    n_half = n_states // 2
    span = 1 << steps
    low, high, end = np.ogrid[:span, :span, : n_states >> steps]
    state = high * (n_states >> steps) + end  # end state of each (J, H, K) path
    # Walk each path back from its end state; terms[i] is step i's metric.
    terms = [None] * steps
    for step in range(steps - 1, -1, -1):
        j = (low >> step) & 1
        terms[step] = np.ascontiguousarray(
            incoming_metrics[:, j, state // n_half, state % n_half], dtype=np.int8
        )
        state = prev_states[state, j]
    table = terms[0]
    for term in terms[1:]:
        table = (table[:, None] + term[None]).reshape((-1,) + term.shape[1:])
    table.setflags(write=False)
    return steps, table


class ConvolutionalEncoder:
    """Rate-1/2 convolutional encoder with configurable polynomials.

    The encoder is stateless between calls to :meth:`encode`; each frame is
    encoded independently and terminated with ``constraint_length - 1``
    zero tail bits so the decoder can end in the all-zero state.
    """

    def __init__(self, g0: int = G0, g1: int = G1, constraint_length: int = CONSTRAINT_LENGTH):
        if constraint_length < 2:
            raise ConfigurationError("constraint length must be at least 2")
        self.constraint_length = constraint_length
        self.g0 = g0
        self.g1 = g1
        self._taps0 = _polynomial_taps(g0, constraint_length)
        self._taps1 = _polynomial_taps(g1, constraint_length)

    @property
    def n_states(self) -> int:
        """Number of trellis states (2^(K-1))."""
        return 1 << (self.constraint_length - 1)

    @property
    def tail_bits(self) -> int:
        """Number of zero tail bits appended to terminate the trellis."""
        return self.constraint_length - 1

    def encode(self, bits: np.ndarray, terminate: bool = True) -> np.ndarray:
        """Encode ``bits`` at rate 1/2, optionally appending tail bits.

        Returns an array of length ``2 * (len(bits) + tail)`` with the two
        coded bits of each input bit adjacent (g0 output first).
        """
        bits = np.asarray(bits, dtype=np.int8)
        if terminate:
            bits = np.concatenate([bits, np.zeros(self.tail_bits, dtype=np.int8)])
        if bits.size == 0:
            return np.zeros(0, dtype=np.int8)
        # Build the sliding window of the shift register: window[i] holds
        # [b_i, b_{i-1}, ..., b_{i-K+1}] with zeros before the frame start.
        padded = np.concatenate([np.zeros(self.constraint_length - 1, dtype=np.int8), bits])
        windows = np.lib.stride_tricks.sliding_window_view(padded, self.constraint_length)
        # Reverse so that index 0 is the newest bit, matching the tap masks.
        windows = windows[:, ::-1]
        out0 = (windows @ self._taps0) % 2
        out1 = (windows @ self._taps1) % 2
        coded = np.empty(2 * bits.size, dtype=np.int8)
        coded[0::2] = out0
        coded[1::2] = out1
        return coded

    def predecessors(self):
        """Return the reverse trellis tables used by the Viterbi decoder.

        Returns
        -------
        prev_states : numpy.ndarray, shape (n_states, 2)
            ``prev_states[s, j]`` is the ``j``-th state with a transition
            into ``s`` (ascending state order).
        prev_bits : numpy.ndarray, shape (n_states, 2)
            ``prev_bits[s, j]`` is the input bit of that transition.

        The returned arrays are shared, read-only cached tables.
        """
        prev_states, prev_bits, _ = _trellis_tables(self.g0, self.g1, self.constraint_length)
        return prev_states, prev_bits

    def incoming_metrics(self) -> np.ndarray:
        """Return the Viterbi decoder's branch-metric table.

        ``table[pattern, j, h, k]``, shape ``(16, 2, 2, n_states // 2)``, is
        the Hamming metric of the ``j``-th incoming transition (see
        :meth:`predecessors`) of state ``h * n_states // 2 + k`` when the
        received coded pair has pattern ``4 * code0 + code1`` (codes
        ``BIT_ZERO``, ``BIT_ONE``, ``BIT_ERASED``, ``BIT_OTHER``).  The
        values are the small integers 0, 1 and 2 in float64.

        The returned array is a shared, read-only cached table.
        """
        _, _, incoming_metrics = _trellis_tables(self.g0, self.g1, self.constraint_length)
        return incoming_metrics

    def block_metrics(self) -> Tuple[int, np.ndarray]:
        """Return ``(steps, table)``, the multi-step branch-metric table.

        ``table[pattern, J, H, K]``, shape
        ``(16**steps, 2**steps, 2**steps, n_states >> steps)`` in int8, is
        the summed Hamming metric of the ``steps``-step path from state
        ``K * 2**steps + J`` to state ``H * (n_states >> steps) + K`` when
        the ``steps`` received coded pairs have the patterns
        ``p_1, ..., p_steps`` (see :meth:`incoming_metrics`) and
        ``pattern = sum(p_i * 16**(steps - i))``.  ``steps`` is 3 for the
        802.11 code, fewer for a code with less memory or too many states
        for a 2 MiB table.

        The returned array is a shared, read-only cached table, built on
        the first call for the code.
        """
        key = (self.g0, self.g1, self.constraint_length)
        block = _BLOCK_CACHE.get(key)
        if block is None:
            prev_states, _ = self.predecessors()
            block = _build_block_metrics(prev_states, self.incoming_metrics(), self.tail_bits)
            _BLOCK_CACHE[key] = block
        return block


#: The shared default encoder (see :func:`default_encoder`).
_DEFAULT_ENCODER = ConvolutionalEncoder()


def default_encoder() -> ConvolutionalEncoder:
    """Return the shared default 802.11 encoder instance.

    The encoder is stateless, so hot paths (codecs, decoders) reuse this
    instance instead of constructing fresh tap arrays per call.
    """
    return _DEFAULT_ENCODER
