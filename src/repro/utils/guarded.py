"""Guarded numerical kernels: never crash a run on a degenerate channel.

The fault layer (:mod:`repro.sim.faults`) deliberately drives channels
toward singularity -- a deep fade scales a stored channel tensor toward
zero -- and the batched decompositions fed by those channels
(:func:`repro.utils.linalg.null_space_batch` SVDs,
:func:`repro.mimo.precoder.compute_precoders_batch` solves,
:func:`repro.mimo.decoder.post_projection_snr_batch` SVDs, from which it
takes both the rank test and the pseudo-inverse) then either
raise ``LinAlgError``/``DimensionError`` and kill the whole run, or
silently propagate NaN/Inf into metrics.  This module is the middle
ground: condition-number and NaN/Inf guards that *fall back
deterministically* instead of raising:

1. non-finite matrices in a stack are replaced by all-zero matrices (a
   NaN-poisoned decomposition has no usable information anyway, and the
   zero matrix has well-defined null spaces, complements and
   pseudo-inverses);
2. singular or ill-conditioned systems are solved with a pseudo-inverse
   at the pinned :data:`GUARD_RCOND` (never a caller-tuned tolerance, so
   the fallback result is reproducible across call sites);
3. every fallback is *recorded* via :func:`note_degradation`, and the
   MAC planning layer wraps its computations in
   :func:`capture_degradations` -- a triggered capture quarantines the
   link for the current channel epoch
   (:meth:`repro.mac.agent.BaseMacAgent.quarantine_link`), which is the
   accounted, non-exceptional outcome the metrics surface as
   ``quarantined_rounds``.

Determinism contract: on well-conditioned finite inputs every wrapper
returns bit-identical results to the raw ``np.linalg`` call -- the
guards only ever read the inputs/outputs on the happy path, and the
committed golden metrics pin that.  The guards are always on; there is
no raising variant of the batched kernels.

The degradation state is process-global and not thread-safe, matching
the simulator's execution model (one simulation per process; the sweep
parallelises across processes, never threads).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Tuple

import numpy as np

__all__ = [
    "GUARD_RCOND",
    "CONDITION_LIMIT",
    "note_degradation",
    "capture_degradations",
    "DegradationCapture",
    "nonfinite_matrices",
    "sanitize_stack",
    "svd_stack",
    "solve_stack",
    "pinv_stack",
    "ill_conditioned",
]

#: Pinned ``rcond`` used by every deterministic pseudo-inverse fallback.
#: Matches :data:`repro.utils.linalg.DEFAULT_RCOND` so guarded and
#: unguarded rank decisions agree on well-conditioned inputs.
GUARD_RCOND = 1e-10

#: Condition numbers beyond this are treated as degenerate: the smallest
#: singular value carries no information at double precision (eps ~ 2e-16),
#: which is exactly the regime a deep fade pushes mixed stacks into.
CONDITION_LIMIT = 1e12

_captures: List["DegradationCapture"] = []


class DegradationCapture:
    """Degradation events observed while a capture scope was active."""

    def __init__(self) -> None:
        self.events: List[str] = []

    @property
    def triggered(self) -> bool:
        return bool(self.events)


def note_degradation(kind: str) -> None:
    """Record one guarded fallback (feeds every active capture scope)."""
    for capture in _captures:
        capture.events.append(kind)


@contextmanager
def capture_degradations() -> Iterator[DegradationCapture]:
    """Collect the degradations noted inside the ``with`` block.

    Captures nest: an inner scope's events are also seen by outer
    scopes, so a planning-level capture observes fallbacks taken deep
    inside the precoder math.
    """
    capture = DegradationCapture()
    _captures.append(capture)
    try:
        yield capture
    finally:
        _captures.remove(capture)


# -- stack hygiene -----------------------------------------------------------


def nonfinite_matrices(stack: np.ndarray) -> np.ndarray:
    """Per-matrix mask of stack members containing any NaN/Inf entry."""
    a = np.asarray(stack)
    if a.ndim < 2:
        return np.array([not np.isfinite(a).all()])
    axes = tuple(range(1, a.ndim))
    return ~np.isfinite(a).all(axis=axes)


def sanitize_stack(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Replace non-finite matrices in a stack with all-zero matrices.

    Returns ``(clean, mask)``.  When every entry is finite the input
    array is returned *unchanged* (same object -- the happy path stays
    bit-identical and copy-free); otherwise a copy is made, the poisoned
    matrices are zeroed whole (partial NaN contamination leaves nothing
    trustworthy in the matrix) and one degradation is noted.
    """
    a = np.asarray(stack)
    # One-pass screen: NaN/Inf anywhere makes the sum non-finite, so a
    # finite sum proves the stack clean without materialising a boolean
    # array.  (A finite stack whose sum overflows just falls through to
    # the exact per-matrix mask below.)
    if np.isfinite(a.sum()):
        return a, np.zeros(a.shape[0] if a.ndim >= 2 else 1, dtype=bool)
    bad = nonfinite_matrices(a)
    if not bad.any():
        return a, bad
    note_degradation("nonfinite-input")
    clean = np.array(a, copy=True)
    clean[bad] = 0.0
    return clean, bad


def ill_conditioned(
    singular_values: np.ndarray, limit: float = CONDITION_LIMIT
) -> np.ndarray:
    """Per-matrix mask of condition numbers beyond ``limit``.

    ``singular_values`` has shape ``(batch, n_sv)`` sorted descending (as
    returned by a batched SVD).  An all-zero matrix (``s_max == 0``) is
    *not* flagged: its decompositions are exact, not ill-conditioned.
    """
    s = np.asarray(singular_values)
    if s.shape[1] == 0:
        return np.zeros(s.shape[0], dtype=bool)
    smax = s[:, 0]
    smin = s[:, -1]
    # smax > limit * smin is cond > limit without the division, and it
    # also flags singular-with-signal members (smin == 0 < smax) while
    # leaving all-zero matrices (smax == smin == 0) unflagged.
    return smax > limit * smin


# -- guarded decompositions --------------------------------------------------


def svd_stack(stack: np.ndarray, full_matrices: bool = True):
    """Batched SVD that cannot raise: ``(u, s, vh)`` for the whole stack.

    Non-finite matrices are zeroed first; the (very rare) LAPACK
    non-convergence on finite input falls back to a per-matrix sweep
    that zeroes exactly the non-converging members.  Well-conditioned
    finite stacks take the plain ``np.linalg.svd`` path untouched.
    """
    clean, _ = sanitize_stack(np.asarray(stack, dtype=complex))
    try:
        return np.linalg.svd(clean, full_matrices=full_matrices)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK-dependent
        note_degradation("svd-non-convergent")
        fixed = np.array(clean, copy=True)
        for index in range(fixed.shape[0]):
            try:
                np.linalg.svd(fixed[index], compute_uv=False)
            except np.linalg.LinAlgError:
                fixed[index] = 0.0
        return np.linalg.svd(fixed, full_matrices=full_matrices)


def pinv_stack(
    stack: np.ndarray, rcond: float = GUARD_RCOND
) -> Tuple[np.ndarray, bool]:
    """Batched pseudo-inverse that cannot raise: ``(pinv, degraded)``.

    ``degraded`` is ``True`` when any guard fired (non-finite input,
    non-convergence, or a non-finite result that had to be zeroed).
    """
    clean, bad = sanitize_stack(np.asarray(stack, dtype=complex))
    degraded = bool(bad.any())
    try:
        out = np.linalg.pinv(clean, rcond=rcond)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK-dependent
        note_degradation("pinv-non-convergent")
        degraded = True
        rows = []
        for matrix in clean:
            try:
                rows.append(np.linalg.pinv(matrix, rcond=rcond))
            except np.linalg.LinAlgError:
                rows.append(
                    np.zeros((matrix.shape[1], matrix.shape[0]), dtype=complex)
                )
        out = np.stack(rows)
    if not np.isfinite(out).all():  # pragma: no cover - defensive
        note_degradation("nonfinite-pinv")
        degraded = True
        out = np.where(np.isfinite(out), out, 0.0)
    return out, degraded


def solve_stack(
    matrices: np.ndarray, rhs: np.ndarray, rcond: float = GUARD_RCOND
) -> Tuple[np.ndarray, bool]:
    """Batched linear solve that cannot raise: ``(solution, degraded)``.

    The happy path is exactly ``np.linalg.solve`` (bit-identical result);
    a singular system, non-finite inputs/outputs, or a solution whose
    residual betrays ill-conditioning all fall back to the pinned-rcond
    pseudo-inverse, with ``degraded=True``.
    """
    a, bad_a = sanitize_stack(np.asarray(matrices, dtype=complex))
    b, bad_b = sanitize_stack(np.asarray(rhs, dtype=complex))
    if not (bad_a.any() or bad_b.any()):
        try:
            out = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            note_degradation("singular-solve")
        else:
            if np.isfinite(out).all():
                scale = max(float(np.max(np.abs(b), initial=0.0)), 1.0)
                residual = float(np.max(np.abs(a @ out - b), initial=0.0))
                if residual <= 1e-6 * scale:
                    return out, False
                note_degradation("ill-conditioned-solve")
            else:
                note_degradation("nonfinite-solve")
    pinv, _ = pinv_stack(a, rcond=rcond)
    out = pinv @ b
    if not np.isfinite(out).all():  # pragma: no cover - defensive
        out = np.where(np.isfinite(out), out, 0.0)
    return out, True
