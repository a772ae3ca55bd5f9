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
3. every kernel returns a per-member ``degraded`` mask next to its value,
   ``(batch,)`` booleans flagging exactly the stack members a guard fell
   back on.  The kernels built on these (null spaces, complements,
   pre-coders, post-projection SNRs) pass the masks up, and there is one
   quarantine rule: a MAC planner never transmits with a plan whose
   members degraded -- it quarantines the links those members belong to
   for the current channel epoch
   (:meth:`repro.mac.agent.BaseMacAgent.quarantine_link`), the accounted,
   non-exceptional outcome the metrics surface as ``quarantined_rounds``.
   A memo stores the mask with the value, so a hit quarantines exactly
   what the miss did.

Determinism contract: on well-conditioned finite inputs every wrapper
returns bit-identical results to the raw ``np.linalg`` call -- the
guards only ever read the inputs/outputs on the happy path, and the
committed golden metrics pin that.  The guards are always on; there is
no raising variant of the batched kernels.  The kernels are pure
functions of their inputs: the module keeps no state.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "GUARD_RCOND",
    "CONDITION_LIMIT",
    "nonfinite_matrices",
    "sanitize_stack",
    "svd_stack",
    "solve_stack",
    "pinv_stack",
    "pinv_from_svd",
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

    Returns ``(clean, degraded)``.  When every entry is finite the input
    array is returned *unchanged* (same object -- the happy path stays
    bit-identical and copy-free); otherwise a copy is made and the
    poisoned matrices are zeroed whole (partial NaN contamination leaves
    nothing trustworthy in the matrix).  ``degraded`` flags the zeroed
    members.
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
    clean = np.array(a, copy=True)
    clean[bad] = 0.0
    return clean, bad


def ill_conditioned(singular_values: np.ndarray) -> np.ndarray:
    """Per-matrix mask of condition numbers beyond :data:`CONDITION_LIMIT`.

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
    return smax > CONDITION_LIMIT * smin


# -- guarded decompositions --------------------------------------------------


def svd_stack(stack: np.ndarray, full_matrices: bool = True):
    """Batched SVD that cannot raise: ``(u, s, vh, degraded)``.

    Non-finite matrices are zeroed first; the (very rare) LAPACK
    non-convergence on finite input falls back to a per-matrix sweep
    that zeroes exactly the non-converging members.  ``degraded`` flags
    every zeroed member.  Well-conditioned finite stacks take the plain
    ``np.linalg.svd`` path untouched.
    """
    clean, degraded = sanitize_stack(np.asarray(stack, dtype=complex))
    try:
        return (*np.linalg.svd(clean, full_matrices=full_matrices), degraded)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK-dependent
        fixed = np.array(clean, copy=True)
        for index in range(fixed.shape[0]):
            try:
                np.linalg.svd(fixed[index], compute_uv=False)
            except np.linalg.LinAlgError:
                fixed[index] = 0.0
                degraded[index] = True
        return (*np.linalg.svd(fixed, full_matrices=full_matrices), degraded)


def pinv_from_svd(u, s, vh, cutoff) -> np.ndarray:
    """``np.linalg.pinv``'s formula on the thin SVD ``u, s, vh`` of a
    stack's *conjugate*: singular values at or below ``cutoff`` (per
    matrix, ``(batch, 1)``) count as zero.  Overwrites ``s``."""
    large = s > cutoff
    inv = np.divide(1, s, where=large, out=s)
    inv[~large] = 0
    return np.matmul(vh.swapaxes(-1, -2), inv[..., None] * u.swapaxes(-1, -2))


def pinv_stack(stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batched pseudo-inverse that cannot raise: ``(pinv, degraded)``.

    ``np.linalg.pinv``'s own formula on the :func:`svd_stack` factors of
    the conjugate at :data:`GUARD_RCOND`, so finite input gives
    ``np.linalg.pinv(stack, rcond=GUARD_RCOND)`` bit for bit.
    ``degraded`` flags the members :func:`svd_stack` zeroed and any whose
    result was non-finite and had to be zeroed.
    """
    u, s, vh, degraded = svd_stack(np.conj(stack), full_matrices=False)
    out = pinv_from_svd(u, s, vh, GUARD_RCOND * s.max(-1, keepdims=True, initial=0))
    if not np.isfinite(out).all():  # pragma: no cover - defensive
        degraded |= nonfinite_matrices(out)
        out = np.where(np.isfinite(out), out, 0.0)
    return out, degraded


def _solved(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> bool:
    """Whether ``out`` is a finite solution of ``a @ out = b`` whose
    residual does not betray ill-conditioning."""
    if not np.isfinite(out).all():
        return False
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1.0)
    residual = float(np.max(np.abs(a @ out - b), initial=0.0))
    return residual <= 1e-6 * scale


def solve_stack(matrices: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batched linear solve that cannot raise: ``(solution, degraded)``.

    The happy path is exactly ``np.linalg.solve`` (bit-identical result).
    A singular system, non-finite inputs/outputs, or a solution whose
    residual betrays ill-conditioning anywhere in the stack falls back,
    for the whole stack, to the pinned-rcond pseudo-inverse.  ``degraded``
    then flags the non-finite members and each member whose own solve
    fails the same checks, so a fallback always flags at least one.
    """
    a, bad_a = sanitize_stack(np.asarray(matrices, dtype=complex))
    b, bad_b = sanitize_stack(np.asarray(rhs, dtype=complex))
    degraded = bad_a | bad_b
    if not degraded.any():
        try:
            out = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            pass
        else:
            if _solved(a, b, out):
                return out, degraded
    for index in np.flatnonzero(~degraded):
        try:
            member = np.linalg.solve(a[index], b[index])
        except np.linalg.LinAlgError:
            degraded[index] = True
        else:
            degraded[index] = not _solved(a[index], b[index], member)
    pinv, pinv_degraded = pinv_stack(a)
    out = pinv @ b
    if not np.isfinite(out).all():  # pragma: no cover - defensive
        out = np.where(np.isfinite(out), out, 0.0)
    return out, degraded | pinv_degraded
