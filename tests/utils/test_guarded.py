"""Property/fuzz tests for the guarded numerical kernels.

The contract under test (see :mod:`repro.utils.guarded`):

* guarded wrappers never raise and never return non-finite values, on
  *any* input -- including seeded near-singular and NaN/Inf-poisoned
  stacks like the ones a deep fade produces;
* on well-conditioned finite stacks the wrappers are bit-identical to
  the raw ``np.linalg`` calls (and match the per-matrix functions);
* every kernel returns a per-member ``degraded`` mask that flags exactly
  the members a guard fell back on -- a healthy simulation flags none --
  and is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.mimo import null_space, orthonormal_complement
from repro.mimo import decoder, precoder
from repro.mimo.decoder import post_projection_snr_batch
from repro.mimo.precoder import compute_precoders_batch
from repro.utils import guarded, linalg
from repro.utils.linalg import null_space_batch, orthonormal_complement_batch

N_SUB = 8


def _stack(rng, n_sub, rows, cols):
    return rng.standard_normal((n_sub, rows, cols)) + 1j * rng.standard_normal(
        (n_sub, rows, cols)
    )


def _poison(rng, stack):
    """Drive a healthy stack into the regimes the guards exist for."""
    bad = np.array(stack, copy=True)
    n = bad.shape[0]
    # a nearly-singular matrix, a rank-deficient matrix, an all-zero
    # matrix, a NaN entry and an Inf entry, at seeded positions (the
    # scaling happens first, while every entry is still finite)
    bad[rng.integers(n)] *= 1e-160
    k = rng.integers(n)
    if bad.shape[1] > 1:
        bad[k, 1] = bad[k, 0]
    bad[rng.integers(n)] = 0.0
    bad[rng.integers(n), 0, 0] = np.nan
    bad[rng.integers(n), -1, -1] = np.inf
    return bad


class TestHappyPathBitIdentity:
    def test_sanitize_returns_the_same_object_when_finite(self, rng):
        stack = _stack(rng, N_SUB, 3, 3)
        clean, mask = guarded.sanitize_stack(stack)
        assert clean is stack
        assert not mask.any()

    def test_solve_matches_raw_solve_exactly(self, rng):
        a = _stack(rng, N_SUB, 3, 3) + 3.0 * np.eye(3)
        b = _stack(rng, N_SUB, 3, 2)
        out, degraded = guarded.solve_stack(a, b)
        assert not degraded.any()
        assert np.array_equal(out, np.linalg.solve(a, b))

    def test_pinv_matches_raw_pinv_exactly(self, rng):
        stack = _stack(rng, N_SUB, 4, 2)
        out, degraded = guarded.pinv_stack(stack)
        assert not degraded.any()
        assert np.array_equal(out, np.linalg.pinv(stack, rcond=guarded.RCOND))

    def test_svd_matches_raw_svd_exactly(self, rng):
        stack = _stack(rng, N_SUB, 3, 4)
        u, s, vh, degraded = guarded.svd_stack(stack, full_matrices=False)
        assert not degraded.any()
        ru, rs, rvh = np.linalg.svd(stack, full_matrices=False)
        assert np.array_equal(u, ru)
        assert np.array_equal(s, rs)
        assert np.array_equal(vh, rvh)

    def test_happy_path_flags_no_member(self, rng):
        stack = _stack(rng, N_SUB, 3, 3) + 3.0 * np.eye(3)
        assert not guarded.solve_stack(stack, _stack(rng, N_SUB, 3, 1))[1].any()
        assert not guarded.pinv_stack(stack)[1].any()
        assert not guarded.svd_stack(stack)[3].any()


class TestGuardedFallbacks:
    def test_nan_poisoned_solve_is_finite_and_flagged(self, rng):
        a = _stack(rng, N_SUB, 3, 3)
        a[2, 0, 0] = np.nan
        b = _stack(rng, N_SUB, 3, 1)
        out, degraded = guarded.solve_stack(a, b)
        assert degraded.tolist() == [k == 2 for k in range(N_SUB)]
        assert np.isfinite(out).all()

    def test_singular_solve_falls_back_to_pinned_pinv(self, rng):
        a = np.zeros((N_SUB, 3, 3), dtype=complex)
        b = _stack(rng, N_SUB, 3, 1)
        out, degraded = guarded.solve_stack(a, b)
        assert degraded.all()
        # pinv of the zero matrix is the zero matrix: exact fallback
        assert np.array_equal(out, np.zeros_like(b))

    def test_ill_conditioned_mask(self):
        s = np.array([[1.0, 1e-14], [1.0, 0.5], [0.0, 0.0]])
        mask = guarded.ill_conditioned(s)
        # all-zero matrices are exact, not ill-conditioned
        assert mask.tolist() == [True, False, False]

    def test_nonfinite_matrices_flags_per_member(self, rng):
        stack = _stack(rng, 4, 2, 2)
        stack[1, 0, 0] = np.inf
        stack[3, 1, 1] = np.nan
        assert guarded.nonfinite_matrices(stack).tolist() == [
            False, True, False, True,
        ]


#: The members :func:`_nan_and_singular` poisons.
NAN, SINGULAR = 1, 4


def _nan_and_singular(rng, rows, cols):
    """A stack with one NaN member and one rank-deficient member (a
    duplicated row of a wide or square matrix, a duplicated column of a
    tall one)."""
    stack = _stack(rng, N_SUB, rows, cols)
    stack[NAN, 0, 0] = np.nan
    if rows <= cols:
        stack[SINGULAR, -1] = stack[SINGULAR, 0]
    else:
        stack[SINGULAR, :, -1] = stack[SINGULAR, :, 0]
    return stack


def _svd(stack):
    *factors, degraded = guarded.svd_stack(stack)
    return tuple(factors), degraded


#: name -> (call returning ``(value, degraded)``, member shape, whether a
#: singular member is degraded).  A pseudo-inverse, an SVD and a
#: post-projection SNR (the stream is inseparable and gets SNR 0) are
#: exact on a singular matrix; a solve, a null space, a complement and a
#: pre-coder are not.
PURE_KERNELS = {
    "sanitize_stack": (guarded.sanitize_stack, (3, 3), False),
    "svd_stack": (lambda s: _svd(s), (3, 3), False),
    "pinv_stack": (guarded.pinv_stack, (3, 3), False),
    "solve_stack": (lambda s: guarded.solve_stack(s, np.ones((N_SUB, 3, 2))), (3, 3), True),
    "null_space_batch": (lambda s: null_space_batch(s, 1), (2, 3), True),
    "orthonormal_complement_batch": (lambda s: orthonormal_complement_batch(s, 1), (3, 2), True),
    "compute_precoders_batch": (lambda s: compute_precoders_batch(3, s, n_streams=1), (2, 3), True),
    "compute_precoders_batch, Eq. 7": (
        lambda s: compute_precoders_batch(
            3, s[:, :1], own_rows=s[:, 1:], own_stream_counts=[1, 1], own_row_counts=[1, 1]
        ),
        (3, 3),
        True,
    ),
    "post_projection_snr_batch": (lambda s: post_projection_snr_batch(s, None, 0.1), (3, 2), False),
}


def _equal(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


class TestPureKernels:
    """Degradation is data: each kernel says which members it fell back
    on, and the same inputs give the same values and the same mask."""

    @pytest.mark.parametrize("name", sorted(PURE_KERNELS))
    def test_mask_flags_exactly_the_degraded_members(self, rng, name):
        kernel, shape, flags_singular = PURE_KERNELS[name]
        stack = _nan_and_singular(rng, *shape)
        value, degraded = kernel(stack)
        expected = {NAN, SINGULAR} if flags_singular else {NAN}
        assert degraded.tolist() == [k in expected for k in range(N_SUB)]
        again, degraded_again = kernel(stack)
        assert _equal(again, value)
        assert np.array_equal(degraded_again, degraded)

    def test_kernel_modules_keep_no_state(self):
        for module in (guarded, linalg, precoder, decoder):
            state = [
                name
                for name, value in vars(module).items()
                if not name.startswith("__") and isinstance(value, (list, dict, set))
            ]
            assert state == [], module.__name__


class TestFuzzNeverRaisesNeverNonFinite:
    """Seeded fuzz over poisoned stacks: the guarded kernels must not
    raise and must not leak NaN/Inf, whatever the input regime."""

    @pytest.mark.parametrize("seed", range(8))
    def test_guarded_wrappers_on_poisoned_stacks(self, rng_factory, seed):
        rng = rng_factory(seed)
        a = _poison(rng, _stack(rng, N_SUB, 3, 3))
        b = _poison(rng, _stack(rng, N_SUB, 3, 2))
        poisoned = guarded.nonfinite_matrices(a)
        out, degraded = guarded.solve_stack(a, b)
        assert np.isfinite(out).all() and degraded[poisoned].all()
        pinv, degraded = guarded.pinv_stack(a)
        assert np.isfinite(pinv).all() and degraded[poisoned].all()
        u, s, vh, degraded = guarded.svd_stack(a)
        assert np.isfinite(u).all() and np.isfinite(s).all()
        assert np.isfinite(vh).all() and degraded[poisoned].all()

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_linalg_on_poisoned_stacks(self, rng_factory, seed):
        rng = rng_factory(100 + seed)
        constraints = _poison(rng, _stack(rng, N_SUB, 2, 4))
        vectors, _ = null_space_batch(constraints, 2)
        assert vectors.shape == (N_SUB, 4, 2)
        assert np.isfinite(vectors).all()
        directions = _poison(rng, _stack(rng, N_SUB, 4, 2))
        complement, _ = orthonormal_complement_batch(directions, 2)
        assert complement.shape == (N_SUB, 4, 2)
        assert np.isfinite(complement).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_well_conditioned_stacks_match_the_reference(self, rng_factory, seed):
        rng = rng_factory(200 + seed)
        constraints = _stack(rng, N_SUB, 2, 4)
        batched, _ = null_space_batch(constraints, 2)
        for k in range(N_SUB):
            assert np.allclose(batched[k], null_space(constraints[k])[:, :2])
        directions = _stack(rng, N_SUB, 4, 2)
        batched, _ = orthonormal_complement_batch(directions, 2)
        for k in range(N_SUB):
            assert np.allclose(
                batched[k], orthonormal_complement(directions[k])[:, :2]
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_pinv_matches_per_matrix_fallback_when_clean(self, rng_factory, seed):
        rng = rng_factory(300 + seed)
        stack = _stack(rng, N_SUB, 3, 2)
        batched, degraded = guarded.pinv_stack(stack)
        assert not degraded.any()
        for k in range(N_SUB):
            assert np.allclose(
                batched[k], np.linalg.pinv(stack[k], rcond=guarded.RCOND)
            )


class TestEndToEndBitIdentity:
    """The guard layer must be invisible on healthy channels: a whole
    simulation, clean and faulty scenarios alike, takes no fallback, so
    every guarded kernel ran its raw ``np.linalg`` happy path."""

    @pytest.mark.parametrize("scenario", ["three-pair", "dense-lan-20-faulty"])
    def test_guards_do_not_perturb_a_healthy_simulation(self, scenario, monkeypatch):
        from repro.mac import nplus, plan
        from repro.sim import link_abstraction
        from repro.sim.runner import SimulationConfig, run_simulation
        from repro.sim.scenarios import scenario_factory

        # Every guarded kernel a run calls reaches it through one of these
        # names; each returns its value with a per-member degraded mask.
        flagged = []
        for module, name in [
            (plan, "compute_precoders_batch"),
            (nplus, "orthonormal_complement_batch"),
            (nplus, "announced_decoding_subspace"),
            (link_abstraction, "post_projection_snr_batch"),
        ]:
            def spy(*args, _kernel=getattr(module, name), **kwargs):
                value, degraded = _kernel(*args, **kwargs)
                flagged.append(bool(degraded.any()))
                return value, degraded

            monkeypatch.setattr(module, name, spy)
        config = SimulationConfig(duration_us=10_000.0, n_subcarriers=4)
        run_simulation(scenario_factory(scenario)(), "n+", seed=3, config=config)
        assert flagged and not any(flagged)
