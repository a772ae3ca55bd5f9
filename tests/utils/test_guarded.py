"""Property/fuzz tests for the guarded numerical kernels.

The contract under test (see :mod:`repro.utils.guarded`):

* guarded wrappers never raise and never return non-finite values, on
  *any* input -- including seeded near-singular and NaN/Inf-poisoned
  stacks like the ones a deep fade produces;
* on well-conditioned finite stacks the wrappers are bit-identical to
  the raw ``np.linalg`` calls (and match the per-matrix functions);
* every fallback is recorded, and only fallbacks are recorded -- a
  healthy simulation records none.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.mimo import null_space, orthonormal_complement
from repro.utils import guarded
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
        assert not degraded
        assert np.array_equal(out, np.linalg.solve(a, b))

    def test_pinv_matches_raw_pinv_exactly(self, rng):
        stack = _stack(rng, N_SUB, 4, 2)
        out, degraded = guarded.pinv_stack(stack, rcond=1e-15)
        assert not degraded
        assert np.array_equal(out, np.linalg.pinv(stack, rcond=1e-15))

    def test_svd_matches_raw_svd_exactly(self, rng):
        stack = _stack(rng, N_SUB, 3, 4)
        u, s, vh = guarded.svd_stack(stack, full_matrices=False)
        ru, rs, rvh = np.linalg.svd(stack, full_matrices=False)
        assert np.array_equal(u, ru)
        assert np.array_equal(s, rs)
        assert np.array_equal(vh, rvh)

    def test_happy_path_notes_no_degradation(self, rng):
        stack = _stack(rng, N_SUB, 3, 3) + 3.0 * np.eye(3)
        with guarded.capture_degradations() as capture:
            guarded.solve_stack(stack, _stack(rng, N_SUB, 3, 1))
            guarded.pinv_stack(stack)
            guarded.svd_stack(stack)
        assert not capture.triggered


class TestGuardedFallbacks:
    def test_nan_poisoned_solve_is_finite_and_flagged(self, rng):
        a = _stack(rng, N_SUB, 3, 3)
        a[2, 0, 0] = np.nan
        b = _stack(rng, N_SUB, 3, 1)
        with guarded.capture_degradations() as capture:
            out, degraded = guarded.solve_stack(a, b)
        assert degraded
        assert "nonfinite-input" in capture.events
        assert np.isfinite(out).all()

    def test_singular_solve_falls_back_to_pinned_pinv(self, rng):
        a = np.zeros((N_SUB, 3, 3), dtype=complex)
        b = _stack(rng, N_SUB, 3, 1)
        with guarded.capture_degradations() as capture:
            out, degraded = guarded.solve_stack(a, b)
        assert degraded
        assert "singular-solve" in capture.events
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


class TestCaptureAndState:
    def test_captures_nest(self):
        with guarded.capture_degradations() as outer:
            with guarded.capture_degradations() as inner:
                guarded.note_degradation("probe")
            guarded.note_degradation("outer-only")
        assert inner.events == ["probe"]
        assert outer.events == ["probe", "outer-only"]


class TestFuzzNeverRaisesNeverNonFinite:
    """Seeded fuzz over poisoned stacks: the guarded kernels must not
    raise and must not leak NaN/Inf, whatever the input regime."""

    @pytest.mark.parametrize("seed", range(8))
    def test_guarded_wrappers_on_poisoned_stacks(self, rng_factory, seed):
        rng = rng_factory(seed)
        a = _poison(rng, _stack(rng, N_SUB, 3, 3))
        b = _poison(rng, _stack(rng, N_SUB, 3, 2))
        out, _ = guarded.solve_stack(a, b)
        assert np.isfinite(out).all()
        pinv, _ = guarded.pinv_stack(a)
        assert np.isfinite(pinv).all()
        u, s, vh = guarded.svd_stack(a)
        assert np.isfinite(u).all() and np.isfinite(s).all()
        assert np.isfinite(vh).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_linalg_on_poisoned_stacks(self, rng_factory, seed):
        rng = rng_factory(100 + seed)
        constraints = _poison(rng, _stack(rng, N_SUB, 2, 4))
        vectors = null_space_batch(constraints, 2)
        assert vectors.shape == (N_SUB, 4, 2)
        assert np.isfinite(vectors).all()
        directions = _poison(rng, _stack(rng, N_SUB, 4, 2))
        complement = orthonormal_complement_batch(directions, 2)
        assert complement.shape == (N_SUB, 4, 2)
        assert np.isfinite(complement).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_well_conditioned_stacks_match_the_reference(self, rng_factory, seed):
        rng = rng_factory(200 + seed)
        constraints = _stack(rng, N_SUB, 2, 4)
        batched = null_space_batch(constraints, 2)
        for k in range(N_SUB):
            assert np.allclose(batched[k], null_space(constraints[k])[:, :2])
        directions = _stack(rng, N_SUB, 4, 2)
        batched = orthonormal_complement_batch(directions, 2)
        for k in range(N_SUB):
            assert np.allclose(
                batched[k], orthonormal_complement(directions[k])[:, :2]
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_pinv_matches_per_matrix_fallback_when_clean(self, rng_factory, seed):
        rng = rng_factory(300 + seed)
        stack = _stack(rng, N_SUB, 3, 2)
        batched, degraded = guarded.pinv_stack(stack)
        assert not degraded
        for k in range(N_SUB):
            assert np.allclose(
                batched[k], np.linalg.pinv(stack[k], rcond=guarded.GUARD_RCOND)
            )


class TestEndToEndBitIdentity:
    """The guard layer must be invisible on healthy channels: a whole
    simulation, clean and faulty scenarios alike, takes no fallback, so
    every guarded kernel ran its raw ``np.linalg`` happy path."""

    @pytest.mark.parametrize("scenario", ["three-pair", "dense-lan-20-faulty"])
    def test_guards_do_not_perturb_a_healthy_simulation(self, scenario):
        from repro.sim.runner import SimulationConfig, run_simulation
        from repro.sim.scenarios import scenario_factory

        config = SimulationConfig(duration_us=10_000.0, n_subcarriers=4)
        with guarded.capture_degradations() as capture:
            run_simulation(scenario_factory(scenario)(), "n+", seed=3, config=config)
        assert capture.events == []
