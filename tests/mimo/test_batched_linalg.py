"""Equivalence of the batched (stacked, per-subcarrier) linear algebra
against the per-matrix reference forms in ``tests/oracles/mimo.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.mimo import (
    null_space,
    orthonormal_complement,
    post_projection_snr_batch_reference,
    post_projection_snr_reference,
)
from repro.exceptions import DimensionError
from repro.mimo.decoder import post_projection_snr_batch
from repro.utils import guarded
from repro.utils.linalg import null_space_batch, orthonormal_complement_batch

N_SUB = 12


def _stack(rng, n_sub, rows, cols):
    return rng.standard_normal((n_sub, rows, cols)) + 1j * rng.standard_normal(
        (n_sub, rows, cols)
    )


class TestNullSpaceBatch:
    def test_matches_per_matrix_null_space(self, rng):
        stack = _stack(rng, N_SUB, 2, 4)
        batched = null_space_batch(stack, 2)
        for k in range(N_SUB):
            reference = null_space(stack[k])[:, :2]
            assert np.allclose(batched[k], reference)

    def test_empty_constraints_give_identity(self, rng):
        stack = np.zeros((N_SUB, 0, 3), dtype=complex)
        batched = null_space_batch(stack, 2)
        assert np.allclose(batched, np.broadcast_to(np.eye(3)[:, :2], (N_SUB, 3, 2)))

    def test_mixed_ranks_across_the_stack(self, rng):
        # One subcarrier's constraints are rank deficient (duplicated row);
        # the gather must still pick the right null-space columns per entry.
        stack = _stack(rng, N_SUB, 2, 4)
        stack[3, 1] = stack[3, 0]
        batched = null_space_batch(stack, 2)
        for k in range(N_SUB):
            reference = null_space(stack[k])[:, :2]
            assert np.allclose(batched[k], reference)

    def test_too_thin_null_space_falls_back_under_guards(self, rng):
        # The deficit is recorded as a degradation and the call returns the least-constrained directions instead of
        # raising -- the MAC layer turns the recorded event into a link
        # quarantine.
        stack = _stack(rng, N_SUB, 3, 4)
        with guarded.capture_degradations() as capture:
            batched = null_space_batch(stack, 2)
        assert capture.triggered
        assert "null-space-deficit" in capture.events
        assert batched.shape == (N_SUB, 4, 2)
        assert np.isfinite(batched).all()

    def test_vectors_annihilate_constraints(self, rng):
        stack = _stack(rng, N_SUB, 2, 5)
        batched = null_space_batch(stack, 3)
        assert np.allclose(stack @ batched, 0, atol=1e-10)


class TestOrthonormalComplementBatch:
    def test_matches_per_matrix_complement(self, rng):
        stack = _stack(rng, N_SUB, 4, 2)
        batched = orthonormal_complement_batch(stack, 2)
        for k in range(N_SUB):
            reference = orthonormal_complement(stack[k])[:, :2]
            assert np.allclose(batched[k], reference)

    def test_mixed_ranks_across_the_stack(self, rng):
        stack = _stack(rng, N_SUB, 4, 2)
        stack[5, :, 1] = stack[5, :, 0]
        batched = orthonormal_complement_batch(stack, 2)
        for k in range(N_SUB):
            reference = orthonormal_complement(stack[k])[:, :2]
            assert np.allclose(batched[k], reference)

    def test_empty_directions_give_identity(self):
        stack = np.zeros((N_SUB, 3, 0), dtype=complex)
        batched = orthonormal_complement_batch(stack, 3)
        assert np.allclose(batched, np.broadcast_to(np.eye(3), (N_SUB, 3, 3)))

    def test_every_direction_when_no_width_is_given(self, rng):
        stack = _stack(rng, N_SUB, 4, 2)
        stack[:, :, 1] = 3.0 * stack[:, :, 0]
        batched = orthonormal_complement_batch(stack)
        assert batched.shape == (N_SUB, 4, 3)
        for k in range(N_SUB):
            assert np.array_equal(batched[k], orthonormal_complement(stack[k]))

    def test_no_width_needs_one_rank_across_the_stack(self, rng):
        stack = _stack(rng, N_SUB, 4, 2)
        stack[5, :, 1] = stack[5, :, 0]
        with pytest.raises(DimensionError):
            orthonormal_complement_batch(stack)

    def test_columns_are_orthogonal_to_input(self, rng):
        stack = _stack(rng, N_SUB, 4, 1)
        batched = orthonormal_complement_batch(stack, 3)
        assert np.allclose(stack.conj().transpose(0, 2, 1) @ batched, 0, atol=1e-10)


class TestPostProjectionSnrBatch:
    def test_matches_per_subcarrier_snr(self, rng):
        wanted = _stack(rng, N_SUB, 3, 2)
        interference = _stack(rng, N_SUB, 3, 1)
        residual = rng.random(N_SUB)
        batched = post_projection_snr_batch(
            wanted, interference, noise_power=0.1, signal_power=2.0,
            residual_interference_power=residual,
        )
        for k in range(N_SUB):
            reference = post_projection_snr_reference(
                wanted[k], interference[k], 0.1, 2.0, float(residual[k])
            )
            assert np.allclose(batched[k], reference)

    def test_no_interference_matches(self, rng):
        wanted = _stack(rng, N_SUB, 3, 3)
        batched = post_projection_snr_batch(wanted, None, noise_power=0.05)
        for k in range(N_SUB):
            assert np.allclose(
                batched[k], post_projection_snr_reference(wanted[k], None, 0.05)
            )

    def test_overloaded_receiver_gets_zero_snr(self, rng):
        # Interference consumes all but one dimension; two wanted streams
        # cannot be separated and the reference returns zeros.
        wanted = _stack(rng, N_SUB, 2, 2)
        interference = _stack(rng, N_SUB, 2, 1)
        batched = post_projection_snr_batch(wanted, interference, noise_power=0.1)
        assert np.allclose(batched, 0.0)

    @pytest.mark.parametrize("n_ranks", [1, 2, 3])
    def test_mixed_rank_stack_matches_per_subcarrier(self, rng, n_ranks):
        # Interference of rank 2, 1 and 0 on different subcarriers: one
        # batched pass per distinct rank must match the per-subcarrier
        # formulation everywhere.
        wanted = _stack(rng, N_SUB, 3, 1)
        interference = _stack(rng, N_SUB, 3, 2)
        residual = rng.random(N_SUB)
        if n_ranks >= 2:
            interference[4, :, 1] = interference[4, :, 0]
            interference[9, :, 1] = 2j * interference[9, :, 0]
        if n_ranks >= 3:
            interference[7] = 0.0
        batched = post_projection_snr_batch(
            wanted, interference, noise_power=0.2, residual_interference_power=residual
        )
        for k in range(N_SUB):
            reference = post_projection_snr_reference(
                wanted[k], interference[k], 0.2, 1.0, float(residual[k])
            )
            assert np.allclose(batched[k], reference)


def _degenerate_stacks(seed, n_sub, n_rx, n_wanted, n_interference, kind, exponent):
    """Wanted and interference stacks of one of the shapes the zero-forcing
    kernel must handle, scaled by ``10**exponent``."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    wanted = _stack(rng, n_sub, n_rx, n_wanted) * scale
    interference = _stack(rng, n_sub, n_rx, n_interference) * scale if n_interference else None
    some = rng.random(n_sub) < 0.5
    if kind == "rank-deficient" and n_wanted >= 2:
        wanted[some, :, -1] = wanted[some, :, 0] * (0.3 - 2j)
    elif kind == "rank-deficient" and interference is not None:
        wanted[some, :, 0] = 3.0 * interference[some, :, 0]
    elif kind == "mixed-rank" and interference is not None:
        if n_interference >= 2:
            interference[some, :, -1] = 2j * interference[some, :, 0]
        interference[~some] = 0.0
    elif kind == "all-zero":
        wanted[some] = 0.0
        if interference is not None:
            interference[:] = 0.0
    elif kind == "nan-poisoned":
        wanted[some, 0, 0] = np.nan
        if interference is not None:
            interference[~some, -1, -1] = np.inf
    return wanted, interference


class TestPostProjectionSnrBitIdentity:
    """One SVD per stack gives bit for bit the two-SVD form
    (``matrix_rank`` + ``np.linalg.pinv(rcond=1e-15)``)."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sub=st.integers(1, 6),
        n_rx=st.integers(1, 4),
        n_wanted=st.integers(1, 4),
        n_interference=st.integers(0, 3),
        kind=st.sampled_from(
            ["random", "rank-deficient", "mixed-rank", "all-zero", "nan-poisoned"]
        ),
        exponent=st.integers(-8, 8),
    )
    def test_matches_the_two_svd_form(
        self, seed, n_sub, n_rx, n_wanted, n_interference, kind, exponent
    ):
        # n_wanted > n_rx (and n_wanted > n_rx - rank) exercises rows < n.
        wanted, interference = _degenerate_stacks(
            seed, n_sub, n_rx, n_wanted, n_interference, kind, exponent
        )
        residual = np.random.default_rng(seed).random(n_sub)
        args = (wanted, interference, 0.05, 2.0, residual)
        with np.errstate(all="ignore"):
            expected = post_projection_snr_batch_reference(*args)
            assert np.array_equal(post_projection_snr_batch(*args), expected)
            memo = {}
            for _ in range(2):  # a miss, then a hit
                assert np.array_equal(post_projection_snr_batch(*args, memo=memo), expected)
