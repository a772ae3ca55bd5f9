"""Tests for the subspace/linear-algebra primitives.

The kernels take a stack of matrices; one matrix is a one-element stack.
A basis wider than the subspace is a deficit the kernel flags in its
degraded mask, so an unflagged call on a well-conditioned matrix pins the
dimension.  A rank-deficient matrix is flagged as ill-conditioned
whatever the width; there an orthonormal basis inside the subspace pins
it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_in_subspace, orthonormal_basis, random_unitary, subspace_angle
from oracles.mimo import project_out_subspace
from repro.exceptions import DimensionError
from repro.utils.linalg import null_space_batch, orthonormal_complement_batch


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _null_space(a, n_vectors):
    """``(basis, degraded)`` of one matrix's null space."""
    (basis,), (degraded,) = null_space_batch(np.asarray(a, dtype=complex)[None], n_vectors)
    return basis, degraded


def _complement(a, n_vectors):
    """``(basis, degraded)`` of one matrix's column-space complement."""
    (basis,), (degraded,) = orthonormal_complement_batch(
        np.asarray(a, dtype=complex)[None], n_vectors
    )
    return basis, degraded


class TestNullSpace:
    def test_vectors_satisfy_constraints(self, rng):
        a = _random_complex(rng, (2, 4))
        basis, degraded = _null_space(a, 2)
        assert basis.shape == (4, 2) and not degraded
        assert np.allclose(a @ basis, 0, atol=1e-10)

    def test_columns_are_orthonormal(self, rng):
        a = _random_complex(rng, (1, 3))
        basis, _ = _null_space(a, 2)
        gram = basis.conj().T @ basis
        assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-10)

    def test_full_rank_square_matrix_has_empty_null_space(self, rng):
        a = _random_complex(rng, (3, 3))
        assert not _null_space(a, 0)[1]
        assert _null_space(a, 1)[1]

    def test_zero_constraints_return_identity_like_basis(self):
        basis, degraded = _null_space(np.zeros((0, 3)), 3)
        assert np.array_equal(basis, np.eye(3)) and not degraded

    def test_rank_deficient_matrix(self, rng):
        row = _random_complex(rng, (1, 4))
        a = np.vstack([row, 2 * row, 3 * row])
        basis, degraded = _null_space(a, 3)
        assert basis.shape == (4, 3)
        assert degraded  # ill-conditioned
        assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-10)
        assert np.allclose(a @ basis, 0, atol=1e-9)


class TestOrthonormalBasisAndComplement:
    def test_basis_spans_input(self, rng):
        a = _random_complex(rng, (4, 2))
        basis = orthonormal_basis(a)
        assert basis.shape == (4, 2)
        for column in a.T:
            assert is_in_subspace(column, basis)

    def test_complement_is_orthogonal(self, rng):
        a = _random_complex(rng, (4, 2))
        complement, degraded = _complement(a, 2)
        assert complement.shape == (4, 2) and not degraded
        assert np.allclose(a.conj().T @ complement, 0, atol=1e-10)

    def test_complement_of_empty_is_full_space(self):
        complement, degraded = _complement(np.zeros((3, 0)), 3)
        assert np.array_equal(complement, np.eye(3)) and not degraded

    def test_dimensions_add_up(self, rng):
        for n_cols in range(4):
            a = _random_complex(rng, (4, n_cols)) if n_cols else np.zeros((4, 0))
            width = 4 - orthonormal_basis(a).shape[1]
            assert not _complement(a, width)[1]
            if width < 4:
                assert _complement(a, width + 1)[1]

    def test_duplicate_columns_do_not_inflate_rank(self, rng):
        column = _random_complex(rng, (4, 1))
        a = np.concatenate([column, column], axis=1)
        assert orthonormal_basis(a).shape[1] == 1
        complement, degraded = _complement(a, 3)
        assert degraded  # ill-conditioned
        assert np.allclose(complement.conj().T @ complement, np.eye(3), atol=1e-10)
        assert np.allclose(a.conj().T @ complement, 0, atol=1e-10)


class TestProjections:
    def test_project_out_removes_component(self, rng):
        basis = orthonormal_basis(_random_complex(rng, (5, 2)))
        inside = basis @ _random_complex(rng, 2)
        residual = project_out_subspace(inside, basis)
        assert np.allclose(residual, 0, atol=1e-10)

    def test_project_out_keeps_orthogonal_component(self, rng):
        a = _random_complex(rng, (5, 2))
        basis = orthonormal_basis(a)
        complement, _ = _complement(a, 3)
        outside = complement @ _random_complex(rng, 3)
        residual = project_out_subspace(outside, basis)
        assert np.allclose(residual, outside, atol=1e-10)

    def test_dimension_mismatch_raises(self, rng):
        basis = _random_complex(rng, (4, 2))
        with pytest.raises(DimensionError):
            project_out_subspace(_random_complex(rng, 3), basis)

    def test_matrix_of_samples_projected_columnwise(self, rng):
        basis = orthonormal_basis(_random_complex(rng, (3, 1)))
        samples = basis @ _random_complex(rng, (1, 10))
        residual = project_out_subspace(samples, basis)
        assert residual.shape == (3, 10)
        assert np.allclose(residual, 0, atol=1e-10)


class TestRandomUnitaryAndAngles:
    def test_random_unitary_is_unitary(self, rng):
        u = random_unitary(4, rng)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_angle_between_identical_subspaces_is_zero(self, rng):
        a = _random_complex(rng, (4, 2))
        assert subspace_angle(a, a) == pytest.approx(0.0, abs=1e-6)

    def test_angle_between_orthogonal_vectors_is_right_angle(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert subspace_angle(a, b) == pytest.approx(np.pi / 2, abs=1e-6)

    def test_is_in_subspace_detects_membership(self, rng):
        basis = orthonormal_basis(_random_complex(rng, (4, 2)))
        assert is_in_subspace(basis[:, 0], basis)
        complement, _ = _complement(basis, 2)
        assert not is_in_subspace(complement[:, 0], basis)

    def test_zero_vector_is_in_any_subspace(self, rng):
        basis = orthonormal_basis(_random_complex(rng, (3, 1)))
        assert is_in_subspace(np.zeros(3), basis)


class TestLinalgProperties:
    @given(n_rows=st.integers(1, 4), n_cols=st.integers(1, 6), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_null_space_dimension_theorem(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols))
        rank = np.linalg.matrix_rank(a)
        basis, degraded = _null_space(a, n_cols - rank)
        assert basis.shape == (n_cols, n_cols - rank)
        assert not degraded
        if basis.shape[1]:
            assert np.allclose(a @ basis, 0, atol=1e-8)

    @given(dim=st.integers(2, 5), n_vectors=st.integers(1, 3), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_complement_plus_basis_reconstruct_identity(self, dim, n_vectors, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, n_vectors)) + 1j * rng.standard_normal((dim, n_vectors))
        basis = orthonormal_basis(a)
        complement, _ = _complement(a, dim - basis.shape[1])
        full = np.concatenate([basis, complement], axis=1)
        assert np.allclose(full @ full.conj().T, np.eye(dim), atol=1e-8)
