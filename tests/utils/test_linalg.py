"""Tests for the subspace/linear-algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_in_subspace, orthonormal_basis, random_unitary, subspace_angle
from oracles.mimo import project_out_subspace
from repro.exceptions import DimensionError
from repro.utils.linalg import null_space, orthonormal_complement


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestNullSpace:
    def test_vectors_satisfy_constraints(self, rng):
        a = _random_complex(rng, (2, 4))
        basis = null_space(a)
        assert basis.shape == (4, 2)
        assert np.allclose(a @ basis, 0, atol=1e-10)

    def test_columns_are_orthonormal(self, rng):
        a = _random_complex(rng, (1, 3))
        basis = null_space(a)
        gram = basis.conj().T @ basis
        assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-10)

    def test_full_rank_square_matrix_has_empty_null_space(self, rng):
        a = _random_complex(rng, (3, 3))
        assert null_space(a).shape == (3, 0)

    def test_zero_constraints_return_identity_like_basis(self):
        basis = null_space(np.zeros((0, 3)))
        assert basis.shape == (3, 3)

    def test_rank_deficient_matrix(self, rng):
        row = _random_complex(rng, (1, 4))
        a = np.vstack([row, 2 * row, 3 * row])
        basis = null_space(a)
        assert basis.shape == (4, 3)
        assert np.allclose(a @ basis, 0, atol=1e-9)

    def test_accepts_one_dimensional_input(self, rng):
        vector = _random_complex(rng, 3)
        basis = null_space(vector)
        # A single vector treated as a column matrix has an empty null space
        # in its 1-dimensional domain unless it is zero.
        assert basis.shape[0] == 1


class TestOrthonormalBasisAndComplement:
    def test_basis_spans_input(self, rng):
        a = _random_complex(rng, (4, 2))
        basis = orthonormal_basis(a)
        assert basis.shape == (4, 2)
        for column in a.T:
            assert is_in_subspace(column, basis)

    def test_complement_is_orthogonal(self, rng):
        a = _random_complex(rng, (4, 2))
        complement = orthonormal_complement(a)
        assert complement.shape == (4, 2)
        assert np.allclose(a.conj().T @ complement, 0, atol=1e-10)

    def test_complement_of_empty_is_full_space(self):
        complement = orthonormal_complement(np.zeros((3, 0)))
        assert complement.shape == (3, 3)

    def test_dimensions_add_up(self, rng):
        for n_cols in range(4):
            a = _random_complex(rng, (4, n_cols)) if n_cols else np.zeros((4, 0))
            basis = orthonormal_basis(a)
            complement = orthonormal_complement(a)
            assert basis.shape[1] + complement.shape[1] == 4

    def test_duplicate_columns_do_not_inflate_rank(self, rng):
        column = _random_complex(rng, (4, 1))
        a = np.concatenate([column, column], axis=1)
        assert orthonormal_basis(a).shape[1] == 1
        assert orthonormal_complement(a).shape[1] == 3


class TestProjections:
    def test_project_out_removes_component(self, rng):
        basis = orthonormal_basis(_random_complex(rng, (5, 2)))
        inside = basis @ _random_complex(rng, 2)
        residual = project_out_subspace(inside, basis)
        assert np.allclose(residual, 0, atol=1e-10)

    def test_project_out_keeps_orthogonal_component(self, rng):
        a = _random_complex(rng, (5, 2))
        basis = orthonormal_basis(a)
        complement = orthonormal_complement(a)
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
        complement = orthonormal_complement(basis)
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
        basis = null_space(a)
        rank = np.linalg.matrix_rank(a)
        assert basis.shape == (n_cols, n_cols - rank)
        if basis.shape[1]:
            assert np.allclose(a @ basis, 0, atol=1e-8)

    @given(dim=st.integers(2, 5), n_vectors=st.integers(1, 3), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_complement_plus_basis_reconstruct_identity(self, dim, n_vectors, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, n_vectors)) + 1j * rng.standard_normal((dim, n_vectors))
        basis = orthonormal_basis(a)
        complement = orthonormal_complement(a)
        full = np.concatenate([basis, complement], axis=1)
        assert np.allclose(full @ full.conj().T, np.eye(dim), atol=1e-8)
