import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvdkit import (
    as_tensor,
    bcirc,
    bcirc_inverse,
    fold,
    frobenius_norm,
    identity_tensor,
    is_f_diagonal,
    transpose,
    unfold,
)

small_dims = st.tuples(
    st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)
)


def _random_for(dims, seed=0):
    return np.random.default_rng(seed).standard_normal(dims)


class TestFrobeniusNorm:
    def test_zero_tensor(self):
        assert frobenius_norm(np.zeros((2, 2, 2))) == 0.0

    def test_single_entry(self):
        a = np.zeros((1, 1, 1))
        a[0, 0, 0] = 5.0
        assert frobenius_norm(a) == 5.0

    def test_matches_elementwise_sum(self, rng):
        a = rng.standard_normal((4, 3, 5))
        # brute-force oracle: literal triple loop
        total = 0.0
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    total += a[i, j, k] ** 2
        assert frobenius_norm(a) == pytest.approx(np.sqrt(total), rel=1e-13)


class TestBcirc:
    def test_p_equals_one(self, rng):
        a = rng.standard_normal((3, 2, 1))
        assert np.array_equal(bcirc(a), a[:, :, 0])

    def test_tube_circulant(self):
        a = np.array([[[1.0, 2.0, 3.0]]])
        expected = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
        assert np.array_equal(bcirc(a), expected)

    def test_identity_tensor_maps_to_identity_matrix(self):
        assert np.array_equal(bcirc(identity_tensor(3, 4)), np.eye(12))

    def test_first_block_column_is_unfold(self, rng):
        a = rng.standard_normal((2, 3, 4))
        assert np.array_equal(bcirc(a)[:, :3], unfold(a))

    def test_norm_scaling(self, rng):
        a = rng.standard_normal((3, 4, 5))
        assert np.linalg.norm(bcirc(a)) / np.sqrt(5) == pytest.approx(
            frobenius_norm(a), rel=1e-13
        )


class TestBcircInverse:
    def test_round_trip_exact(self, rng):
        a = rng.standard_normal((3, 2, 4))
        assert np.array_equal(bcirc_inverse(bcirc(a), 3, 2, 4), a)

    def test_identity_matrix(self):
        assert np.array_equal(bcirc_inverse(np.eye(8), 2, 2, 4), identity_tensor(2, 4))

    def test_rejects_structure_violation(self, rng):
        a = rng.standard_normal((2, 2, 3))
        mat = bcirc(a)
        mat[0, 2] += 1e-3
        with pytest.raises(ValueError, match="not block circulant"):
            bcirc_inverse(mat, 2, 2, 3, tol=1e-9)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="expected"):
            bcirc_inverse(np.eye(5), 2, 2, 3)

    @pytest.mark.parametrize("c", [1.0, 1e-12, 2.0**-1000, 2.0**1000])
    def test_gate_is_relative(self, rng, c):
        a = c * rng.standard_normal((2, 2, 3))
        assert np.array_equal(bcirc_inverse(bcirc(a), 2, 2, 3), a)
        mat = bcirc(a)
        mat[0, 2] += 1e-3 * np.abs(mat).max()
        with pytest.raises(ValueError, match="not block circulant"):
            bcirc_inverse(mat, 2, 2, 3)

    def test_zero_matrix_passes(self):
        assert not bcirc_inverse(np.zeros((6, 4)), 3, 2, 2).any()


class TestUnfoldFold:
    def test_p_equals_one(self, rng):
        a = rng.standard_normal((3, 2, 1))
        assert np.array_equal(unfold(a), a[:, :, 0])

    def test_round_trip(self, rng):
        a = rng.standard_normal((4, 3, 5))
        assert np.array_equal(fold(unfold(a), 5), a)

    def test_stacking_order(self):
        # index bookkeeping oracle for a 2x2x2 tensor
        a = np.arange(8.0).reshape(2, 2, 2)
        mat = unfold(a)
        assert mat.shape == (4, 2)
        assert np.array_equal(mat[:2], a[:, :, 0])
        assert np.array_equal(mat[2:], a[:, :, 1])

    def test_fold_rejects_indivisible_rows(self):
        with pytest.raises(ValueError, match="cannot fold"):
            fold(np.zeros((5, 2)), 2)


class TestTranspose:
    def test_p_equals_one(self, rng):
        a = rng.standard_normal((3, 2, 1))
        assert np.array_equal(transpose(a)[:, :, 0], a[:, :, 0].T)

    def test_involution(self, rng):
        a = rng.standard_normal((3, 4, 5))
        assert np.array_equal(transpose(transpose(a)), a)

    def test_matches_bcirc_transpose(self, rng):
        a = rng.standard_normal((3, 4, 5))
        assert np.array_equal(bcirc(transpose(a)), bcirc(a).T)


class TestIdentityTensor:
    def test_p_equals_one(self):
        assert np.array_equal(identity_tensor(2, 1)[:, :, 0], np.eye(2))

    def test_structure(self):
        t = identity_tensor(3, 4)
        assert np.count_nonzero(t) == 3
        assert np.array_equal(t[:, :, 0], np.eye(3))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            identity_tensor(0, 3)


class TestFDiagonal:
    def test_diagonal_tensor(self):
        s = np.zeros((3, 4, 2))
        s[0, 0, 0] = 1.0
        s[2, 2, 1] = -2.0
        assert is_f_diagonal(s)

    def test_off_diagonal_entry(self):
        s = np.zeros((3, 3, 2))
        s[0, 1, 1] = 1e-6
        assert not is_f_diagonal(s)
        assert is_f_diagonal(s, tol=1e-5)

    def test_degenerate_width(self):
        assert is_f_diagonal(np.ones((1, 1, 3)))


class TestValidation:
    def test_rejects_nan(self):
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            as_tensor(a)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="third-order"):
            as_tensor(np.zeros((2, 2)))

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="positive"):
            as_tensor(np.zeros((2, 0, 2)))


@settings(max_examples=40, deadline=None)
@given(dims=small_dims, seed=st.integers(0, 2**31))
def test_permutation_identities(dims, seed):
    a = _random_for(dims, seed)
    m, n, p = dims
    assert np.array_equal(fold(unfold(a), p), a)
    assert np.array_equal(bcirc_inverse(bcirc(a), m, n, p), a)
    assert np.array_equal(transpose(transpose(a)), a)
    assert np.array_equal(bcirc(transpose(a)), bcirc(a).T)
