import dataclasses
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsvdkit
from tsvdkit import core
from tsvdkit import (
    as_tensor,
    bcirc,
    bcirc_inverse,
    fold,
    frobenius_norm,
    identity_tensor,
    is_f_diagonal,
    tprod,
    transpose,
    unfold,
)

from tensor_cases import layouts

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

    @pytest.mark.parametrize("layout", ["C", "F", "transposed", "strided"])
    def test_norm_is_numpys_bit_for_bit(self, layout):
        # The scaled sum is summed in memory order, as np.linalg.norm sums it.
        for seed in range(20):
            x = _random_for((6, 5, 7), seed)
            x = {"C": x, "F": np.asfortranarray(x), "transposed": x.transpose(2, 0, 1),
                 "strided": x[::-2, 1:, ::3]}[layout]
            assert core._norm2(x) == np.linalg.norm(x)

    def test_overflowing_norm_raises(self):
        with pytest.raises(ArithmeticError,
                           match="the Frobenius norm is inf: the result overflowed float64"):
            frobenius_norm(np.full((2, 2, 2), 1e308))
        # sqrt(8) * 6e307 is just below the largest float64
        assert frobenius_norm(np.full((2, 2, 2), 6e307)) == pytest.approx(6e307 * 8**0.5)

    @settings(max_examples=200, deadline=None)
    @given(dims=small_dims, seed=st.integers(0, 2**32 - 1), k=st.integers(-900, 900),
           fortran=st.booleans())
    def test_norm_scales_exactly(self, dims, seed, k, fortran):
        x = _random_for(dims, seed)
        if fortran:
            x = np.asfortranarray(x)
        c = 2.0**k
        assert core._norm2(c * x) == c * core._norm2(x)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 2, 4), (6, 5, 7)])
    def test_norm_scales_exactly_across_the_one_pass_edges(self, dims):
        # The unscaled sum of squares is used only while it is finite and above
        # 2**-900; these exponents cross both edges for every size.
        x = _random_for(dims, 7)
        for k in [*range(-540, -439), *range(440, 513)]:
            c = 2.0**k
            assert core._norm2(c * x) == c * core._norm2(x), k


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

    @pytest.mark.parametrize("p", range(1, 10))
    def test_definition_on_every_layout(self, p):
        # The block-circulant view is read from one contiguous copy of the
        # tubes written out twice, so no operand layout can move a block.
        m, n = 3, 2
        a = np.random.default_rng(p).standard_normal((m, n, p))
        for name, operand in layouts(a).items():
            mat = bcirc(operand)
            assert mat.shape == (m * p, n * p) and mat.flags.c_contiguous, name
            for r in range(p):
                for c in range(p):
                    block = mat[r * m:(r + 1) * m, c * n:(c + 1) * n]
                    assert np.array_equal(block, a[:, :, (r - c) % p]), (name, r, c)
            for mat_layout in (mat, np.asfortranarray(mat), mat[::-1, ::-1].copy()[::-1, ::-1]):
                assert np.array_equal(bcirc_inverse(mat_layout, m, n, p), a), name


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

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_rejects_nan_and_negative_tol(self, rng, tol):
        mat = bcirc(rng.standard_normal((2, 3, 4)))
        mat[0, -1] += 1.0  # not block circulant, which a NaN gate would let through
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            bcirc_inverse(mat, 2, 3, 4, tol=tol)

    def test_zero_matrix_passes(self):
        assert not bcirc_inverse(np.zeros((6, 4)), 3, 2, 2).any()

    @pytest.mark.parametrize("m,n,p", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_rejects_empty_axes(self, m, n, p):
        # A matrix of the shape the dims ask for, so that only the axis guard refuses it.
        message = rf"^tensor axes must be positive, got \({m}, {n}, {p}\)$"
        with pytest.raises(ValueError, match=message):
            bcirc_inverse(np.zeros((m * p, n * p)), m, n, p)


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

    @pytest.mark.parametrize("rows, cols, shape", [(0, 3, (0, 3, 2)), (4, 0, (2, 0, 2))])
    def test_fold_rejects_empty_matrix(self, rows, cols, shape):
        message = rf"^tensor axes must be positive, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            fold(np.zeros((rows, cols)), 2)


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

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_rejects_nan_and_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            is_f_diagonal(np.zeros((3, 3, 2)), tol=tol)


_T = np.arange(1.0, 9.0).reshape(2, 2, 2)  # square slices, invertible transform


def _with(x, pos, value):
    """A copy of the array `x` with `value` at `pos`."""
    x = np.array(x)
    x[pos] = value
    return x


def _truncate_bad_middle(bad):
    fac = tsvdkit.tsvd(_T)
    middle = _with(fac.s, (0, 1, 1), bad)
    return tsvdkit.truncate_trank(dataclasses.replace(fac, s=middle), 1)


# Every public function that takes an array, called with `bad` in one entry of
# an input.  bcirc_inverse's bad entry sits off the first block column, the
# only one it extracts; truncate_trank's sits off the diagonal of the middle
# factor, which it never reads.
_ARRAY_CALLS = {
    "as_tensor": lambda bad: tsvdkit.as_tensor(_with(_T, (1, 0, 1), bad)),
    "frobenius_norm": lambda bad: tsvdkit.frobenius_norm(_with(_T, (1, 0, 1), bad)),
    "unfold": lambda bad: tsvdkit.unfold(_with(_T, (1, 0, 1), bad)),
    "fold": lambda bad: tsvdkit.fold(_with(np.ones((4, 2)), (3, 1), bad), 2),
    "bcirc": lambda bad: tsvdkit.bcirc(_with(_T, (1, 0, 1), bad)),
    "bcirc_inverse": lambda bad: tsvdkit.bcirc_inverse(
        _with(tsvdkit.bcirc(_T), (0, 3), bad), 2, 2, 2),
    "transpose": lambda bad: tsvdkit.transpose(_with(_T, (1, 0, 1), bad)),
    "is_f_diagonal": lambda bad: tsvdkit.is_f_diagonal(_with(_T, (1, 1, 1), bad)),
    "tprod": lambda bad: tsvdkit.tprod(_T, _with(_T, (1, 0, 1), bad)),
    "tprod_direct": lambda bad: tsvdkit.tprod_direct(_T, _with(_T, (1, 0, 1), bad)),
    "is_orthogonal": lambda bad: tsvdkit.is_orthogonal(_with(_T, (1, 0, 1), bad)),
    "tinverse": lambda bad: tsvdkit.tinverse(_with(_T, (1, 0, 1), bad)),
    "dft_mode3": lambda bad: tsvdkit.dft_mode3(_with(_T, (1, 0, 1), bad)),
    "idft_mode3": lambda bad: tsvdkit.idft_mode3(
        _with(tsvdkit.dft_mode3(_T), (0, 1, 1), bad)),
    "complex_svd": lambda bad: tsvdkit.complex_svd(_with(_T[:, :, 0], (0, 1), bad)),
    "km_mapping": lambda bad: tsvdkit.km_mapping(_with(_T, (1, 0, 1), bad)),
    "tsvd": lambda bad: tsvdkit.tsvd(_with(_T, (1, 0, 1), bad)),
    "singular_values": lambda bad: tsvdkit.singular_values(_with(_T, (1, 0, 1), bad)),
    "truncate_trank": _truncate_bad_middle,
    "best_trank_one": lambda bad: tsvdkit.best_trank_one(_with(_T, (1, 0, 1), bad)),
    "sigma1": lambda bad: tsvdkit.sigma1(_with(_T, (1, 0, 1), bad)),
    "sigma1_upper_bound_check": lambda bad: tsvdkit.sigma1_upper_bound_check(
        _with(_T, (1, 0, 1), bad)),
    "km_equal": lambda bad: tsvdkit.km_equal(_T, _with(_T, (1, 0, 1), bad)),
    "write_tensor": lambda bad: tsvdkit.write_tensor(os.devnull, _with(_T, (1, 0, 1), bad)),
}
# Public names that take no array: the version, the classes and exceptions,
# constructors from sizes or a seed, a threshold from a shape, and the reader.
_NO_ARRAY = {
    "__version__", "SingularSliceError", "SliceSvd", "SvdConvergenceError",
    "TSvd", "RankReport", "TensorFormatError", "identity_tensor",
    "random_orthogonal", "default_rank_threshold", "read_tensor",
}


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

    @pytest.mark.parametrize("imag", [1.0, 0.0])
    @pytest.mark.parametrize("call", [
        lambda z: as_tensor(z),
        lambda z: tprod(z, np.ones((2, 2, 2))),
        lambda z: frobenius_norm(z),
        lambda z: fold(z.reshape(4, 2), 2),
        lambda z: bcirc_inverse(np.ones((4, 4)) * z[0, 0, 0], 2, 2, 2),
    ], ids=["as_tensor", "tprod", "frobenius_norm", "fold", "bcirc_inverse"])
    def test_rejects_complex(self, call, imag):
        # Converting to float would drop the imaginary part, zero or not.
        z = np.ones((2, 2, 2)) + 1j * imag
        with pytest.raises(ValueError, match="complex"):
            call(z)

    @pytest.mark.parametrize("call", [
        lambda z: as_tensor(z),
        lambda z: tprod(z, np.ones((2, 2, 2))),
        lambda z: fold(z.reshape(4, 2), 2),
        lambda z: bcirc_inverse(np.tile(z.reshape(4, 2), 2), 2, 2, 2),
    ], ids=["as_tensor", "tprod", "fold", "bcirc_inverse"])
    def test_rejects_complex_python_numbers(self, call):
        # numpy refuses float(1+1j) with a TypeError, not the documented ValueError.
        z = np.full((2, 2, 2), 1 + 1j, dtype=object)
        with pytest.raises(ValueError, match="expected real entries.*complex"):
            call(z)

    def test_every_public_name_is_classified(self):
        # A new public function must join the contract table or be exempted.
        assert not _ARRAY_CALLS.keys() & _NO_ARRAY
        assert set(tsvdkit.__all__) == _ARRAY_CALLS.keys() | _NO_ARRAY

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", sorted(_ARRAY_CALLS))
    def test_non_finite_entry_raises(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            _ARRAY_CALLS[name](bad)


@settings(max_examples=40, deadline=None)
@given(dims=small_dims, seed=st.integers(0, 2**31))
def test_permutation_identities(dims, seed):
    a = _random_for(dims, seed)
    m, n, p = dims
    assert np.array_equal(fold(unfold(a), p), a)
    assert np.array_equal(bcirc_inverse(bcirc(a), m, n, p), a)
    assert np.array_equal(transpose(transpose(a)), a)
    assert np.array_equal(bcirc(transpose(a)), bcirc(a).T)
