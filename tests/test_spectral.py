import numpy as np
import pytest

from tsvdkit import (
    SvdConvergenceError,
    complex_svd,
    dft_mode3,
    frobenius_norm,
    idft_mode3,
    km_mapping,
    random_orthogonal,
    singular_values,
    tinverse,
    tprod,
    tsvd,
)
from tsvdkit.spectral import _from_half, _half

from tensor_cases import random_tensor


def dft_literal(a):
    """O(p^2) literal-sum oracle for the forward transform."""
    m, n, p = a.shape
    w = np.exp(-2j * np.pi / p)
    out = np.zeros((m, n, p), dtype=complex)
    for k in range(p):
        for l in range(p):
            out[:, :, k] += w ** (k * l) * a[:, :, l]
    return out


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


class TestDft:
    def test_p_one_is_identity(self, rng):
        a = rng.standard_normal((3, 2, 1))
        np.testing.assert_allclose(dft_mode3(a)[:, :, 0], a[:, :, 0], atol=1e-15)

    def test_delta_tube_flat_spectrum(self):
        a = np.zeros((1, 1, 3))
        a[0, 0, 0] = 1.0
        np.testing.assert_allclose(dft_mode3(a), np.ones((1, 1, 3)), atol=1e-15)

    def test_matches_literal_sum(self, rng):
        a = rng.standard_normal((3, 3, 4))
        np.testing.assert_allclose(
            dft_mode3(a), dft_literal(a), atol=1e-12, rtol=1e-12
        )

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 6, 7])
    def test_conjugate_symmetry(self, rng, p):
        spec = dft_mode3(rng.standard_normal((3, 4, p)))
        scale = np.abs(spec).max()
        for k in range(p):
            mirror = (p - k) % p
            assert np.abs(spec[:, :, mirror] - spec[:, :, k].conj()).max() <= 1e-12 * scale
        assert np.abs(spec[:, :, 0].imag).max() <= 1e-12 * scale
        if p % 2 == 0:
            assert np.abs(spec[:, :, p // 2].imag).max() <= 1e-12 * scale

    def test_parseval(self, rng):
        for _ in range(10):
            a = random_tensor(rng)
            spec = dft_mode3(a)
            lhs = (np.abs(spec) ** 2).sum()
            rhs = a.shape[2] * frobenius_norm(a) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestIdft:
    def test_round_trip(self, rng):
        a = rng.standard_normal((4, 3, 5))
        np.testing.assert_allclose(
            idft_mode3(dft_mode3(a)), a, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("p", range(1, 10))
    @pytest.mark.parametrize("m, n", [(3, 5), (4, 2), (1, 1)])
    def test_half_route_round_trip(self, rng, m, n, p):
        a = rng.standard_normal((m, n, p))
        half = _half(dft_mode3(a))
        assert half.shape == (p // 2 + 1, m, n)
        assert not half[0].imag.any()
        if p % 2 == 0:
            assert not half[p // 2].imag.any()
        np.testing.assert_allclose(_from_half(half, p), a, rtol=0, atol=1e-14 * p)

    @pytest.mark.parametrize("p", [1, 4, 5])
    def test_transform_ops_return_real_float64(self, rng, p):
        a = rng.standard_normal((3, 2, p))
        b = rng.standard_normal((2, 4, p))
        fac = tsvd(a)
        outputs = [tprod(a, b), km_mapping(a), fac.u, fac.s, fac.v,
                   tinverse(rng.standard_normal((3, 3, p))), random_orthogonal(3, p, 7)]
        for out in outputs:
            assert out.dtype == np.float64

    def test_constant_spectrum_is_delta(self, rng):
        mat = rng.standard_normal((3, 2))
        spec = np.repeat(mat[:, :, None], 4, axis=2).astype(complex)
        out = idft_mode3(spec)
        np.testing.assert_allclose(out[:, :, 0], mat, atol=1e-13)
        np.testing.assert_allclose(out[:, :, 1:], 0.0, atol=1e-13)

    def test_broken_symmetry_rejected(self, rng):
        spec = dft_mode3(rng.standard_normal((2, 2, 3)))
        spec[0, 0, 1] += 0.5j
        with pytest.raises(ValueError, match="conjugate symmetry"):
            idft_mode3(spec)

    @pytest.mark.parametrize("c", [1.0, 1e-12, 2.0**-1000, 2.0**1000])
    def test_residue_gate_is_relative(self, rng, c):
        a = c * rng.standard_normal((2, 2, 3))
        spec = dft_mode3(a)
        np.testing.assert_allclose(idft_mode3(spec), a, rtol=0, atol=1e-12 * c)
        spec[0, 0, 1] += 0.5j * c
        with pytest.raises(ValueError, match="conjugate symmetry"):
            idft_mode3(spec)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_rejects_nan_and_negative_tol(self, rng, tol):
        spec = dft_mode3(rng.standard_normal((2, 2, 3)))
        spec[0, 0, 1] += 0.5j  # not symmetric, which a NaN gate would let through
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            idft_mode3(spec, residue_tol=tol)

    def test_zero_spectrum_passes(self):
        assert not idft_mode3(np.zeros((2, 2, 3), dtype=complex)).any()

    @pytest.mark.parametrize("residue, real", [(1e-9, True), (1e-7, False)])
    def test_residue_gate_is_against_the_largest_modulus(self, residue, real):
        # 128 entries of modulus 1: a residue of 1e-7 is over 1e-8 of their
        # largest modulus, though under 1e-8 of their sum.
        x = np.ones((4, 4, 8), dtype=complex)
        x[1, 2, 3] += residue * 1j
        spec = np.fft.fft(x, axis=2)
        if real:
            np.testing.assert_allclose(idft_mode3(spec), x.real, rtol=0, atol=1e-14)
        else:
            with pytest.raises(ValueError, match="conjugate symmetry"):
                idft_mode3(spec)


class TestComplexSvd:
    def test_diagonal_matrix(self):
        f = complex_svd(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(f.sigma, [3.0, 1.0])
        np.testing.assert_allclose(f.u, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(f.v, np.eye(2), atol=1e-15)

    def test_rank_one_outer_product(self, rng):
        x = random_complex(rng, 4, 1)[:, 0]
        y = random_complex(rng, 3, 1)[:, 0]
        f = complex_svd(np.outer(x, y.conj()))
        expected = np.linalg.norm(x) * np.linalg.norm(y)
        assert f.sigma[0] == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(f.sigma[1:], 0.0, atol=1e-12 * expected)

    def test_sigma_squares_match_hermitian_eigenvalues(self, rng):
        d = random_complex(rng, 4, 3)
        f = complex_svd(d)
        eigs = np.linalg.eigvalsh(d.conj().T @ d)[::-1]
        np.testing.assert_allclose(f.sigma**2, eigs, atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (5, 2), (2, 5), (6, 3), (1, 6)])
    def test_reconstruction_and_unitarity(self, rng, shape):
        m, n = shape
        d = random_complex(rng, m, n)
        f = complex_svd(d)
        k = min(m, n)
        rec = f.u[:, :k] @ (f.sigma[:, None] * f.v[:, :k].conj().T)
        scale = np.linalg.norm(d)
        assert np.linalg.norm(rec - d) <= 1e-10 * scale
        assert np.abs(f.u.conj().T @ f.u - np.eye(m)).max() <= 1e-10
        assert np.abs(f.v.conj().T @ f.v - np.eye(n)).max() <= 1e-10
        assert np.all(np.diff(f.sigma) <= 1e-15)
        assert np.all(f.sigma >= 0)

    def test_rank_deficient(self, rng):
        d = random_complex(rng, 5, 3)
        d[:, 2] = d[:, 0]  # duplicate column
        f = complex_svd(d)
        assert f.sigma[2] <= 1e-12 * f.sigma[0]
        rec = f.u[:, :3] @ (f.sigma[:, None] * f.v.conj().T)
        assert np.linalg.norm(rec - d) <= 1e-10 * np.linalg.norm(d)
        assert np.abs(f.u.conj().T @ f.u - np.eye(5)).max() <= 1e-10

    def test_zero_matrix(self):
        f = complex_svd(np.zeros((3, 2), dtype=complex))
        np.testing.assert_allclose(f.sigma, 0.0)
        np.testing.assert_allclose(f.u, np.eye(3))
        np.testing.assert_allclose(f.v, np.eye(2))

    def test_deterministic(self, rng):
        d = random_complex(rng, 4, 4)
        f1 = complex_svd(d)
        f2 = complex_svd(d)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_unitary_invariance_of_sigma(self, rng):
        d = random_complex(rng, 4, 4)
        q1 = np.linalg.qr(random_complex(rng, 4, 4))[0]
        q2 = np.linalg.qr(random_complex(rng, 4, 4))[0]
        s1 = complex_svd(d).sigma
        s2 = complex_svd(q1 @ d @ q2).sigma
        np.testing.assert_allclose(s1, s2, atol=1e-10 * s1[0])

    def test_real_input_matches_real_svd_oracle(self, rng):
        d = rng.standard_normal((5, 3))
        f = complex_svd(d)
        np.testing.assert_allclose(f.sigma, np.linalg.svd(d, compute_uv=False),
                                   atol=1e-10)
        assert np.abs(f.u.imag).max() == 0.0
        assert np.abs(f.v.imag).max() == 0.0

    def test_phase_convention(self, rng):
        d = random_complex(rng, 4, 4)
        f = complex_svd(d)
        for col in f.u.T:
            lead = col[np.abs(col) > 1e-8][0]
            assert abs(lead.imag) <= 1e-12
            assert lead.real > 0

    @pytest.mark.parametrize("first, lead_row", [(1e-7, 0), (1e-9, 1)])
    def test_first_significant_entry_is_above_1e_8(self, first, lead_row):
        # The left column of sigma = 3 is (first * 1j, sqrt(1 - first**2), 0)
        # up to a phase: its first entry leads only if its modulus is above
        # 1e-8, and the other nonzero entry then ends up a quarter turn away.
        b = np.sqrt(1 - first**2)
        u = np.array([[first * 1j, -b, 0], [b, -first * 1j, 0], [0, 0, 1]])
        col = complex_svd(u * [3.0, 2.0, 1.0]).u[:2, 0]
        lead, other = col[lead_row], col[1 - lead_row]
        assert lead.real > 0 and abs(lead.imag) <= 1e-3 * abs(lead)
        assert abs(other.real) <= 1e-3 * abs(other)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            complex_svd(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("m,n", [(0, 3), (0, 0), (3, 0)])
    def test_empty_matrix(self, m, n, kernel_route):
        # No singular values; u is m×m and v is n×n, and both are unitary.
        f = complex_svd(np.zeros((m, n)))
        assert f.sigma.shape == (0,)
        assert f.u.shape == (m, m) and f.v.shape == (n, n)
        assert f.u.dtype == f.v.dtype == complex
        for factor in (f.u, f.v):
            np.testing.assert_allclose(factor.conj().T @ factor, np.eye(len(factor)),
                                       atol=1e-12)

    def test_lapack_failure_reported(self, rng, svd_fails):
        # The kernel's own message, stated once on either route.
        for route in ("direct", "public"):
            svd_fails(route)
            with pytest.raises(SvdConvergenceError) as info:
                complex_svd(random_complex(rng, 3, 3))
            assert str(info.value) == "SVD did not converge"
            with pytest.raises(SvdConvergenceError) as info:
                singular_values(rng.standard_normal((3, 2, 4)))
            assert str(info.value) == "SVD did not converge"
