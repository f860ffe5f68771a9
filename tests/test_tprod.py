import importlib
import itertools
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from tsvdkit import (
    SingularSliceError,
    bcirc,
    best_trank_one,
    complex_svd,
    dft_mode3,
    fold,
    frobenius_norm,
    identity_tensor,
    idft_mode3,
    is_orthogonal,
    km_equal,
    km_mapping,
    random_orthogonal,
    sigma1,
    sigma1_upper_bound_check,
    singular_values,
    spectral,
    tinverse,
    tprod,
    tprod_direct,
    transpose,
    truncate_trank,
    tsvd,
    unfold,
)
from tsvdkit.spectral import _from_half, _oriented_q

from tensor_cases import overflowing_tensors, random_tensor, same_bits

tprod_module = importlib.import_module("tsvdkit.tprod")  # the package rebinds `tprod`


def per_slice_draws(n, p, seed):
    """The seeded stream random_orthogonal is pinned to: for each independent
    transform slice in turn, a real part and, unless the slice is
    self-paired, an imaginary part."""
    rng = np.random.default_rng(seed)
    z = np.empty((p // 2 + 1, n, n), dtype=complex)
    for k in range(p // 2 + 1):
        if (p - k) % p == k:
            z[k] = rng.standard_normal((n, n))
        else:
            z[k] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z


class TestTprod:
    def test_identity_law(self, rng):
        a = rng.standard_normal((3, 4, 5))
        np.testing.assert_allclose(tprod(a, identity_tensor(4, 5)), a, atol=1e-13)
        np.testing.assert_allclose(tprod(identity_tensor(3, 5), a), a, atol=1e-13)

    def test_p_one_is_matrix_product(self, rng):
        a = rng.standard_normal((3, 2, 1))
        b = rng.standard_normal((2, 5, 1))
        np.testing.assert_allclose(
            tprod(a, b)[:, :, 0], a[:, :, 0] @ b[:, :, 0], atol=1e-13
        )

    def test_matches_block_circulant_route(self, rng):
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((2, 5, 4))
        expected = fold(bcirc(a) @ unfold(b), 4)
        np.testing.assert_allclose(tprod(a, b), expected, atol=1e-12)

    def test_matches_direct_product_on_random_shapes(self, rng, tprod_route):
        for _ in range(100):
            m, n, q, p = (int(x) for x in rng.integers(1, 7, size=4))
            a = rng.standard_normal((m, n, p))
            b = rng.standard_normal((n, q, p))
            want = tprod_direct(a, b)
            assert np.abs(tprod(a, b) - want).max() <= 1e-12 * np.abs(want).max()

    def test_inner_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="axis 1.*axis 0"):
            tprod(rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 5, 4)))

    def test_tube_mismatch(self, rng):
        with pytest.raises(ValueError, match="tube lengths.*axis 2"):
            tprod(rng.standard_normal((3, 2, 4)), rng.standard_normal((2, 5, 3)))


class TestTprodRoute:
    """Which route `tprod` takes, seen by counting forward transforms."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        """A list that gets one entry per forward transform `tprod` runs."""
        calls, rhalf = [], tprod_module._rhalf
        monkeypatch.setattr(tprod_module, "_rhalf", lambda x: calls.append(1) or rhalf(x))
        return calls

    def spatial(self, transforms, a, b):
        """tprod(a, b), after checking that it ran no transform and matches
        the block circulant product."""
        transforms.clear()
        got = tprod(a, b)
        assert not transforms, (a.shape, b.shape)
        want = tprod_direct(a, b)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        return got

    def test_acceptance_range_is_spatial(self, rng, transforms):
        for m, n, q, p in itertools.product((1, 3, 8), (1, 5, 8), (1, 2, 8), range(1, 7)):
            self.spatial(transforms, rng.standard_normal((m, n, p)),
                         rng.standard_normal((n, q, p)))

    def test_layouts_and_chained_products(self, rng, transforms):
        a = np.asfortranarray(rng.standard_normal((4, 6, 5)))
        b = rng.standard_normal((12, 7, 10))[::2, 1:4, ::2]  # strided view, (6, 3, 5)
        ab = self.spatial(transforms, a, b)
        abc = self.spatial(transforms, ab, ab.transpose(1, 0, 2))
        self.spatial(transforms, abc[::-1], np.asfortranarray(abc))
        for x in (a, b, ab, abc):
            self.spatial(transforms, x, x.transpose(1, 0, 2))

    def test_benchmark_cli_products_take_the_transform(self, rng, transforms):
        for left, right in [((32, 32, 32), (32, 32, 32)), ((128, 8, 8), (8, 128, 8))]:
            transforms.clear()
            tprod(rng.standard_normal(left), rng.standard_normal(right))
            assert len(transforms) == 2

    def test_identity_is_exact_at_the_top_of_float64(self, transforms):
        # The transform route's sum over the tube overflows here; the spatial
        # route multiplies by the identity's ones and zeros only.
        a = overflowing_tensors()[1]
        assert same_bits(self.spatial(transforms, a, identity_tensor(4, 5)), a)

    def test_transform_route_refuses_an_overflowed_product(self, transforms):
        # The true product is `stacked` written out 5 times side by side, and
        # finite; the transform route's sums over the tube are not.
        stacked = np.concatenate([overflowing_tensors()[1]] * 8)
        identities = np.concatenate([identity_tensor(4, 5)] * 5, axis=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ArithmeticError, match=r"^the largest entry of the product is (inf|nan): "
                                       "the result overflowed float64"):
            tprod(stacked, identities)
        assert len(transforms) == 2


class TestTprodDirect:
    def test_zero_annihilates(self, rng):
        b = rng.standard_normal((2, 3, 4))
        assert np.array_equal(tprod_direct(np.zeros((3, 2, 4)), b), np.zeros((3, 3, 4)))

    def test_tube_case_is_circular_convolution(self, rng):
        p = 5
        a = rng.standard_normal((1, 1, p))
        b = rng.standard_normal((1, 1, p))
        # direct circular convolution oracle
        conv = np.zeros(p)
        for k in range(p):
            for l in range(p):
                conv[(k + l) % p] += a[0, 0, k] * b[0, 0, l]
        np.testing.assert_allclose(tprod_direct(a, b)[0, 0], conv, atol=1e-13)

    def test_agrees_with_transform_path(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = int(rng.integers(1, 9))
            p = int(rng.integers(1, 7))
            a = rng.standard_normal((int(rng.integers(1, 9)), s, p))
            b = rng.standard_normal((s, int(rng.integers(1, 9)), p))
            fast = tprod(a, b)
            direct = tprod_direct(a, b)
            scale = max(frobenius_norm(direct), 1e-300)
            assert frobenius_norm(fast - direct) <= 1e-10 * scale


class TestIsOrthogonal:
    def test_identity(self):
        assert is_orthogonal(identity_tensor(3, 4))

    def test_scaled_identity_fails(self):
        assert not is_orthogonal(2.0 * identity_tensor(3, 4))

    def test_generator_self_check(self):
        for seed in range(5):
            assert is_orthogonal(random_orthogonal(4, 3, seed), tol=1e-10)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_rejects_nan_and_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            is_orthogonal(identity_tensor(3, 4), tol=tol)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError, match="square"):
            is_orthogonal(rng.standard_normal((3, 4, 2)))


class TestRandomOrthogonal:
    def test_trivial_case_is_sign(self):
        for seed in range(8):
            q = random_orthogonal(1, 1, seed)
            assert q.shape == (1, 1, 1)
            assert abs(abs(q[0, 0, 0]) - 1.0) < 1e-14

    def test_deterministic_in_seed(self):
        assert np.array_equal(random_orthogonal(4, 3, 99), random_orthogonal(4, 3, 99))

    def test_seeds_differ(self):
        assert not np.array_equal(random_orthogonal(4, 3, 0), random_orthogonal(4, 3, 1))

    @pytest.mark.parametrize("n,p", [(1, 4), (3, 1), (5, 2), (4, 6), (2, 7)])
    def test_orthogonal_for_shapes(self, n, p):
        assert is_orthogonal(random_orthogonal(n, p, 1234), tol=1e-10)

    def test_qr_leaves_r_diagonal_real(self, rng):
        # _oriented_q folds only the sign of diag(R); that is the whole phase
        # only while LAPACK's Householder QR keeps the diagonal exactly real.
        for n in range(1, 9):
            z = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
            r = np.linalg.qr(z)[1]
            assert not np.diagonal(r, axis1=-2, axis2=-1).imag.any()

    def test_oriented_q_has_nonnegative_r_diagonal(self, rng):
        z = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
        q = _oriented_q(z.copy())
        r = q.conj().swapaxes(1, 2) @ z
        assert np.diagonal(r, axis1=-2, axis2=-1).real.min() > 0
        # A zero diagonal entry keeps phase 1: Q is returned as QR gives it.
        zero = np.zeros((1, 3, 3), dtype=complex)
        assert np.array_equal(_oriented_q(zero.copy()), np.linalg.qr(zero)[0])

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_seeded_stream_is_pinned(self, seed):
        for n in range(1, 7):
            for p in range(1, 8):
                want = _from_half(_oriented_q(per_slice_draws(n, p, seed)), p)
                assert np.array_equal(random_orthogonal(n, p, seed), want)


def linalg_oriented_q(mat):
    """_oriented_q as np.linalg.qr and the sign fold, the reference route."""
    q, r = np.linalg.qr(mat)
    negative = np.diagonal(r, axis1=-2, axis2=-1).real < 0
    return np.negative(q, out=q, where=negative[..., None, :])


def complex_stacks(rng):
    for h in range(1, 6):
        for n in range(1, 9):
            shape = (h, n, n)
            yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            yield rng.standard_normal(shape).astype(complex)
            yield np.zeros(shape, dtype=complex)


def kernel_outputs(a, b, seed):
    """Every public op that runs a kernel, on an (m, n, p) tensor `a` and an
    (n, m, p) tensor `b`, as one list of arrays.  Some products take other
    ops' outputs, as the benchmark's trials do, so layouts carry over too."""
    m, n, p = a.shape
    r = min(m, n)
    q = random_orthogonal(n, p, seed)
    fac = tsvd(a)
    report = singular_values(a)
    svd = complex_svd(dft_mode3(a)[:, :, -1])
    flags = [sigma1(a), km_equal(a, tprod(a, q)), is_orthogonal(q),
             sigma1_upper_bound_check(a)]
    return [
        q, tprod(a, q), tprod(b, tprod(a, transpose(q))), tinverse(a[:r, :r]),
        km_mapping(a), fac.u, fac.s, fac.v, truncate_trank(fac, 1 + seed % (r * p)),
        best_trank_one(a), report.singular_values, report.t_singular_values,
        np.array(flags, dtype=float), svd.u, svd.sigma, svd.v,
    ]


def off_by_one(module, name):
    """A copy of `module` whose gufunc `name` returns one more than it should."""
    fake = types.SimpleNamespace(**{key: getattr(module, key) for key in dir(module)})
    gufunc = getattr(module, name)

    def wrong(*args, **kwargs):
        out = gufunc(*args, **kwargs)
        return tuple(x + 1 for x in out) if isinstance(out, tuple) else out + 1

    setattr(fake, name, wrong)
    return fake


class TestQrRoute:
    """The two kernel routes: direct gufunc calls and the public wrappers."""

    def test_oriented_q_matches_linalg_formula(self, rng, kernel_route):
        for z in complex_stacks(rng):
            assert same_bits(_oriented_q(z.copy()), linalg_oriented_q(z.copy()))

    def test_other_inputs_are_copied(self, rng, kernel_route):
        x = rng.standard_normal((3, 5, 5))
        kept = x.copy()
        assert same_bits(_oriented_q(x), linalg_oriented_q(x.astype(complex)))
        assert same_bits(x, kept)
        big = rng.standard_normal((4, 6, 12)) + 1j * rng.standard_normal((4, 6, 12))
        kept = big.copy()
        view = big[:, :, ::2]  # not contiguous
        assert same_bits(_oriented_q(view), linalg_oriented_q(view.copy()))
        assert same_bits(big, kept)

    def test_routes_give_identical_tensors(self, use_route):
        outputs = {}
        for route in ("direct", "public"):
            use_route(route)
            outputs[route] = []
            for seed in (0, 7, 2**40 + 3):
                rng = np.random.default_rng(seed)
                for m, n, p in itertools.product(range(1, 9), range(1, 9), range(1, 10)):
                    a = rng.standard_normal((m, n, p))
                    b = rng.standard_normal((n, m, p))
                    outputs[route] += kernel_outputs(a, b, seed)
        assert len(outputs["direct"]) == 3 * 8 * 8 * 9 * 16
        for fast, ref in zip(outputs["direct"], outputs["public"]):
            assert same_bits(fast, ref)

    def test_inplace_route_is_selected(self, monkeypatch):
        a = np.random.default_rng(5).standard_normal((4, 3, 5))
        want = kernel_outputs(a, a.transpose(1, 0, 2), 5)  # a first op selects the route
        assert spectral._route is spectral._DIRECT

        def refuse(*args, **kwargs):
            raise AssertionError("a public wrapper was called")

        for module, name in [(np.linalg, "qr"), (np.linalg, "svd"),
                             (np.fft, "rfft"), (np.fft, "irfft")]:
            monkeypatch.setattr(module, name, refuse)
        for got, ref in zip(kernel_outputs(a, a.transpose(1, 0, 2), 5), want, strict=True):
            assert same_bits(got, ref)

    def test_route_is_selected_on_the_first_draw(self):
        # In a fresh process: the import loads no numpy.fft and runs no probe,
        # the first op of any kind runs the probe once, and a second op runs
        # none.  Each pair starts on a different kernel; the first pair's
        # product is large enough to take the transform route.
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import tsvdkit
            from tsvdkit import spectral
            print("numpy.fft" in sys.modules, spectral._route)
            probes, probe = [], spectral._direct_route_matches
            spectral._direct_route_matches = lambda: probes.append(1) or probe()
            a = np.random.default_rng(0).standard_normal((3, 3, 4))
            for op in OPS:
                op()
                print(len(probes), end=" ")
            print(spectral._route is spectral._DIRECT)
        """)
        pairs = [
            "lambda: tsvdkit.tprod(np.ones((9, 9, 8)), np.ones((9, 9, 8))), "
            "lambda: tsvdkit.km_mapping(a)",
            "lambda: tsvdkit.random_orthogonal(3, 4, 0), lambda: tsvdkit.tprod(a, a)",
            "lambda: tsvdkit.complex_svd(a[:, :, 0]), lambda: tsvdkit.best_trank_one(a)",
            "lambda: tsvdkit.tsvd(a), lambda: tsvdkit.random_orthogonal(3, 4, 0)",
        ]
        src = Path(spectral.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        for ops in pairs:
            done = subprocess.run([sys.executable, "-c", script.replace("OPS", f"({ops})")],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == ["False", "None", "1", "1", "True"], ops

    def test_selection_rejects_missing_or_different_gufuncs(self, monkeypatch):
        want = random_orthogonal(4, 3, 5)
        # Restore the module the probe imports, whatever it binds here.
        monkeypatch.setattr(spectral, "_pocketfft_umath", spectral._pocketfft_umath)
        linalg, fft = np.linalg._umath_linalg, np.fft._pocketfft_umath
        for name in ("svd_f", "svd", "qr_r_raw", "qr_reduced"):
            monkeypatch.setattr(spectral, "_umath_linalg", off_by_one(linalg, name))
            assert not spectral._direct_route_matches(), name
        monkeypatch.setattr(spectral, "_umath_linalg", linalg)
        for name in ("rfft_n_even", "rfft_n_odd", "irfft"):
            monkeypatch.setattr(np.fft, "_pocketfft_umath", off_by_one(fft, name))
            assert not spectral._direct_route_matches(), name
        monkeypatch.setattr(np.fft, "_pocketfft_umath", fft)
        assert spectral._direct_route_matches()
        # A missing module selects the public route, which gives the same bits.
        monkeypatch.setattr(spectral, "_umath_linalg", None)
        assert not spectral._direct_route_matches()
        monkeypatch.setattr(spectral, "_route", None)
        assert same_bits(random_orthogonal(4, 3, 5), want)
        assert spectral._route is spectral._PUBLIC
        monkeypatch.setattr(spectral, "_umath_linalg", linalg)
        monkeypatch.delattr(np.fft, "_pocketfft_umath")  # as on numpy 1.x
        monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
        assert not spectral._direct_route_matches()

    def test_lapack_failure_raises_linalgerror(self, monkeypatch):
        # A LAPACK failure surfaces as the invalid floating-point flag.
        flags_invalid = types.SimpleNamespace(
            qr_r_raw=lambda a: np.sqrt(-np.ones(1)),
            qr_reduced=None,
        )
        monkeypatch.setattr(spectral, "_umath_linalg", flags_invalid)
        with pytest.raises(np.linalg.LinAlgError, match="QR factorization"):
            spectral._qr_direct(np.eye(2, dtype=complex)[None])


class TestTinverse:
    def test_identity(self):
        ident = identity_tensor(3, 4)
        np.testing.assert_allclose(tinverse(ident), ident, atol=1e-12)

    def test_orthogonal_inverse_is_transpose(self):
        q = random_orthogonal(4, 5, 21)
        assert frobenius_norm(tinverse(q) - transpose(q)) <= 1e-10

    def test_two_sided_inverse(self, rng):
        a = rng.standard_normal((4, 4, 3)) + 2.0 * identity_tensor(4, 3)
        inv = tinverse(a)
        ident = identity_tensor(4, 3)
        assert frobenius_norm(tprod(a, inv) - ident) <= 1e-9
        assert frobenius_norm(tprod(inv, a) - ident) <= 1e-9

    def test_singular_slice_reported(self):
        # build a tensor whose transform slice 2 is singular by choosing the
        # spectrum directly and inverse transforming
        spec = np.empty((2, 2, 3), dtype=complex)
        spec[:, :, 0] = np.eye(2)
        spec[:, :, 1] = np.diag([1.0, 0.0])
        spec[:, :, 2] = spec[:, :, 1].conj()
        a = idft_mode3(spec)
        with pytest.raises(SingularSliceError) as info:
            tinverse(a)
        assert info.value.slice_index == 2
        assert info.value.sigma_min <= 1e-12

    @pytest.mark.parametrize("sigma_min, singular", [(1e-5, False), (1e-7, True)])
    def test_gate_is_against_the_largest_sigma_1(self, sigma_min, singular):
        # For p = 2 the transform slices are a0 + a1 = diag(1e6, 1) and
        # a0 - a1 = diag(1, sigma_min).  The gate, 1e-12 times the largest
        # sigma_1, is 1e-6; the second slice's own sigma_1 would make it 1e-12.
        d0, d1 = np.diag([1e6, 1.0]), np.diag([1.0, sigma_min])
        a = np.stack([(d0 + d1) / 2, (d0 - d1) / 2], axis=2)
        if singular:
            with pytest.raises(SingularSliceError) as info:
                tinverse(a)
            assert info.value.slice_index == 2
            assert info.value.sigma_min == pytest.approx(sigma_min, rel=1e-6)
        else:
            np.testing.assert_allclose(tprod(a, tinverse(a)), identity_tensor(2, 2),
                                       rtol=0, atol=1e-8)

    def test_zero_tensor_singular(self):
        with pytest.raises(SingularSliceError) as info:
            tinverse(np.zeros((2, 2, 3)))
        assert info.value.slice_index == 1

    @pytest.mark.parametrize("c, value", [(1e-308, "inf"), (2e-309, "nan")])
    def test_inverse_beyond_float64_raises(self, c, value):
        # The inverse of c * I is I / c: at 1e-308 the inverse transform's sum
        # overflows to inf, and at 2e-309 1 / c itself does, leaving NaNs.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ArithmeticError, match=f"the largest entry of the inverse is {value}: "
                                       "the result overflowed float64"):
            tinverse(c * identity_tensor(2, 3))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_rejects_nan_and_negative_tol(self, tol):
        # Under a NaN gate no slice is singular: the zero tensor would invert to NaNs.
        for a in (np.zeros((2, 2, 3)), identity_tensor(2, 3)):
            with pytest.raises(ValueError, match="tolerance must be >= 0"):
                tinverse(a, tol=tol)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError, match="square"):
            tinverse(rng.standard_normal((2, 3, 2)))

    def test_matches_block_circulant_inverse(self, rng):
        # bcirc(a)^-1 is block circulant; its first block column is the
        # inverse tensor.
        for _ in range(50):
            n, p = (int(x) for x in rng.integers(1, 7, size=2))
            a = rng.standard_normal((n, n, p)) + 3.0 * identity_tensor(n, p)
            want = fold(np.linalg.inv(bcirc(a))[:, :n], p)
            assert np.abs(tinverse(a) - want).max() <= 1e-12 * np.abs(want).max()


class TestAlgebraProperties:
    def test_associativity(self, rng, tprod_route):
        for _ in range(10):
            p = int(rng.integers(1, 6))
            a = rng.standard_normal((int(rng.integers(1, 7)), 3, p))
            b = rng.standard_normal((3, 4, p))
            c = rng.standard_normal((4, int(rng.integers(1, 7)), p))
            left = tprod(tprod(a, b), c)
            right = tprod(a, tprod(b, c))
            assert frobenius_norm(left - right) <= 1e-9 * max(frobenius_norm(left), 1.0)

    def test_reversal_law(self, rng, tprod_route):
        for _ in range(10):
            p = int(rng.integers(1, 6))
            a = rng.standard_normal((4, 3, p))
            b = rng.standard_normal((3, 5, p))
            lhs = transpose(tprod(a, b))
            rhs = tprod(transpose(b), transpose(a))
            assert frobenius_norm(lhs - rhs) <= 1e-10 * max(frobenius_norm(lhs), 1.0)

    def test_orthogonal_norm_invariance(self, rng, tprod_route):
        for seed in range(10):
            a = random_tensor(rng, max_m=6, max_n=6, max_p=5)
            q = random_orthogonal(a.shape[0], a.shape[2], seed)
            assert frobenius_norm(tprod(q, a)) == pytest.approx(
                frobenius_norm(a), abs=1e-10 * (1 + frobenius_norm(a))
            )
