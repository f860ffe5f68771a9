"""The T-product, the mapping's image and the ops built on it against an
answer key in long double.

`longdouble_oracle` computes each answer in extended precision with code that
shares nothing with tsvdkit, so these tests measure how far an answer is from
the true one, where the rest of the suite compares the library's routes with
one another.  Each test states its bound in its docstring, derived from a
first-order rounding analysis (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002) before any error was measured.  A bound that fails
is a finding about the library, not a bound to widen.

The cases are 200 seeded draws: sides m, n, q in 1..8, tube length p in 1..9,
and each operand scaled by 2**k, k in -40..40.  The scaling is exact, so the
answers span 2**-80..2**80 with no underflow or overflow.  `tinverse` gets
200 square draws of its own, shifted so that every transform slice is well
conditioned.
"""

import functools
import importlib
import math

import numpy as np
import pytest

import longdouble_oracle as oracle
from tensor_cases import layouts
from tsvdkit import (best_trank_one, frobenius_norm, identity_tensor, km_mapping,
                     singular_values, tinverse, tprod, tprod_direct, tsvd)

tprod_module = importlib.import_module("tsvdkit.tprod")  # the package rebinds `tprod`

EPS = np.finfo(np.float64).eps


def gamma(count, eps):
    """Higham's gamma_N = N u / (1 - N u), u = eps / 2: the relative error of
    a sum of N products rounded one operation at a time, in any order."""
    u = eps / 2
    return count * u / (1 - count * u)


@functools.cache
def products():
    """The 200 (a, b) pairs with their T-product in long double, and the
    T-product of their magnitudes."""
    cases = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m, n, q = (int(side) for side in rng.integers(1, 9, 3))
        p = int(rng.integers(1, 10))
        ka, kb = (int(k) for k in rng.integers(-40, 41, 2))
        a = np.ldexp(rng.standard_normal((m, n, p)), ka)
        b = np.ldexp(rng.standard_normal((n, q, p)), kb)
        cases.append((a, b, oracle.tprod(a, b), oracle.tprod(np.abs(a), np.abs(b))))
    return cases


def sum_ratio(got, want, magnitude, n, p):
    """The largest |got - want| over its bound (gamma_{np} + gamma'_{np}) *
    magnitude, gamma' being the answer key's own gamma in long double."""
    bound = (gamma(n * p, EPS) + gamma(n * p, oracle.EPS)) * magnitude
    return float((np.abs(got - want) / bound).max())


def test_tprod_against_the_defining_sum(tprod_route):
    """Spatial route: |c^ - c| <= (gamma_{np} + gamma'_{np}) * (|a| * |b|),
    entry by entry, * being the T-product.  Each entry is one sum of n*p
    products, and a sum in any order obeys gamma (Higham, section 3.1).

    Transform route: in each tube (i, s), max over k of |c^ - c| is at most
    (n + 3 * (1 + ceil(log2 p))) * eps * T_is, where T_is, the sum over j of
    (sum over l of |a_ijl|) times (sum over l of |b_jsl|), bounds every
    entry of the operands' transforms and of their product.  Each of the three
    FFTs adds about log2 p roundings of that size (Higham, chapter 24), and the
    complex product of each slice about n.
    """
    worst = 0.0
    for a, b, c, magnitude in products():
        (m, n, p), got = a.shape, tprod(a, b)
        if tprod_route == "spatial":
            ratio = sum_ratio(got, c, magnitude, n, p)
        else:
            tube_sums = np.abs(a).sum(axis=2).astype(np.longdouble) @ np.abs(b).sum(axis=2)
            c_bound = n + 3 * (1 + math.ceil(math.log2(p)))
            ratio = float((np.abs(got - c) / (c_bound * EPS * tube_sums[:, :, None])).max())
        worst = max(worst, ratio)
    assert worst <= 1, f"{tprod_route}: error {worst:.3g} times its bound"


def test_tprod_direct_against_the_defining_sum():
    """|c^ - c| <= (gamma_{np} + gamma'_{np}) * (|a| * |b|), entry by entry:
    each entry of bcirc(a) @ unfold(b) is one sum of n*p products."""
    worst = max(sum_ratio(tprod_direct(a, b), c, magnitude, a.shape[1], a.shape[2])
                for a, b, c, magnitude in products())
    assert worst <= 1, f"error {worst:.3g} times its bound"


@functools.cache
def images():
    """The 200 left operands with their image's diagonal tubes in long double
    and sigma_1, the largest singular value of any transform slice."""
    return [(a, *oracle.km_tubes(a)) for a, _, _, _ in products()]


def km_bound(shape):
    """The constant of the bound on the image's tubes, in units of eps * sigma_1."""
    m, n, p = shape
    return max(m, n) + 2 * (1 + math.ceil(math.log2(p)))


def diagonal(s):
    r = min(s.shape[0], s.shape[1])
    return s[np.arange(r), np.arange(r)]


def image_error(image):
    """The largest error of the diagonal tubes of `image` over the cases, in
    units of km_bound * eps * sigma_1."""
    return max(float(np.abs(diagonal(image(a)) - tubes).max()
                     / (km_bound(a.shape) * EPS * sigma1))
               for a, tubes, sigma1 in images())


def test_km_mapping_tubes_against_jacobi(kernel_route):
    """Every entry of the image's diagonal tubes is within
    (max(m, n) + 2 * (1 + ceil(log2 p))) * eps * sigma_1 of the true one.

    By Weyl's inequality a backward error E in a slice's SVD moves each of its
    singular values by at most ||E||_2, which for LAPACK's SVD is a small
    multiple of max(m, n) * eps * sigma_1; the forward and inverse FFTs add
    about log2 p roundings each, and the inverse averages the slices' errors.
    """
    worst = image_error(km_mapping)
    assert worst <= 1, f"error {worst:.3g} times its bound"


def test_tsvd_middle_factor_against_jacobi(kernel_route):
    """The diagonal tubes of ``tsvd``'s middle factor keep the mapping's
    bound: ``tsvd`` factors each slice of the full spectrum on its own, the
    self-paired ones by the real driver, which the same analysis covers."""
    worst = image_error(lambda a: tsvd(a).s)
    assert worst <= 1, f"error {worst:.3g} times its bound"


def test_singular_values_against_jacobi(kernel_route):
    """The sorted singular values are within the image's bound,
    km_bound * eps * sigma_1, of the true ones, and each tube norm within
    (km_bound + p) * eps * sigma_1.

    Taking magnitudes and sorting move no value by more than the largest
    error among the entries.  By Parseval the error vector of a tube is the
    inverse DFT of its slices' errors, so its Euclidean norm is no larger than
    the bound on one entry, and the norm of p entries adds its own rounding,
    at most about p * eps times the norm, which is at most sigma_1.
    """
    worst_sigma = worst_lam = 0.0
    for a, tubes, sigma1 in images():
        report, p = singular_values(a), a.shape[2]
        scale = km_bound(a.shape) * EPS * sigma1
        want = np.sort(np.abs(tubes), axis=None)[::-1]
        worst_sigma = max(worst_sigma, float(np.abs(report.singular_values - want).max() / scale))
        lam = np.sqrt((tubes * tubes).sum(axis=1))
        lam_bound = (km_bound(a.shape) + p) * EPS * sigma1
        worst_lam = max(worst_lam, float(np.abs(report.t_singular_values - lam).max() / lam_bound))
    assert worst_sigma <= 1, f"singular values: error {worst_sigma:.3g} times the bound"
    assert worst_lam <= 1, f"tube norms: error {worst_lam:.3g} times the bound"


def test_best_trank_one_norm_against_jacobi(kernel_route):
    """| ||best_trank_one(a)||_F - S(a)_111 | is at most
    (km_bound + 2 * max(m, n) + 2 * (1 + ceil(log2 p)) + m*n*p / 2 + 5) * eps * sigma_1.

    In exact arithmetic every transform slice of the result is S(a)_111
    times u v^H, u and v unit vectors, so its norm is S(a)_111.  The computed
    S(a)_111 is within the image's bound; u and v are unit to max(m, n) * eps
    each; the two products of an entry round about 4 times; the inverse FFT
    adds about 2 * (1 + log2 p) roundings; and the norm, a sum of m*n*p
    squares, is relative to its value within about (m*n*p / 2 + 1) * eps.
    S(a)_111, a mean of the slices' largest singular values, is at most sigma_1.
    """
    worst = 0.0
    for a, tubes, sigma1 in images():
        m, n, p = a.shape
        c_bound = (km_bound(a.shape) + 2 * max(m, n) + 2 * (1 + math.ceil(math.log2(p)))
                   + m * n * p / 2 + 5)
        error = abs(frobenius_norm(best_trank_one(a)) - tubes[0, 0])
        worst = max(worst, float(error / (c_bound * EPS * sigma1)))
    assert worst <= 1, f"error {worst:.3g} times its bound"


@functools.cache
def inverses():
    """200 square tensors a = (g + 4 * sqrt(n p) * I) * 2**k, g Gaussian, with
    the condition number kappa of their transform slices taken together: the
    largest singular value of any slice over the smallest of any.  Each slice
    of g has norm about 2 * sqrt(n p), so kappa stays near 3."""
    cases = []
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        n, p = int(rng.integers(1, 9)), int(rng.integers(1, 10))
        k = int(rng.integers(-40, 41))
        shift = 4 * math.sqrt(n * p) * identity_tensor(n, p)
        a = np.ldexp(rng.standard_normal((n, n, p)) + shift, k)
        sigma = oracle.slice_singular_values(a)
        cases.append((a, float(sigma.max() / sigma.min())))
    return cases


def test_tinverse_against_the_identity(kernel_route):
    """Every entry of a * tinverse(a) - I, the product in long double, is at
    most (3 * n + 2 * (1 + ceil(log2 p)) * sqrt(n p)) * eps * kappa.

    Each slice's inverse is V diag(1/sigma) U^H from a backward-stable SVD
    of the slice plus a backward error E, ||E||_2 about n * eps * sigma_max,
    and with U and V unitary to about n * eps; so the slice's residual
    A X - I is at most about 3 * n * eps * kappa (-E X, the factors'
    orthogonality, and forming X).  The forward FFT of a and the inverse FFT
    of the result err by about (1 + log2 p) * eps times the Frobenius norm
    over all slices, at most sqrt(n p) times one slice's 2-norm, and each
    such error times the other factor adds eps * kappa times that.  Every
    entry of the residual is a mean over the slices' residuals.
    """
    worst = 0.0
    for a, kappa in inverses():
        n, _, p = a.shape
        residual = oracle.tprod(a, tinverse(a)) - identity_tensor(n, p)
        c_bound = 3 * n + 2 * (1 + math.ceil(math.log2(p))) * math.sqrt(n * p)
        worst = max(worst, float(np.abs(residual).max() / (c_bound * EPS * kappa)))
    assert worst <= 1, f"error {worst:.3g} times its bound"


@pytest.mark.parametrize("p", range(1, 10))
def test_spatial_tprod_on_every_layout(p):
    """The spatial route keeps the first test's bound whatever the operands'
    memory layout: b's block circulant is read through one contiguous copy."""
    rng = np.random.default_rng(900 + p)
    a, b = rng.standard_normal((3, 4, p)), rng.standard_normal((4, 2, p))
    assert 3 * 4 * 2 * p * p <= tprod_module._SPATIAL_MAX_WORK
    c, magnitude = oracle.tprod(a, b), oracle.tprod(np.abs(a), np.abs(b))
    for (name, left), right in zip(layouts(a).items(), layouts(b).values()):
        for x, y in ((left, right), (left, b), (a, right)):
            assert sum_ratio(tprod(x, y), c, magnitude, 4, p) <= 1, name
