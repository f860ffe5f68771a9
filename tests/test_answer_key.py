"""The T-product and the mapping's image against an answer key in long double.

`longdouble_oracle` computes each answer in extended precision with code that
shares nothing with tsvdkit, so these tests measure how far an answer is from
the true one, where the rest of the suite compares the library's routes with
one another.  Each test states its bound in its docstring, derived from a
first-order rounding analysis (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002) before any error was measured.  A bound that fails
is a finding about the library, not a bound to widen.

The cases are 200 seeded draws: sides m, n, q in 1..8, tube length p in 1..9,
and each operand scaled by 2**k, k in -40..40.  The scaling is exact, so the
answers span 2**-80..2**80 with no underflow or overflow.
"""

import functools
import importlib
import math

import numpy as np
import pytest

import longdouble_oracle as oracle
from tensor_cases import layouts
from tsvdkit import km_mapping, tprod, tprod_direct

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


def test_km_mapping_tubes_against_jacobi(kernel_route):
    """Every entry of the image's diagonal tubes is within
    (max(m, n) + 2 * (1 + ceil(log2 p))) * eps * sigma_1 of the true one.

    By Weyl's inequality a backward error E in a slice's SVD moves each of its
    singular values by at most ||E||_2, which for LAPACK's SVD is a small
    multiple of max(m, n) * eps * sigma_1; the forward and inverse FFTs add
    about log2 p roundings each, and the inverse averages the slices' errors.
    """
    worst = 0.0
    for a, tubes, sigma1 in images():
        m, n, p = a.shape
        r = min(m, n)
        got = km_mapping(a)[np.arange(r), np.arange(r)]
        c_bound = max(m, n) + 2 * (1 + math.ceil(math.log2(p)))
        worst = max(worst, float(np.abs(got - tubes).max() / (c_bound * EPS * sigma1)))
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
