"""Tensors and comparisons shared by the test modules."""

import numpy as np

from tsvdkit import identity_tensor


def same_bits(a, b):
    """Equal dtype, shape and bytes: equal values, signs of zeros included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_tensor(rng, max_m=8, max_n=8, max_p=6):
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    p = int(rng.integers(1, max_p + 1))
    return rng.standard_normal((m, n, p))


def fdiagonal_fixture():
    """3x3x3 f-diagonal tensor with entries 6, 5, 9, 9; its mapped image is
    12, 6, 5 in slice 1 plus 3 in slices 2 and 3 of the (1, 1) tube."""
    a = np.zeros((3, 3, 3))
    a[1, 1, 0] = 6.0
    a[0, 0, 1] = 5.0
    a[2, 2, 1] = 9.0
    a[2, 2, 2] = 9.0
    return a


def fdiagonal_fixture_image():
    s = np.zeros((3, 3, 3))
    s[0, 0, 0] = 12.0
    s[1, 1, 0] = 6.0
    s[2, 2, 0] = 5.0
    s[0, 0, 1] = 3.0
    s[0, 0, 2] = 3.0
    return s


def overflowing_tensors():
    """Finite tensors near the top of float64 whose spectrum overflows: a
    Gaussian 4x3x5 and a well-conditioned 4x4x5, both drawn with seed 1 and
    scaled by 2**1020, and a 1x1x2 tube of 1.5e308s, whose forward transform
    already overflows."""
    gaussian = np.random.default_rng(1).standard_normal((4, 3, 5))
    shifted = np.random.default_rng(1).standard_normal((4, 4, 5)) + 3 * identity_tensor(4, 5)
    return [2.0**1020 * gaussian, 2.0**1020 * shifted, np.full((1, 1, 2), 1.5e308)]


def layouts(x):
    """`x` in several memory layouts, by name: C-ordered, F-ordered,
    transposed (axes 0 and 1 swapped in memory), with negative strides, and
    as a strided slice of a larger array.  Every one equals `x`."""
    m, n, p = x.shape
    big = np.zeros((2 * m, 3 * n, 2 * p + 1))
    big[::2, 1::3, 1::2] = x
    return {
        "C": np.ascontiguousarray(x),
        "F": np.asfortranarray(x),
        "transposed": np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2),
        "negative strides": np.ascontiguousarray(x[::-1, ::-1, ::-1])[::-1, ::-1, ::-1],
        "sliced": big[::2, 1::3, 1::2],
    }
