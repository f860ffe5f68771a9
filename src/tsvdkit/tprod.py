"""The T-product and its derived algebra: multiply, invert, orthogonality."""

import numpy as np

from .core import (
    _check_tol,
    _circulant,
    _conformable,
    _finite,
    as_tensor,
    bcirc,
    fold,
    frobenius_norm,
    identity_tensor,
    transpose,
    unfold,
)
from .spectral import _from_half, _oriented_q, _pack_half, _rhalf, _svd

__all__ = [
    "tprod",
    "tprod_direct",
    "is_orthogonal",
    "random_orthogonal",
    "tinverse",
    "SingularSliceError",
]


class SingularSliceError(ArithmeticError):
    """A transform slice is numerically singular, so no T-inverse exists."""

    def __init__(self, slice_index, sigma_min):
        self.slice_index = slice_index  # 1-based, matching tube positions
        self.sigma_min = sigma_min
        super().__init__(
            f"transform slice {slice_index} is numerically singular "
            f"(smallest singular value {sigma_min:.3e})"
        )


# Products of at most this many multiply-adds (m * n * q * p**2) run as one
# real matmul against a block circulant; larger ones go through the transform.
_SPATIAL_MAX_WORK = 2**15


def tprod(a, b):
    """T-product of an (m, n, p) and an (n, q, p) tensor: the (m, q, p) tensor
    whose frontal slice k is the sum over l of a_l @ b_{(k - l) mod p}.

    Small products, m * n * q * p**2 <= 2**15 multiply-adds, are computed as
    that sum: one real matmul of `a` as an (m, n*p) matrix, entry (i, (j, l))
    being a[i, j, l], with the (n*p, q*p) block circulant of `b`.  Larger
    products take the transform route: DFT along tubes, one complex product
    per independent slice of the half spectrum, inverse DFT.  The matmul does
    about p/2 times the transform route's real arithmetic but skips its fixed
    cost of three FFTs and their glue, which dominates small products (a
    5x5x4 product takes under half the time).  The bound stays far below
    where the extra arithmetic wins out: the product of two 32x32x32 tensors
    is about 4 times slower as one matmul.  Both routes agree to rounding.

    A transform-route product with an entry beyond the float64 range raises
    ArithmeticError: its sums over the tube can overflow although the true
    product is finite.
    """
    a, b = _conformable(a, b)
    (m, n, p), q = a.shape, b.shape[1]
    if m * n * q * p * p > _SPATIAL_MAX_WORK:
        product = _from_half(_rhalf(a) @ _rhalf(b), p)
        return _finite(product, "the largest entry of the product")
    circulant = _circulant(b).transpose(0, 3, 1, 2).reshape(n * p, q * p)
    return (a.reshape(m, n * p) @ circulant).reshape(m, q, p)


def tprod_direct(a, b):
    """T-product via the literal block circulant product; differential oracle.

    ArithmeticError if an entry of the product is beyond the float64 range.
    """
    a, b = _conformable(a, b)
    return fold(_finite(bcirc(a) @ unfold(b), "the largest entry of the product"), a.shape[2])


def is_orthogonal(q, tol=1e-10):
    """True iff q^T * q is within `tol` of the identity in Frobenius norm.

    An orthogonal tensor satisfies q^T * q = q * q^T = identity, but for
    square frontal slices one half suffices: in each transform slice Q, the
    Hermitian matrices Q^H Q - I and Q Q^H - I have the same eigenvalues
    sigma_i**2 - 1, hence equal Frobenius norms, and by Parseval so do the
    tensors q^T * q - identity and q * q^T - identity (in exact arithmetic).
    ArithmeticError if an entry of q^T * q is beyond the float64 range.
    """
    _check_tol(tol)
    q = as_tensor(q)
    n, n2, p = q.shape
    if n != n2:
        raise ValueError(f"orthogonality needs square frontal slices, got {n}x{n2}")
    gram = _finite(tprod(transpose(q), q), "the largest entry of q^T * q")
    return frobenius_norm(gram - identity_tensor(n, p)) <= tol


def random_orthogonal(n, p, seed):
    """Deterministic random orthogonal tensor (q^T * q = identity).

    Draws one unitary per independent transform slice, ties the remaining
    slices by conjugate symmetry (self-paired slices are drawn real), and
    inverse transforms; the result is real and orthogonal by construction.
    """
    if n < 1 or p < 1:
        raise ValueError(f"random_orthogonal needs n, p >= 1, got ({n}, {p})")
    g = np.random.default_rng(seed).standard_normal((p, n, n))
    return _from_half(_oriented_q(_pack_half(g)), p)


def tinverse(a, tol=1e-12):
    """T-product inverse of a tensor with square frontal slices.

    A slice whose smallest singular value is at most ``tol`` times the largest
    singular value over all slices counts as singular and raises
    SingularSliceError naming the (1-based) slice.  An inverse with an entry
    beyond the float64 range raises ArithmeticError.
    """
    _check_tol(tol)
    a = as_tensor(a)
    n, n2, p = a.shape
    if n != n2:
        raise ValueError(f"t-inverse needs square frontal slices, got {n}x{n2}")
    u, sigma, vh = _svd(_rhalf(a))
    # A mirrored slice shares its partner's singular values and comes later,
    # so the first singular slice is always in the independent half.
    singular = np.flatnonzero(sigma[:, -1] <= tol * sigma[:, 0].max())
    if singular.size:
        k = int(singular[0])
        raise SingularSliceError(k + 1, sigma[k, -1])
    inv = (vh.conj().swapaxes(1, 2) / sigma[:, None, :]) @ u.conj().swapaxes(1, 2)
    return _finite(_from_half(inv, p), "the largest entry of the inverse")
