"""The T-product and its derived algebra: multiply, invert, orthogonality."""

import numpy as np

from .core import (
    as_tensor,
    bcirc,
    fold,
    frobenius_norm,
    identity_tensor,
    transpose,
    unfold,
)
from .spectral import (
    _factor_slices,
    _idft_half,
    _independent_half,
    dft_mode3,
    idft_mode3,
)

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


def _check_conformable(a, b):
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"t-product inner dimensions differ: left lateral axis (axis 1) "
            f"has size {a.shape[1]}, right horizontal axis (axis 0) has size "
            f"{b.shape[0]}"
        )
    if a.shape[2] != b.shape[2]:
        raise ValueError(
            f"t-product tube lengths differ (axis 2): {a.shape[2]} vs {b.shape[2]}"
        )


def tprod(a, b):
    """T-product via the transform path: DFT, slicewise product, inverse DFT."""
    a = as_tensor(a)
    b = as_tensor(b)
    _check_conformable(a, b)
    fa = dft_mode3(a).transpose(2, 0, 1)
    fb = dft_mode3(b).transpose(2, 0, 1)
    return idft_mode3(np.matmul(fa, fb).transpose(1, 2, 0))


def tprod_direct(a, b):
    """T-product via the literal block circulant product; differential oracle."""
    a = as_tensor(a)
    b = as_tensor(b)
    _check_conformable(a, b)
    return fold(bcirc(a) @ unfold(b), a.shape[2])


def is_orthogonal(q, tol=1e-10):
    """True iff q^T * q and q * q^T are both within `tol` of the identity."""
    q = as_tensor(q)
    n, n2, p = q.shape
    if n != n2:
        raise ValueError(f"orthogonality needs square frontal slices, got {n}x{n2}")
    qt = transpose(q)
    ident = identity_tensor(n, p)
    return (
        frobenius_norm(tprod(qt, q) - ident) <= tol
        and frobenius_norm(tprod(q, qt) - ident) <= tol
    )


def _oriented_q(mat):
    # QR orthonormalization of each matrix in a stack, with the R-diagonal
    # phase folded into Q, so the factor is a deterministic function of the
    # input.
    q, r = np.linalg.qr(mat)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    safe = np.abs(d)
    phases = np.where(safe > 0, d / np.where(safe > 0, safe, 1.0), 1.0)
    return q * phases[..., None, :]


def random_orthogonal(n, p, seed):
    """Deterministic random orthogonal tensor (q^T * q = identity).

    Draws one unitary per independent transform slice, ties the remaining
    slices by conjugate symmetry (self-paired slices are drawn real), and
    inverse transforms; the result is real and orthogonal by construction.
    """
    if n < 1 or p < 1:
        raise ValueError(f"random_orthogonal needs n, p >= 1, got ({n}, {p})")
    rng = np.random.default_rng(seed)
    half = p // 2 + 1
    z = np.empty((half, n, n), dtype=complex)
    for k in range(half):
        if (p - k) % p == k:
            z[k] = rng.standard_normal((n, n))
        else:
            z[k] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _idft_half(_oriented_q(z).transpose(1, 2, 0), p)


def tinverse(a, tol=1e-12):
    """T-product inverse of a tensor with square frontal slices.

    A slice whose smallest singular value is at most ``tol`` times the largest
    singular value over all slices counts as singular and raises
    SingularSliceError naming the (1-based) slice.
    """
    a = as_tensor(a)
    n, n2, p = a.shape
    if n != n2:
        raise ValueError(f"t-inverse needs square frontal slices, got {n}x{n2}")
    u, sigma, v = _factor_slices(_independent_half(dft_mode3(a)))
    # A mirrored slice shares its partner's singular values and comes later,
    # so the first singular slice is always in the independent half.
    singular = np.flatnonzero(sigma[-1] <= tol * sigma[0].max())
    if singular.size:
        k = int(singular[0])
        raise SingularSliceError(k + 1, sigma[-1, k])
    inv = np.matmul((v / sigma).transpose(2, 0, 1), u.conj().transpose(2, 1, 0))
    return _idft_half(inv.transpose(1, 2, 0), p)
