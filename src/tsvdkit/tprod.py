"""The T-product and its derived algebra: multiply, invert, orthogonality."""

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # private module; _qr then falls back to np.linalg.qr
    _umath_linalg = None

from .core import (
    _check_tol,
    as_tensor,
    bcirc,
    fold,
    frobenius_norm,
    identity_tensor,
    transpose,
    unfold,
)
from .spectral import _from_half, _rhalf, _svd

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


def _conformable(a, b):
    """`a` and `b` as tensors, after checking that their T-product is defined."""
    a, b = as_tensor(a), as_tensor(b)
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
    return a, b


def tprod(a, b):
    """T-product via the transform path: DFT, slicewise product, inverse DFT."""
    a, b = _conformable(a, b)
    return _from_half(_rhalf(a) @ _rhalf(b), a.shape[2])


def tprod_direct(a, b):
    """T-product via the literal block circulant product; differential oracle."""
    a, b = _conformable(a, b)
    return fold(bcirc(a) @ unfold(b), a.shape[2])


def is_orthogonal(q, tol=1e-10):
    """True iff q^T * q and q * q^T are both within `tol` of the identity."""
    _check_tol(tol)
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


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError(
        "Incorrect argument found while performing QR factorization"
    )


def _qr_inplace(a):
    # The two LAPACK gufuncs np.linalg.qr runs, geqrf then ungqr, under its
    # error state.  geqrf overwrites `a` with the raw factor, whose upper
    # triangle is R.  Returns Q and diag(R).
    with np.errstate(call=_raise_qr_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature="D->D")
        q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    return q, np.diagonal(a, axis1=-2, axis2=-1)


def _qr_linalg(a):
    q, r = np.linalg.qr(a)
    return q, np.diagonal(r, axis1=-2, axis2=-1)


def _inplace_route_matches():
    # Bit-for-bit agreement with np.linalg.qr on a fixed stack, whose slices
    # give diag(R) entries of both signs.
    z = np.array([[[1, 2j], [3, -1j]], [[-2, 1], [1j, 4]]], dtype=complex)
    try:
        q, d = _qr_inplace(z.copy())
    except (AttributeError, TypeError, ValueError):
        return False
    q_ref, d_ref = _qr_linalg(z)
    return np.array_equal(q, q_ref) and np.array_equal(d, d_ref)


# np.linalg.qr spends most of a small stack's time above LAPACK: a defensive
# copy, type resolution, wrapping, and a triu of R of which only the diagonal
# is read here.  Calling its gufuncs directly skips that, with the same
# arithmetic.  They are private, so they are used only where they exist and
# reproduce np.linalg.qr exactly; the check runs once, on the first draw, not at import.
_qr = None


def _oriented_q(mat):
    # QR orthonormalization of each matrix in a stack, with the R-diagonal
    # phase folded into Q, so the factor is a deterministic function of the
    # input.  LAPACK's Householder QR leaves diag(R) real, so the phase is a
    # sign: negate the columns whose diagonal entry is negative (a zero entry
    # keeps phase 1).  `_qr` may overwrite its argument, so anything but a
    # C-contiguous complex stack (random_orthogonal's own, used in place) is
    # copied first.
    global _qr
    if _qr is None:
        _qr = _qr_inplace if _inplace_route_matches() else _qr_linalg
    q, diag = _qr(np.ascontiguousarray(mat, dtype=complex))
    negative = diag.real < 0
    return np.negative(q, out=q, where=negative[..., None, :])


def random_orthogonal(n, p, seed):
    """Deterministic random orthogonal tensor (q^T * q = identity).

    Draws one unitary per independent transform slice, ties the remaining
    slices by conjugate symmetry (self-paired slices are drawn real), and
    inverse transforms; the result is real and orthogonal by construction.
    """
    if n < 1 or p < 1:
        raise ValueError(f"random_orthogonal needs n, p >= 1, got ({n}, {p})")
    # One draw holds, slice by slice, the real part and then (unless the slice
    # is self-paired) the imaginary part: p matrices in all.
    g = np.random.default_rng(seed).standard_normal((p, n, n))
    z = np.zeros((p // 2 + 1, n, n), dtype=complex)
    z.real[0], z.real[1:] = g[0], g[1::2]
    z.imag[1 : (p + 1) // 2] = g[2::2]
    return _from_half(_oriented_q(z), p)


def tinverse(a, tol=1e-12):
    """T-product inverse of a tensor with square frontal slices.

    A slice whose smallest singular value is at most ``tol`` times the largest
    singular value over all slices counts as singular and raises
    SingularSliceError naming the (1-based) slice.
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
    return _from_half(inv, p)
