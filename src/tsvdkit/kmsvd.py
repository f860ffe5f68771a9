"""Kilmer-Martin mapping, T-SVD, singular values, ranks, and truncations.

The mapping sends a real tensor through the mode-3 DFT, takes the SVD of each
transform slice with non-increasing singular values, and inverse transforms
the per-slice singular value matrices.  The result is a real f-diagonal
tensor that is invariant under T-products with orthogonal tensors, which is
what makes the derived singular values and ranks well defined.
"""

from dataclasses import dataclass

import numpy as np

from .core import _check_tol, _finite, _norm2, as_tensor
from .spectral import _from_half, _half, _rhalf, _svd, complex_svd, dft_mode3
from .tprod import _conformable

__all__ = [
    "TSvd",
    "RankReport",
    "km_mapping",
    "tsvd",
    "singular_values",
    "truncate_trank",
    "best_trank_one",
    "sigma1",
    "sigma1_upper_bound_check",
    "km_equal",
    "default_rank_threshold",
]

SIGMA1_BOUND_SLACK = 1e-10

# A refused image is named by its largest magnitude, sigma_1, which bounds every entry.
_SIGMA1 = "the largest singular value"


@dataclass(frozen=True)
class TSvd:
    """Factorization a = u * s * transpose(v) with f-diagonal real s."""

    u: np.ndarray  # (m, m, p) orthogonal
    s: np.ndarray  # (m, n, p) f-diagonal, slice-1 diagonal nonnegative
    v: np.ndarray  # (n, n, p) orthogonal


@dataclass(frozen=True)
class RankReport:
    """Spectral summary: sorted singular values, tube norms, and both ranks."""

    singular_values: np.ndarray  # p*min(m, n) values, non-increasing
    t_singular_values: np.ndarray  # min(m, n) tube norms, non-increasing
    t_rank: int
    tubal_rank: int
    threshold: float


def _km_diag(a):
    """The r = min(m, n) diagonal tubes of a validated tensor's image, as (r, p).

    The image's off-diagonal entries are zero, so these tubes are all of it.
    """
    vals = _svd(_rhalf(a), compute_uv=False)  # (p//2+1, r)
    return _from_half(vals, a.shape[2])


def _f_diagonal(tubes, m, n):
    """The (m, n, p) f-diagonal tensor whose r diagonal tubes are the rows of
    the (r, p) array `tubes`."""
    r = tubes.shape[0]
    s = np.zeros((m, n, tubes.shape[1]))
    s[np.arange(r), np.arange(r)] = tubes
    return s


def km_mapping(a):
    """Real f-diagonal image of `a`: inverse DFT of the slicewise singular values.

    ArithmeticError if an entry is not finite: the spectrum overflowed float64.
    """
    a = as_tensor(a)
    return _f_diagonal(_finite(_km_diag(a), _SIGMA1), a.shape[0], a.shape[1])


def tsvd(a):
    """Full T-SVD of `a`.

    The middle factor equals ``km_mapping(a)`` up to rounding, not bit for
    bit: here each slice of ``dft_mode3(a)`` is factored on its own, the
    self-paired ones by LAPACK's real driver, while the mapping factors the
    ``rfft`` slices in one batched complex call.  ArithmeticError if an
    entry of the transform or of the middle factor is not finite: the
    spectrum overflowed float64.
    """
    a = as_tensor(a)
    m, n, p = a.shape
    spectrum = _finite(dft_mode3(a), "the largest transform entry")
    factors = [complex_svd(d) for d in _half(spectrum)]
    tubes = _finite(_from_half(np.array([f.sigma for f in factors]), p), _SIGMA1)
    return TSvd(
        u=_from_half(np.stack([f.u for f in factors]), p),
        s=_f_diagonal(tubes, m, n),
        v=_from_half(np.stack([f.v for f in factors]), p),
    )


def default_rank_threshold(shape, sigma1):
    """Relative gate for counting a singular value as nonzero."""
    m, n, p = shape
    return float(np.finfo(float).eps * max(m, n) * p * sigma1)


def singular_values(a, tol=None):
    """Rank report of `a`: singular values, tube norms, T-rank, tubal rank.

    Singular values are the absolute diagonal entries of the mapping's image,
    sorted non-increasing; tube norms are the Euclidean norms of its diagonal
    tubes.  `tol` defaults to ``eps * max(m, n) * p * sigma_1``.  A spectrum
    that overflowed float64 (sigma_1 not finite) raises ArithmeticError.
    """
    a = as_tensor(a)
    diag = _km_diag(a)
    sv = np.sort(np.abs(diag), axis=None)[::-1]
    # The descending sort puts any inf or NaN first.
    s1 = _finite(float(sv[0]), _SIGMA1)
    lam = _norm2(diag, axis=1)
    if tol is None:
        tol = default_rank_threshold(a.shape, s1)
    else:
        _check_tol(tol)
    return RankReport(
        singular_values=sv,
        t_singular_values=lam,
        t_rank=int((sv > tol).sum()),
        tubal_rank=int((lam > tol).sum()),
        threshold=float(tol),
    )


def _truncated(u_half, vt_half, diag, s, p):
    """u * s_kept * transpose(v) from the half spectra of u and transpose(v).

    s_kept keeps the s largest-magnitude entries of the middle factor's (r, p)
    diagonal tubes `diag`, so slice k of the product is
    ``u_k[:, :r] @ diag(c_k) @ vt_k[:r]``, c being the kept tubes' spectrum.
    """
    r = diag.shape[0]
    total = p * r
    if not 1 <= s <= total:
        raise ValueError(f"kept-entry count must be in 1..{total}, got {s}")
    flat = diag.T.ravel()  # slice-major: a stable sort breaks ties slice-then-row
    keep = np.argsort(-np.abs(flat), kind="stable")[:s]
    kept = np.zeros(total)
    kept[keep] = flat[keep]
    c = _rhalf(kept.reshape(p, r).T)
    return _from_half((u_half[:, :, :r] * c[:, None, :]) @ vt_half[:, :r], p)


def truncate_trank(fac, s):
    """Keep the s largest-magnitude diagonal entries of the middle factor.

    Ties are broken by slice-then-row position, ascending, so position
    (1, 1, 1) always hosts the top value.  Returns u * s_kept * transpose(v).
    """
    u, mid = _conformable(fac.u, fac.s)
    mid, vt = _conformable(mid, np.swapaxes(fac.v, 0, 1))
    r = min(mid.shape[0], mid.shape[1])
    diag = mid[np.arange(r), np.arange(r)]
    # Only the first r columns of u and v meet the diagonal.  The spectrum of
    # transpose(v) is the conjugate transpose of v's slices.
    vt_half = _rhalf(vt[:r].swapaxes(0, 1)).conj().swapaxes(1, 2)
    return _truncated(_rhalf(u[:, :r]), vt_half, diag, s, mid.shape[2])


def best_trank_one(a):
    """Closest tensor (in Frobenius norm) with a single nonzero singular value.

    Equals ``truncate_trank(tsvd(a), 1)`` without the phase convention: a kept
    term ``u_k[:, i] c v_k[:, i]^H`` is unchanged when both vectors share a phase.
    ArithmeticError if the spectrum overflowed float64.
    """
    a = as_tensor(a)
    u, sigma, vh = _svd(_rhalf(a))
    p = a.shape[2]
    return _truncated(u, vh, _finite(_from_half(sigma, p), _SIGMA1), 1, p)


def sigma1(a):
    """Largest singular value; equals the mapping's (1, 1, 1) entry.

    ArithmeticError if it is not finite: the spectrum overflowed float64.
    """
    return _finite(float(_km_diag(as_tensor(a))[0, 0]), _SIGMA1)


def sigma1_upper_bound_check(a):
    """Verify the top singular value dominates every entry magnitude."""
    a = as_tensor(a)
    s1 = sigma1(a)
    return bool(s1 * (1.0 + SIGMA1_BOUND_SLACK) >= np.abs(a).max())


def km_equal(a, b, tol=1e-8):
    """True iff the two tensors have the same mapping image.

    Uses a relative gate,
    ``||S(a) - S(b)||_F <= tol * max(||S(a)||_F, ||S(b)||_F)``, so the answer
    does not depend on the scale of the inputs and two zero tensors are equal.
    An image whose norm is not finite raises ArithmeticError.
    """
    _check_tol(tol)
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _images_equal(_km_diag(a), _km_diag(b), tol)


def _images_equal(da, db, tol):
    """`km_equal`'s gate on two images given by their (r, p) diagonal tubes.

    The images' off-diagonal entries are zero, so these tubes carry every
    term of the three norms.
    """
    na = _finite(_norm2(da), "the norm of the first image")
    nb = _finite(_norm2(db), "the norm of the second image")
    return bool(_norm2(da - db) <= tol * max(na, nb))
