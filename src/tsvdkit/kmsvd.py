"""Kilmer-Martin mapping, T-SVD, singular values, ranks, and truncations.

The mapping sends a real tensor through the mode-3 DFT, takes the SVD of each
transform slice with non-increasing singular values, and inverse transforms
the per-slice singular value matrices.  The result is a real f-diagonal
tensor that is invariant under T-products with orthogonal tensors, which is
what makes the derived singular values and ranks well defined.
"""

from dataclasses import dataclass

import numpy as np

from .core import _norm2, as_tensor, frobenius_norm, transpose
from .spectral import _factor_slices, _idft_half, _independent_half, _svd, dft_mode3
from .tprod import tprod

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


def km_mapping(a):
    """Real f-diagonal image of `a`: inverse DFT of the slicewise singular values."""
    a = as_tensor(a)
    m, n, p = a.shape
    r = min(m, n)
    half = _independent_half(dft_mode3(a))
    vals = _svd(half.transpose(2, 0, 1), compute_uv=False)  # (slices, r)
    sig = np.zeros((m, n, half.shape[2]))
    sig[np.arange(r), np.arange(r), :] = vals.T
    return _idft_half(sig, p)


def tsvd(a):
    """Full T-SVD of `a`; the middle factor equals ``km_mapping(a)``."""
    a = as_tensor(a)
    m, n, p = a.shape
    r = min(m, n)
    u, sigma, v = _factor_slices(_independent_half(dft_mode3(a)))
    s = np.zeros((m, n, sigma.shape[1]))
    s[np.arange(r), np.arange(r), :] = sigma
    return TSvd(u=_idft_half(u, p), s=_idft_half(s, p), v=_idft_half(v, p))


def default_rank_threshold(shape, sigma1):
    """Relative gate for counting a singular value as nonzero."""
    m, n, p = shape
    return float(np.finfo(float).eps * max(m, n) * p * sigma1)


def singular_values(a, tol=None):
    """Rank report of `a`: singular values, tube norms, T-rank, tubal rank.

    Singular values are the absolute diagonal entries of the mapping's image,
    sorted non-increasing; tube norms are the Euclidean norms of its diagonal
    tubes.  `tol` defaults to ``eps * max(m, n) * p * sigma_1``.
    """
    a = as_tensor(a)
    s = km_mapping(a)
    r = min(a.shape[0], a.shape[1])
    diag = s[np.arange(r), np.arange(r), :]
    sv = np.sort(np.abs(diag), axis=None)[::-1]
    lam = _norm2(diag, axis=1)
    if tol is None:
        tol = default_rank_threshold(a.shape, float(sv[0]))
    elif tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    return RankReport(
        singular_values=sv,
        t_singular_values=lam,
        t_rank=int((sv > tol).sum()),
        tubal_rank=int((lam > tol).sum()),
        threshold=float(tol),
    )


def truncate_trank(fac, s):
    """Keep the s largest-magnitude diagonal entries of the middle factor.

    Ties are broken by slice-then-row position, ascending, so position
    (1, 1, 1) always hosts the top value.  Returns u * s_kept * transpose(v).
    """
    m, n, p = fac.s.shape
    r = min(m, n)
    total = p * r
    if not 1 <= s <= total:
        raise ValueError(f"kept-entry count must be in 1..{total}, got {s}")
    diag = fac.s[np.arange(r), np.arange(r), :]  # (r, p)
    rows, slices = np.meshgrid(np.arange(r), np.arange(p), indexing="ij")
    rows = rows.ravel()
    slices = slices.ravel()
    order = np.lexsort((rows, slices, -np.abs(diag).ravel()))
    keep = order[:s]
    s_kept = np.zeros_like(fac.s)
    s_kept[rows[keep], rows[keep], slices[keep]] = diag[rows[keep], slices[keep]]
    return tprod(fac.u, tprod(s_kept, transpose(fac.v)))


def best_trank_one(a):
    """Closest tensor (in Frobenius norm) with a single nonzero singular value."""
    return truncate_trank(tsvd(a), 1)


def sigma1(a):
    """Largest singular value; equals the mapping's (1, 1, 1) entry."""
    return float(km_mapping(a)[0, 0, 0])


def sigma1_upper_bound_check(a):
    """Verify the top singular value dominates every entry magnitude."""
    a = as_tensor(a)
    s1 = sigma1(a)
    return bool(s1 * (1.0 + 1e-10) >= np.abs(a).max())


def km_equal(a, b, tol=1e-8):
    """True iff the two tensors have the same mapping image.

    Uses a relative gate,
    ``||S(a) - S(b)||_F <= tol * max(||S(a)||_F, ||S(b)||_F)``, so the answer
    does not depend on the scale of the inputs and two zero tensors are equal.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    sa = km_mapping(a)
    sb = km_mapping(b)
    scale = max(frobenius_norm(sa), frobenius_norm(sb))
    return bool(frobenius_norm(sa - sb) <= tol * scale)
