"""An answer key in extended precision for the T-product and the mapping.

It shares no code with tsvdkit: the T-product is its defining sum, slice k
being the sum over l of a_l @ b_{(k - l) mod p}, and the mapping's diagonal
tubes come from ``np.fft.fft`` and a one-sided complex Jacobi SVD (Hestenes,
J. SIAM 6, 1958) of every transform slice, all in ``np.longdouble``.  Jacobi
finds singular values to high relative accuracy (Demmel and Veselic, SIMAX 13,
1992), and ``np.linalg`` does not take long double, so the SVD is written out.

Where long double is no wider than float64, or ``np.fft`` computes in float64
(numpy 1.x), an importing test module is skipped: a float64 answer key would
share the library's rounding, so there is no fallback.
"""

import numpy as np
import pytest

EPS = np.finfo(np.longdouble).eps

if not EPS < np.finfo(np.float64).eps:
    pytest.skip("np.longdouble is no wider than float64", allow_module_level=True)
if np.fft.fft(np.zeros(2, np.longdouble)).dtype != np.clongdouble:
    pytest.skip("np.fft does not compute in long double", allow_module_level=True)


def tprod(a, b):
    """The (m, q, p) T-product of an (m, n, p) and an (n, q, p) array as its
    defining sum, in long double."""
    a, b = np.asarray(a, np.longdouble), np.asarray(b, np.longdouble)
    p = a.shape[2]
    c = np.zeros((a.shape[0], b.shape[1], p), np.longdouble)
    for k in range(p):
        for l in range(p):
            c[:, :, k] += a[:, :, l] @ b[:, :, (k - l) % p]
    return c


def _pairs(n):
    """The rounds of a round-robin over n columns: in each, a list of disjoint
    (i, j) pairs with i < j; together the rounds meet every pair once."""
    idx = list(range(n + n % 2))  # an odd n gets a dummy column n, never paired
    rounds = []
    for _ in range(len(idx) - 1):
        half = len(idx) // 2
        pairs = [tuple(sorted((idx[k], idx[-1 - k]))) for k in range(half)]
        rounds.append([pair for pair in pairs if pair[1] < n])
        idx = [idx[0], idx[-1]] + idx[1:-1]
    return [r for r in rounds if r]


def singular_values(d, max_sweeps=60):
    """Singular values of each matrix in a (P, m, n) complex stack, as (P, r)
    in non-increasing order, r = min(m, n): one-sided Jacobi in long double.

    Each sweep rotates every pair of columns of every matrix at once until
    they are orthogonal to working precision; the column norms are then the
    singular values.
    """
    d = np.asarray(d, np.clongdouble)
    if d.shape[1] < d.shape[2]:  # fewer columns to orthogonalize
        d = d.conj().swapaxes(1, 2)
    d = d.copy()
    n = d.shape[2]
    for _ in range(max_sweeps):
        rotated = False
        for pairs in _pairs(n):
            i, j = (np.array(side) for side in zip(*pairs))
            ci, cj = d[:, :, i], d[:, :, j]
            alpha = (np.abs(ci) ** 2).sum(axis=1)
            beta = (np.abs(cj) ** 2).sum(axis=1)
            gamma = (ci.conj() * cj).sum(axis=1)
            g = np.abs(gamma)
            act = g > EPS * np.sqrt(alpha * beta)
            if not act.any():
                continue
            rotated = True
            g = np.where(act, g, 1)
            zeta = (beta - alpha) / (2 * g)
            t = np.where(zeta < 0, -1, 1) / (np.abs(zeta) + np.sqrt(1 + zeta * zeta))
            c = np.where(act, 1 / np.sqrt(1 + t * t), 1)[:, None, :]
            s = np.where(act, t, 0)[:, None, :] * c
            # Turn the phase of gamma out of column j, then rotate as if real.
            cj = cj * np.where(act, gamma.conj() / g, 1)[:, None, :]
            d[:, :, i], d[:, :, j] = c * ci - s * cj, s * ci + c * cj
        if not rotated:
            break
    else:
        raise AssertionError(f"Jacobi did not converge in {max_sweeps} sweeps")
    return -np.sort(-np.sqrt((np.abs(d) ** 2).sum(axis=1)), axis=1)


def slice_singular_values(a):
    """The singular values of the p slices of a's DFT along tubes, as (p, r)."""
    spectrum = np.fft.fft(np.asarray(a, np.longdouble), axis=2)
    return singular_values(spectrum.transpose(2, 0, 1))


def km_tubes(a):
    """The r = min(m, n) diagonal tubes of the mapping's image of `a`, as (r, p):
    the inverse DFT along tubes of the singular values of the slices of a's
    DFT.  Also returns sigma_1, the largest of those singular values."""
    sigma = slice_singular_values(a)
    return np.fft.ifft(sigma, axis=0).real.T, sigma.max()
