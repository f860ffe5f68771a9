"""Mode-3 DFT of real tensors and deterministic per-slice SVDs on LAPACK.

The forward transform is the unnormalized DFT along tubes (third axis); the
inverse carries the 1/p factor.  Transforms of real tensors are conjugate
symmetric along the third axis: slice p - k is the conjugate of slice k and
slice 0 (plus slice p/2 for even p) is real.  Only the first p // 2 + 1
slices are independent, so per-slice work runs on that half, held as a
slice-major (p // 2 + 1, m, n) stack, and one ``irfft`` of length p turns
the result back into a real tensor.  Every op except ``tsvd`` that takes the
transform takes the half straight from ``rfft`` (``_rhalf``); ``tsvd`` slices
it out of the full ``dft_mode3`` spectrum (``_half``) and factors it one
``complex_svd`` per slice.  ``tprod`` takes the transform only for products
too large for its block-circulant matmul.

The route's FFTs, SVDs and QRs (``_kernels``) call numpy's pocketfft and
LAPACK gufuncs directly, skipping the wrappers' per-call overhead, once a probe
on first use shows that these match ``np.fft`` and ``np.linalg`` bit for bit;
otherwise (numpy 1.x) they call ``np.fft`` and ``np.linalg``, as
``dft_mode3`` and ``idft_mode3`` always do.

This module alone knows the kernels, the slice-major layout and LAPACK's
contracts.  The rest of the package reaches the kernels only through
``_rhalf`` (data with the DFT axis last in, a stack with it first out, for
tensors and for (r, p) tubes), ``_svd``, ``_oriented_q`` (QR with a
deterministic sign) and ``_from_half`` (the inverse of ``_rhalf``), besides
``tsvd``'s ``_half`` and ``complex_svd``.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # private module; the kernels then use np.linalg
    _umath_linalg = None

from .core import _array, _check_tol, _finite, as_tensor

__all__ = [
    "dft_mode3",
    "idft_mode3",
    "complex_svd",
    "SliceSvd",
    "SvdConvergenceError",
]

# Inverse transforms of conjugate-symmetric data are real up to roundoff; any
# larger imaginary residue means the symmetry was broken upstream.
IMAG_RESIDUE_TOL = 1e-8


def dft_mode3(a):
    """Forward DFT along tubes: slice k holds sum_l w**(k*l) * a[:, :, l].

    The kernel is w = exp(-2j*pi/p), unnormalized, so slice 0 is the sum of
    the frontal slices.
    """
    return np.fft.fft(as_tensor(a), axis=2)


def idft_mode3(d, residue_tol=IMAG_RESIDUE_TOL):
    """Inverse DFT along tubes of a conjugate-symmetric complex array.

    The entries must be finite, else ValueError.  Returns the real part after
    checking that every entry's imaginary residue is at most
    ``residue_tol * max modulus``, a gate relative to the scale of the result;
    a larger residue raises ValueError because the input cannot be the
    transform of a real tensor.  A zero spectrum passes.
    """
    _check_tol(residue_tol)
    d = _array(d, 3, "spectrum", dtype=complex)
    x = np.fft.ifft(d, axis=2)
    residue = np.abs(x.imag).max()
    if residue > residue_tol * np.abs(x).max():
        raise ValueError(
            f"inverse transform is not real: imaginary residue {residue:.3e} "
            f"exceeds {residue_tol:.1e} * max modulus; "
            "input lacks conjugate symmetry"
        )
    return np.ascontiguousarray(x.real)


class SvdConvergenceError(ArithmeticError):
    """LAPACK's SVD of a transform slice did not converge."""


@dataclass(frozen=True)
class SliceSvd:
    """Full SVD of one transform slice: d = u @ diag(sigma) @ v.conj().T."""

    u: np.ndarray  # (m, m) unitary
    sigma: np.ndarray  # (min(m, n),) nonnegative, non-increasing
    v: np.ndarray  # (n, n) unitary


def _svd(d, compute_uv=True):
    """``np.linalg.svd``, stacked over leading axes; failure is SvdConvergenceError,
    unless `d`, a transform of finite data, has an entry that overflowed float64,
    which LAPACK cannot factor: that is ArithmeticError."""
    try:
        return _kernels().svd(d, compute_uv)
    except np.linalg.LinAlgError as exc:
        _finite(d, "the largest transform entry")
        raise SvdConvergenceError(str(exc)) from None


def _oriented_q(mat):
    """Q of the QR of each matrix in a stack, with the R-diagonal phase
    folded in, so the factor is a deterministic function of the input.

    LAPACK's Householder QR leaves diag(R) real, so the phase is a sign: the
    columns whose diagonal entry is negative are negated (a zero entry keeps
    phase 1).  The QR kernel may overwrite its argument, so anything but a
    C-contiguous complex stack (used in place) is copied first.
    """
    q, r = _kernels().qr(np.ascontiguousarray(mat, dtype=complex))
    negative = r.diagonal(0, -2, -1).real < 0
    return np.negative(q, out=q, where=negative[..., None, :])


def _normalize_phases(u, sigma, v):
    """Make the first significant entry of each left column real nonnegative.

    Compensating phases go into the paired right column so the product
    u @ diag(sigma) @ v^H is unchanged.  Real factors get signs only, so
    they stay exactly real.  A u with no entries has no columns to fix.
    """
    if not u.size:
        return u, v
    cols = np.arange(u.shape[1])
    lead = u[(np.abs(u) > 1e-8).argmax(axis=0), cols]
    phase_conj = lead.conj() / np.abs(lead)
    k = sigma.shape[0]
    u = u * phase_conj
    v[:, :k] *= phase_conj[:k]
    return u, v


def complex_svd(d):
    """Full SVD of a complex matrix with deterministic factors.

    The entries must be finite, else ValueError.  LAPACK's SVD, with the real
    driver when the imaginary part is all zero so that exactly real input
    yields exactly real factors.  Singular values are non-increasing and each
    left column's first significant entry, the first of modulus above 1e-8,
    is made real nonnegative.
    """
    d = _array(d, 2, "matrix", dtype=complex)
    if not d.imag.any():
        d = d.real
    u, sigma, vh = _svd(d)
    u, v = _normalize_phases(u, sigma, vh.conj().T)
    return SliceSvd(u=u.astype(complex, copy=False), sigma=sigma,
                    v=v.astype(complex, copy=False))


def _half(spec):
    """Slices 0..p//2 of a real tensor's spectrum as a (p//2+1, m, n) stack.

    Self-paired slices are real up to roundoff; their imaginary part is
    zeroed so that they take LAPACK's real driver.
    """
    p = spec.shape[2]
    half = spec[:, :, : p // 2 + 1].transpose(2, 0, 1).copy()
    half.imag[0] = 0.0
    if p % 2 == 0:
        half.imag[p // 2] = 0.0
    return half


# Axis orders, by rank, that move the DFT axis from last to first and back.
_AXIS_FIRST = {2: (1, 0), 3: (2, 0, 1)}
_AXIS_LAST = {2: (1, 0), 3: (1, 2, 0)}


def _rhalf(x):
    """Slices 0..p//2 of the spectrum of validated real data along its last
    axis, with that axis first: an (m, n, p) tensor gives a (p//2+1, m, n)
    stack, (r, p) tubes a (p//2+1, r) array.

    ``rfft`` returns the self-paired slices exactly real.
    """
    half = _kernels().rfft(x)
    return half.transpose(_AXIS_FIRST[half.ndim])


def _from_half(stack, p):
    """Real data whose spectrum along the last axis has slices 0..p//2 equal
    to `stack` along its first: a (p//2+1, m, n) stack gives an (m, n, p)
    tensor, a (p//2+1, r) array (r, p) tubes.

    The other slices are the conjugate mirror, and the imaginary part of the
    self-paired slices is ignored, so the result is real by construction.
    """
    return _kernels().irfft(stack.transpose(_AXIS_LAST[stack.ndim]), p)


# rfft(a) and irfft(x, p) act along the last axis and svd(d, compute_uv) on a
# stack of matrices, each returning what np.fft or np.linalg.svd does, in the
# same memory layout.  qr(a) of a C-contiguous complex stack returns Q and a
# stack whose diagonal is R's, and may overwrite `a`.
_Kernels = namedtuple("_Kernels", "rfft irfft svd qr")
_PUBLIC = _Kernels(lambda a: np.fft.rfft(a), lambda x, p: np.fft.irfft(x, p),
                   lambda d, uv: np.linalg.svd(d, compute_uv=uv), lambda a: np.linalg.qr(a))

_pocketfft_umath = None  # numpy.fft's gufunc module, imported by the probe


def _rfft_direct(a):
    p = a.shape[-1]
    rfft = _pocketfft_umath.rfft_n_even if p % 2 == 0 else _pocketfft_umath.rfft_n_odd
    out = np.empty_like(a, shape=a.shape[:-1] + (p // 2 + 1,), dtype=complex)
    return rfft(a, 1.0, out=out)


def _irfft_direct(x, p):
    out = np.empty_like(x, shape=x.shape[:-1] + (p,), dtype=float)
    return _pocketfft_umath.irfft(x, 1 / p, out=out)


def _lapack_errors(message):
    # np.linalg's own error state: a LAPACK gufunc reports failure by raising
    # the invalid flag, which this turns into LinAlgError(message).  Used as a
    # decorator, it is built once per kernel instead of once per call.
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


@_lapack_errors("SVD did not converge")
def _svd_direct(d, compute_uv):
    return _umath_linalg.svd_f(d) if compute_uv else _umath_linalg.svd(d)


@_lapack_errors("Incorrect argument found while performing QR factorization")
def _qr_direct(a):
    # The two gufuncs np.linalg.qr runs, geqrf then ungqr.  geqrf overwrites
    # `a` with the raw factor, whose upper triangle is R.
    tau = _umath_linalg.qr_r_raw(a)
    return _umath_linalg.qr_reduced(a, tau), a


_DIRECT = _Kernels(_rfft_direct, _irfft_direct, _svd_direct, _qr_direct)


def _probe(kernels):
    # Every kernel on fixed inputs: rfft and irfft at an even and an odd
    # length, svd of complex and real matrices with and without factors, and
    # qr of slices whose diag(R) has entries of both signs.
    x = np.array([0.3, -1.7, 2.9, 0.55, -4.1])
    z = np.array([[[1, 2j], [3, -1j]], [[-2, 1], [1j, 4]]])
    q, r = kernels.qr(z.copy())
    arrays = [q, np.diagonal(r, axis1=-2, axis2=-1)]
    for p in (4, 5):
        half = kernels.rfft(x[:p])
        arrays += [half, kernels.irfft(half, p)]
    for d in (z, z.real):
        arrays += [*kernels.svd(d, True), kernels.svd(d, False)]
    return arrays


def _direct_route_matches():
    # The gufuncs are private: use them only where they reproduce the wrappers.
    global _pocketfft_umath
    try:
        from numpy.fft import _pocketfft_umath
        direct = _probe(_DIRECT)
    except (ImportError, AttributeError, TypeError, ValueError):
        return False
    return all(map(np.array_equal, direct, _probe(_PUBLIC)))


_route = None


def _kernels():
    """The direct kernels if they match the public ones, else the public ones."""
    # Chosen on first use, so `import tsvdkit` loads no numpy.fft.
    global _route
    if _route is None:
        _route = _DIRECT if _direct_route_matches() else _PUBLIC
    return _route
