"""Mode-3 DFT of real tensors and deterministic per-slice SVDs on LAPACK.

The forward transform is the unnormalized DFT along tubes (third axis); the
inverse carries the 1/p factor.  Transforms of real tensors are conjugate
symmetric along the third axis: slice p - k is the conjugate of slice k and
slice 0 (plus slice p/2 for even p) is real.  Only the first p // 2 + 1
slices are independent, so per-slice work runs on that half, held as a
slice-major (p // 2 + 1, m, n) stack, and one ``irfft`` of length p turns
the result back into a real tensor.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_tensor

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

    Returns the real part after checking that every entry's imaginary residue
    is at most ``residue_tol * max modulus``, a gate relative to the scale of
    the result; a larger residue raises ValueError because the input cannot be
    the transform of a real tensor.  A zero spectrum passes.
    """
    d = np.asarray(d, dtype=complex)
    if d.ndim != 3:
        raise ValueError(f"expected a third-order spectrum, got {d.ndim} axes")
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
    """``np.linalg.svd``, stacked over leading axes; failure is SvdConvergenceError."""
    try:
        return np.linalg.svd(d, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from None


def _normalize_phases(u, sigma, v):
    """Make the first significant entry of each left column real nonnegative.

    Compensating phases go into the paired right column so the product
    u @ diag(sigma) @ v^H is unchanged.  Real factors get signs only, so
    they stay exactly real.
    """
    cols = np.arange(u.shape[1])
    lead = u[(np.abs(u) > 1e-8).argmax(axis=0), cols]
    phase_conj = lead.conj() / np.abs(lead)
    k = sigma.shape[0]
    u = u * phase_conj
    v[:, :k] *= phase_conj[:k]
    return u, v


def complex_svd(d):
    """Full SVD of a complex matrix with deterministic factors.

    LAPACK's SVD, with the real driver when the imaginary part is all zero so
    that exactly real input yields exactly real factors.  Singular values are
    non-increasing and each left column's first significant entry is made
    real nonnegative.
    """
    d = np.asarray(d, dtype=complex)
    if d.ndim != 2:
        raise ValueError(f"expected a matrix, got {d.ndim} axes")
    if d.size and not np.isfinite(d).all():
        raise ValueError("matrix entries must be finite")
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


def _from_half(stack, p):
    """Real (m, n, p) tensor whose spectrum has slices 0..p//2 equal to `stack`.

    The other slices are the conjugate mirror, and the imaginary part of the
    self-paired slices is ignored, so the result is real by construction.
    """
    return np.fft.irfft(stack, n=p, axis=0).transpose(1, 2, 0)
