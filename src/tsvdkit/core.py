"""Dense third-order tensor primitives and the block-circulant correspondence.

A tensor of shape ``(m, n, p)`` is stored as a real numpy array whose k-th
frontal slice is ``a[:, :, k]``.  Everything here is a pure index permutation
or an elementwise reduction; no function mutates its input.
"""

import math

import numpy as np

__all__ = [
    "as_tensor",
    "frobenius_norm",
    "unfold",
    "fold",
    "bcirc",
    "bcirc_inverse",
    "transpose",
    "identity_tensor",
    "is_f_diagonal",
]


_ORDERS = {2: "", 3: "third-order "}


def _array(x, ndim, what, dtype=float):
    """`x` as a float64 (or, with ``dtype=complex``, complex128) array with
    `ndim` axes and finite entries; anything else raises ValueError.

    Where real entries are expected, complex input raises ValueError rather
    than a ComplexWarning, including complex Python numbers in an object
    array, which numpy refuses to convert with a TypeError.  `what` names the
    array in the messages.
    """
    arr = np.asarray(x)
    if dtype is float and arr.dtype.kind == "c":
        raise ValueError(f"expected real entries, got complex dtype {arr.dtype}")
    try:
        arr = arr.astype(dtype, copy=False)
    except TypeError as exc:
        kind = "real" if dtype is float else "numeric"
        raise ValueError(f"expected {kind} entries: {exc}") from None
    if arr.ndim != ndim:
        raise ValueError(f"expected a {_ORDERS[ndim]}{what}, got {arr.ndim} axes")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on small arrays
        raise ValueError(f"{what} entries must be finite (no NaN/Inf)")
    return arr


def _finite(x, what):
    """`x`, a float or an array, if it is finite.  Otherwise a result left
    float64's range although the input was finite (`_array` refuses a non-finite
    input), and ArithmeticError names `what`: the float or the largest magnitude.
    """
    big = x if isinstance(x, float) else float(np.abs(x).max())
    if not math.isfinite(big):
        raise ArithmeticError(f"{what} is {big}: the result overflowed float64; rescale the input")
    return x


def as_tensor(a):
    """Validate `a` as a dense real third-order tensor and return it as float64.

    Raises ValueError if `a` is complex, is not three-dimensional, has an
    empty axis, or contains non-finite entries.
    """
    arr = _array(a, 3, "tensor")
    if not arr.size:
        raise ValueError(f"tensor axes must be positive, got shape {arr.shape}")
    return arr


def _check_tol(tol):
    """Raise ValueError unless `tol` is a number >= 0 (NaN fails the test)."""
    if not tol >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")


def _norm2(x, axis=None):
    """Euclidean norm over `axis`, safe across the float64 range.

    Entries are first divided by a power of two within a factor 2 of the
    largest magnitude (the scaling of BLAS nrm2; Blue, ACM TOMS 1978), so no
    square over- or underflows.  The division is exact, so in range the result
    rounds exactly as the unscaled sum of squares does.
    """
    if axis is None:
        big = float(np.maximum.reduce(np.abs(x), axis=None))
        scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
        y = (x / scale).ravel("K")  # what np.linalg.norm runs for real input
        return scale * math.sqrt(y.dot(y))
    big = np.abs(x).max(axis=axis, keepdims=True)
    scale = np.ldexp(1.0, np.frexp(big)[1] - 1)
    return np.squeeze(scale, axis) * np.linalg.norm(x / scale, axis=axis)


def frobenius_norm(a):
    """Square root of the sum of squared entries, safe across the float64 range.

    A norm too large for float64 raises ArithmeticError rather than return inf.
    """
    return _finite(_norm2(as_tensor(a)), "the Frobenius norm")


def unfold(a):
    """Stack the frontal slices vertically into an (m*p, n) matrix."""
    a = as_tensor(a)
    m, n, p = a.shape
    return a.transpose(2, 0, 1).reshape(m * p, n).copy()


def fold(mat, p):
    """Inverse of :func:`unfold`: reassemble p stacked slices into a tensor.

    `mat` must be a real matrix with finite entries, else ValueError.
    """
    mat = _array(mat, 2, "matrix")
    rows, n = mat.shape
    if p < 1 or rows % p != 0:
        raise ValueError(f"cannot fold {rows} rows into {p} frontal slices")
    m = rows // p
    return mat.reshape(p, m, n).transpose(1, 2, 0).copy()


def bcirc(a):
    """Block circulant matrix of `a`: block (r, c) is frontal slice (r - c) mod p.

    The first block column is ``unfold(a)``; each later block column is the
    previous one cyclically shifted down by one block.  Materializes an
    (m*p, n*p) matrix, so this is meant for verification and small inputs.
    """
    a = as_tensor(a)
    m, n, p = a.shape
    shift = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    return a[:, :, shift].transpose(2, 0, 3, 1).reshape(m * p, n * p)


def bcirc_inverse(mat, m, n, p, tol=1e-9):
    """Recover the tensor whose block circulant matrix is `mat`.

    `mat` must be a real (m*p, n*p) matrix with finite entries and circulant
    block structure; any block that deviates from the first block column by
    more than `tol` times the largest entry magnitude (a relative gate, per
    entry) raises ValueError; a zero matrix passes.  The extraction itself is
    a pure slice, so ``bcirc_inverse(bcirc(a), ...)`` returns `a` exactly.
    """
    _check_tol(tol)
    mat = _array(mat, 2, "matrix")
    if any(d < 1 for d in (m, n, p)):
        raise ValueError(f"tensor axes must be positive, got ({m}, {n}, {p})")
    if mat.shape != (m * p, n * p):
        raise ValueError(
            f"expected a {m * p}x{n * p} matrix for dims ({m}, {n}, {p}), "
            f"got {mat.shape[0]}x{mat.shape[1]}"
        )
    a = fold(mat[:, :n], p)
    deviation = np.abs(bcirc(a) - mat).max()
    if deviation > tol * np.abs(mat).max():
        raise ValueError(
            f"matrix is not block circulant: max block deviation {deviation:.3e} "
            f"exceeds tolerance {tol:.3e} * max magnitude"
        )
    return a


def transpose(a):
    """Tensor transpose: slice 1 transposed, slices 2..p reversed and transposed.

    This is the unique permutation satisfying
    ``bcirc(transpose(a)) == bcirc(a).T`` entry for entry.
    """
    at = as_tensor(a).transpose(1, 0, 2)
    return np.concatenate((at[:, :, :1], at[:, :, :0:-1]), axis=2)


def identity_tensor(n, p):
    """Tensor whose first frontal slice is the n-by-n identity, rest zero."""
    if n < 1 or p < 1:
        raise ValueError(f"identity_tensor needs n, p >= 1, got ({n}, {p})")
    t = np.zeros((n, n, p))
    t[:, :, 0] = np.eye(n)
    return t


def is_f_diagonal(a, tol=0.0):
    """True iff every frontal slice is diagonal (off-diagonals <= tol)."""
    _check_tol(tol)
    a = as_tensor(a)
    m, n, _ = a.shape
    off = ~np.eye(m, n, dtype=bool)
    return bool(np.abs(a[off]).max() <= tol) if off.any() else True
