"""T-product algebra and transform-domain SVD for dense third-order tensors.

Tensors are real numpy arrays of shape ``(m, n, p)`` whose k-th frontal slice
is ``a[:, :, k]``.  The package provides the block-circulant correspondence,
the T-product and its inverse, the Kilmer-Martin mapping to a real f-diagonal
tensor, the full T-SVD, singular values and both rank notions derived from
them, optimal low-rank truncation, and a plain-text tensor file format shared
with the ``tsvdkit`` command-line tool.
"""

from .core import (
    as_tensor,
    bcirc,
    bcirc_inverse,
    fold,
    frobenius_norm,
    identity_tensor,
    is_f_diagonal,
    transpose,
    unfold,
)
from .fileio import TensorFormatError, read_tensor, write_tensor
from .kmsvd import (
    RankReport,
    TSvd,
    best_trank_one,
    default_rank_threshold,
    km_equal,
    km_mapping,
    sigma1,
    sigma1_upper_bound_check,
    singular_values,
    truncate_trank,
    tsvd,
)
from .spectral import (
    SliceSvd,
    SvdConvergenceError,
    complex_svd,
    dft_mode3,
    idft_mode3,
)
from .tprod import (
    SingularSliceError,
    is_orthogonal,
    random_orthogonal,
    tinverse,
    tprod,
    tprod_direct,
)

__version__ = "0.1.0"

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
    "tprod",
    "tprod_direct",
    "is_orthogonal",
    "random_orthogonal",
    "tinverse",
    "SingularSliceError",
    "dft_mode3",
    "idft_mode3",
    "complex_svd",
    "SliceSvd",
    "SvdConvergenceError",
    "km_mapping",
    "tsvd",
    "TSvd",
    "singular_values",
    "RankReport",
    "truncate_trank",
    "best_trank_one",
    "sigma1",
    "sigma1_upper_bound_check",
    "km_equal",
    "default_rank_threshold",
    "read_tensor",
    "write_tensor",
    "TensorFormatError",
    "__version__",
]
