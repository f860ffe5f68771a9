"""T-product algebra and transform-domain SVD for dense third-order tensors.

Tensors are real numpy arrays of shape ``(m, n, p)`` whose k-th frontal slice
is ``a[:, :, k]``.  The package provides the block-circulant correspondence,
the T-product and its inverse, the Kilmer-Martin mapping to a real f-diagonal
tensor, the full T-SVD, singular values and both rank notions derived from
them, optimal low-rank truncation, and a plain-text tensor file format shared
with the ``tsvdkit`` command-line tool.
"""

from . import core, fileio, kmsvd, spectral, tprod
from .core import *
from .fileio import *
from .kmsvd import *
from .spectral import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += tprod.__all__
__all__ += spectral.__all__
__all__ += kmsvd.__all__
__all__ += fileio.__all__

from .tprod import *  # last: this rebinds ``tprod`` from the module to the function
