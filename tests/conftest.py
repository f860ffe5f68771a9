import types

import numpy as np
import pytest

from tsvdkit import spectral


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def use_route(monkeypatch):
    """A function that puts every kernel on one route for the rest of the test:
    "direct" (numpy's gufuncs) or "public" (np.fft and np.linalg)."""
    spectral._kernels()  # the direct kernels use the module the first-use probe imports
    routes = {"direct": spectral._DIRECT, "public": spectral._PUBLIC}
    return lambda route: monkeypatch.setattr(spectral, "_route", routes[route])


@pytest.fixture(params=["direct", "public"])
def kernel_route(request, use_route):
    """Run the test once on each kernel route."""
    use_route(request.param)


@pytest.fixture
def svd_fails(monkeypatch, use_route):
    """Make LAPACK's SVD fail on both kernel routes; returns `use_route`.

    The direct route's gufuncs raise the invalid floating-point flag, as a
    failing LAPACK call does, and np.linalg.svd raises LinAlgError.
    """
    def flag_invalid(*args, **kwargs):
        return np.sqrt(-np.ones(1))

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(spectral, "_umath_linalg",
                        types.SimpleNamespace(svd_f=flag_invalid, svd=flag_invalid))
    monkeypatch.setattr(np.linalg, "svd", fail)
    return use_route
