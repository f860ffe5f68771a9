"""Cost contracts: the kernel calls an op makes and its peak memory.

Both are exact for a fixed numpy build, whatever the host's speed or BLAS
thread count, so tier-1 can hold them where it cannot hold timings.  Calls
are counted through a copy of the kernel route whose entries tally each call;
peaks are ``tracemalloc``'s, which sees numpy's allocations but not LAPACK's
or OpenBLAS's workspace.  The bounds are upper bounds: a change that lowers a
cost may tighten them.
"""

import collections
import tracemalloc

import numpy as np

from tsvdkit import best_trank_one, spectral, truncate_trank, tsvd


def count_calls(monkeypatch):
    """A Counter that tallies every kernel call on the current route, the SVD
    by the factors it returns ("svd full", "svd reduced" or "svd values")."""
    counts = collections.Counter()

    def counted(name, kernel):
        def call(*args):
            if name == "svd":
                _, uv, full = args
                counts["svd " + ("values" if not uv else "full" if full else "reduced")] += 1
            else:
                counts[name] += 1
            return kernel(*args)
        return call

    route = spectral._kernels()
    monkeypatch.setattr(spectral, "_route", spectral._Kernels(
        *(counted(name, kernel) for name, kernel in zip(route._fields, route))))
    return counts


def peak_bytes(call, *args):
    """``tracemalloc``'s peak while `call(*args)` runs."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBestTrankOne:
    TALL = (512, 16, 16)

    def test_kernel_calls(self, monkeypatch, kernel_route):
        # One forward transform, one reduced SVD, and the inverse transforms of
        # the top singular value's tube and of the rank-one product.
        counts = count_calls(monkeypatch)
        best_trank_one(np.random.default_rng(0).standard_normal(self.TALL))
        assert counts == {"rfft": 1, "svd reduced": 1, "irfft": 2}

    def test_peak_is_a_few_inputs(self, kernel_route):
        # The full factors peaked at about 38 inputs' bytes: every m x m U.
        a = np.random.default_rng(0).standard_normal(self.TALL)
        best_trank_one(a)
        assert peak_bytes(best_trank_one, a) <= 4 * a.nbytes

    def test_matches_truncated_tsvd_on_tall_and_wide(self, kernel_route):
        for shape in [(64, 4, 6), (4, 64, 5)]:
            a = np.random.default_rng(1).standard_normal(shape)
            want = truncate_trank(tsvd(a), 1)
            assert np.abs(best_trank_one(a) - want).max() <= 1e-12 * np.abs(want).max()
