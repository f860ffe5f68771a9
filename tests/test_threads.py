"""Reproducibility across BLAS thread counts, as README states it: values (the
image, singular values, ranks, `tprod`) agree to rounding whatever the thread
count, while `tsvd`'s factors and seeded `random_orthogonal` draws repeat byte
for byte only for one build and thread count.

Each run is a child process with OPENBLAS_NUM_THREADS set in its environment
alone, as OpenBLAS reads it once, when numpy loads it."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

CHILD = textwrap.dedent("""
    import sys

    import numpy as np

    from tsvdkit import km_mapping, random_orthogonal, singular_values, tprod, tsvd

    a = np.random.default_rng(0).standard_normal((128, 8, 8))
    fac = tsvd(a)
    report = singular_values(a)
    np.savez(sys.argv[1], u=fac.u, s=fac.s, v=fac.v, q=random_orthogonal(128, 8, 1),
             image=km_mapping(a), sigma=report.singular_values,
             lam=report.t_singular_values, ranks=[report.t_rank, report.tubal_rank],
             product=tprod(a, a.transpose(1, 0, 2)))
""")

FACTORS = ("u", "v", "q")
VALUES = ("s", "image", "sigma", "lam", "ranks", "product")


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_at(threads, path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", CHILD, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with np.load(path) as outputs:
        return dict(outputs)


@pytest.mark.skipif(_cpus() < 2, reason="needs 2 processors to run BLAS at 2 threads")
def test_values_agree_across_thread_counts_and_factors_repeat_at_one(tmp_path):
    one = run_at(1, tmp_path / "one.npz")
    two = run_at(2, tmp_path / "two.npz")
    again = run_at(2, tmp_path / "again.npz")
    for name in FACTORS + VALUES:
        assert two[name].tobytes() == again[name].tobytes(), name
    for name in VALUES:
        assert np.linalg.norm(one[name] - two[name]) <= 1e-13 * np.linalg.norm(one[name]), name
