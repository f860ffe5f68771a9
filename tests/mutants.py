"""Hand-made mutants of documented gates and constants, and a runner that
checks that the test suite kills each one.

Each mutant is a one-line edit: in `path`, the text `old`, which must occur
exactly once, becomes `new`, which breaks the documented `contract`.  The
runner copies the checkout to a temporary directory, applies one mutant
there, runs the suite with ``-x -q`` but without ``test_mutant_list.py``,
and prints whether the mutant was killed (a test failed) or survived
(every test passed).  It never writes into the checkout.  The unmutated
checkout must pass the suite, or every mutant reads as killed.

    python tests/mutants.py                 # every mutant
    python tests/mutants.py tinverse-gate   # the named ones

The module has no ``test_`` prefix, so the suite does not collect it;
``test_mutant_list.py`` checks that each `old` text still occurs once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

Mutant = namedtuple("Mutant", "name path old new contract")

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    Mutant("phase-lead-threshold", "src/tsvdkit/spectral.py",
           "lead = u[(np.abs(u) > 1e-8).argmax(axis=0), cols]",
           "lead = u[(np.abs(u) > 1e-3).argmax(axis=0), cols]",
           "complex_svd: a left column's first entry of modulus above 1e-8 is real nonnegative"),
    Mutant("rank-threshold-factor-p", "src/tsvdkit/kmsvd.py",
           "return float(np.finfo(float).eps * max(m, n) * p * sigma1)",
           "return float(np.finfo(float).eps * max(m, n) * sigma1)",
           "singular_values: tol defaults to eps * max(m, n) * p * sigma_1"),
    Mutant("tinverse-gate", "src/tsvdkit/tprod.py",
           "singular = np.flatnonzero(sigma[:, -1] <= tol * sigma[:, 0].max())",
           "singular = np.flatnonzero(sigma[:, -1] <= tol * sigma[:, 0].min())",
           "tinverse: a slice is singular at tol times the largest singular value over all slices"),
    Mutant("km-equal-gate", "src/tsvdkit/kmsvd.py",
           "return bool(_norm2(da - db) <= tol * max(na, nb))",
           "return bool(_norm2(da - db) <= tol * min(na, nb))",
           "km_equal: ||S(a) - S(b)||_F <= tol * max(||S(a)||_F, ||S(b)||_F)"),
    Mutant("sigma1-bound-slack", "src/tsvdkit/kmsvd.py",
           "SIGMA1_BOUND_SLACK = 1e-10",
           "SIGMA1_BOUND_SLACK = 1e-3",
           "sigma1_upper_bound_check and verify's sigma1_bound: slack 1e-10"),
    Mutant("idft-residue-gate", "src/tsvdkit/spectral.py",
           "if residue > residue_tol * np.abs(x).max():",
           "if residue > residue_tol * np.abs(x).sum():",
           "idft_mode3: imaginary residue at most residue_tol * max modulus"),
    Mutant("verify-invariance-tol", "src/tsvdkit/cli.py",
           "INVARIANCE_TOL = 1e-8",
           "INVARIANCE_TOL = 1e-2",
           "verify: orthogonal_invariance passes within 1e-8 relative"),
    Mutant("verify-subadditivity-tol", "src/tsvdkit/cli.py",
           "SUBADDITIVITY_TOL = 1e-9",
           "SUBADDITIVITY_TOL = 1e-2",
           "verify: subadditivity passes within a slack of 1e-9 relative"),
    Mutant("truncation-stable-sort", "src/tsvdkit/kmsvd.py",
           'keep = np.argsort(-np.abs(flat), kind="stable")[:s]',
           "keep = np.argsort(-np.abs(flat))[:s]",
           "truncate_trank: ties are broken by slice-then-row position, ascending"),
    Mutant("tubal-rank-strict", "src/tsvdkit/kmsvd.py",
           "tubal_rank=int((lam > tol).sum()),",
           "tubal_rank=int((lam >= tol).sum()),",
           "singular_values: a tube norm counts toward the tubal rank only above tol"),
    Mutant("tprod-spatial-bound", "src/tsvdkit/tprod.py",
           "_SPATIAL_MAX_WORK = 2**15",
           "_SPATIAL_MAX_WORK = 2**13",
           "tprod: products of at most 2**15 multiply-adds take the spatial route"),
]


def apply(mutant, root):
    """Replace the mutant's `old` text, which must occur once, under `root`."""
    path = Path(root, mutant.path)
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} does not occur once in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant):
    """True if the suite, run on a mutated copy of the checkout, fails."""
    with tempfile.TemporaryDirectory(prefix="tsvdkit-mutant-") as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            # test_mutant_list.py fails on any mutated copy: leave it out.
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutant_list.py"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}")
    return proc.returncode == 1


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survivors = 0
    for mutant in chosen:
        killed = run(mutant)
        survivors += not killed
        print(f"{mutant.name}: {'killed' if killed else 'survived'}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
