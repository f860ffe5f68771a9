"""Command-line front-end: ``tsvdkit <tsvd|rank|approx|verify|tprod>``.

Each ``cmd_*`` subcommand only computes, on the tensors of the input files
its parser names in ``inputs``.  It returns the tensors to write, keyed by
path, the report as ``(key, value)`` pairs, and the exit code.  ``_run``
alone reads the inputs, writes the files and prints the report, after the
subcommand has returned.  A run that fails therefore prints no report and
leaves every output that is a regular file as it was, as those are replaced
atomically; a FIFO, a device or stdout's file, which cannot be, is written
in place.

Reports are printed one ``key = value`` pair per line with 17 significant
digits.  Exit codes: 0 success, 2 usage or file-format violation, 3 numerical
failure (including failed verification properties and outputs that overflow
float64).
"""

import argparse
import contextlib
import os
import stat
import sys

import numpy as np

from .core import _finite, frobenius_norm, transpose
from .fileio import read_tensor, write_tensor
from .kmsvd import (SIGMA1_BOUND_SLACK, _images_equal, _km_diag, sigma1,
                    sigma1_upper_bound_check, singular_values, truncate_trank, tsvd)
from .tprod import random_orthogonal, tprod

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

RECONSTRUCTION_TOL = 1e-9
INVARIANCE_TOL = 1e-8
SUBADDITIVITY_TOL = 1e-9


def _fmt(x):
    return f"{float(x):.17g}"


def _fmt_list(values):
    return "[" + ", ".join(_fmt(x) for x in values) + "]"


def _default_prefix(path):
    stem, ext = os.path.splitext(path)
    return stem if ext else path


def _finite_outputs(outputs):
    """`outputs`, a {path: tensor} dict, once every entry is finite.

    An entry beyond the float64 range could be neither reported on nor read
    back, so the run fails with ArithmeticError before it writes anything.
    """
    for path, tensor in outputs.items():
        _finite(tensor, f"the largest magnitude in {path}")
    return outputs


def _residual(a, fac):
    """||a - u * s * transpose(v)||_F for the T-SVD `fac` of `a`."""
    return frobenius_norm(a - tprod(fac.u, tprod(fac.s, transpose(fac.v))))


def cmd_tsvd(args, a):
    fac = tsvd(a)
    prefix = args.out if args.out is not None else _default_prefix(args.input)
    outputs = _finite_outputs({prefix + ".u": fac.u, prefix + ".s": fac.s, prefix + ".v": fac.v})
    norm_a = frobenius_norm(a)
    residual = _residual(a, fac)
    report = [
        ("input", args.input),
        ("dims", list(a.shape)),
        ("u", prefix + ".u"),
        ("s", prefix + ".s"),
        ("v", prefix + ".v"),
        ("relative_residual", _fmt(residual / norm_a if norm_a else 0.0)),
    ]
    return outputs, report, EXIT_OK


def cmd_rank(args, a):
    report = singular_values(a, tol=args.tol)
    return {}, [
        ("sigma", _fmt_list(report.singular_values)),
        ("lambda", _fmt_list(report.t_singular_values)),
        ("t_rank", report.t_rank),
        ("tubal_rank", report.tubal_rank),
        ("tol", _fmt(report.threshold)),
    ], EXIT_OK


def cmd_approx(args, a):
    approx = truncate_trank(tsvd(a), args.rank)
    outputs = _finite_outputs({args.out: approx})
    report = [
        ("input", args.input),
        ("out", args.out),
        ("rank", args.rank),
        ("mode", args.mode),
        ("residual", _fmt(frobenius_norm(a - approx))),
    ]
    return outputs, report, EXIT_OK


def _verify_checks(a, seed, trials):
    """Yield (name, tolerance, passed) for each property check."""
    m, n, p = a.shape
    norm_a = frobenius_norm(a)

    recon = _residual(a, tsvd(a))
    yield ("reconstruction", RECONSTRUCTION_TOL, recon <= RECONSTRUCTION_TOL * norm_a)

    yield ("sigma1_bound", SIGMA1_BOUND_SLACK, sigma1_upper_bound_check(a))

    if trials > 0:
        rng = np.random.default_rng(seed)
        ok = True
        image = _km_diag(a)  # km_equal(a, b)'s S(a), taken once for every trial
        for _ in range(trials):
            y = random_orthogonal(m, p, int(rng.integers(2**63)))
            z = random_orthogonal(n, p, int(rng.integers(2**63)))
            b = tprod(y, tprod(a, transpose(z)))
            ok = ok and _images_equal(image, _km_diag(b), INVARIANCE_TOL)
        yield ("orthogonal_invariance", INVARIANCE_TOL, ok)

        # Partners share a's Frobenius norm, so neither term of a + partner
        # rounds the other away at any scale; a zero `a` gets zero partners.
        s1 = sigma1(a)
        ok = True
        for _ in range(trials):
            partner = rng.standard_normal(a.shape)
            partner *= norm_a / frobenius_norm(partner)
            ok = ok and sigma1(a + partner) <= (s1 + sigma1(partner)) * (1 + SUBADDITIVITY_TOL)
        yield ("subadditivity", SUBADDITIVITY_TOL, ok)


def cmd_verify(args, a):
    for flag, value in (("--trials", args.trials), ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    report = [("input", args.input), ("seed", args.seed), ("trials", args.trials)]
    failed = 0
    for name, tol, passed in _verify_checks(a, args.seed, args.trials):
        report += [(f"{name}_tol", _fmt(tol)), (name, "pass" if passed else "fail")]
        failed += not passed
    return {}, report, EXIT_NUMERICAL if failed else EXIT_OK


def cmd_tprod(args, a, b):
    product = tprod(a, b)
    outputs = _finite_outputs({args.out: product})
    report = [
        ("out", args.out),
        ("dims", list(product.shape)),
        ("norm", _fmt(frobenius_norm(product))),
    ]
    return outputs, report, EXIT_OK


def _run(args):
    """Read the input files of the subcommand `args.func`, run it on their
    tensors, write its outputs and print its report.

    An output whose target is a regular file, or none yet, is written to a
    temporary file beside it, and those targets are replaced only once every
    write has succeeded and no target is a directory; so a run that fails, in
    the subcommand or in a write, leaves every such target as it was and
    prints no report.  A target that exists and is no regular file, such as a
    FIFO or a device, cannot be replaced without losing what it is, nor can
    stdout's file, whatever it is, without losing the report, which fd 1 would
    print to the replaced file: such a target is written in place, stdout's
    through fd 1 so that the report follows the tensor, after every temporary
    file and before any replace.
    """
    tensors = [read_tensor(getattr(args, name)) for name in args.inputs]
    outputs, report, code = args.func(args, *tensors)
    try:
        stdout = os.fstat(1)
    except OSError:  # fd 1 closed: no target is stdout's file
        stdout = None
    temps, in_place = {}, {}
    try:
        for path, tensor in outputs.items():
            try:
                st = os.stat(path)  # of what a symlink names
            except OSError:  # no such file yet; a fault shows in the temporary's write
                st = None
            if st is not None and stdout is not None and os.path.samestat(st, stdout):
                in_place[1] = tensor  # fd 1, which a path names
            elif st is None or stat.S_ISREG(st.st_mode):
                target = os.path.realpath(path)  # a symlink is written through, as open() does
                temps[target] = temp = f"{target}.{os.getpid()}.tmp"
                try:
                    write_tensor(temp, tensor)
                except OSError as exc:
                    if exc.filename is not None:  # the temporary's name, which the user never gave
                        exc.filename = path
                    raise
            elif stat.S_ISDIR(st.st_mode):
                raise IsADirectoryError(f"{path} is a directory")
            else:
                in_place[path] = tensor
        for target, tensor in in_place.items():
            write_tensor(os.dup(1) if target == 1 else target, tensor)
        for target, temp in temps.items():
            os.replace(temp, target)
    finally:
        for temp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
    for key, value in report:
        print(f"{key} = {value}")
    return code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tsvdkit",
        description="T-product algebra and transform-domain SVD for tensor files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tsvd = sub.add_parser("tsvd", help="factor a tensor into U, S, V files")
    p_tsvd.add_argument("input", help="tensor file to factor")
    p_tsvd.add_argument("--out", help="output prefix (default: input path stem)")
    p_tsvd.set_defaults(func=cmd_tsvd, inputs=("input",))

    p_rank = sub.add_parser("rank", help="report singular values and ranks")
    p_rank.add_argument("input", help="tensor file to analyze")
    p_rank.add_argument("--tol", type=float, default=None,
                        help="nonzero threshold (default: relative machine gate)")
    p_rank.set_defaults(func=cmd_rank, inputs=("input",))

    p_approx = sub.add_parser("approx", help="write a low-rank approximation")
    p_approx.add_argument("input", help="tensor file to approximate")
    p_approx.add_argument("--rank", type=int, required=True,
                          help="number of singular values to keep")
    p_approx.add_argument("--mode", choices=["trank"], default="trank",
                          help="truncation mode")
    p_approx.add_argument("--out", required=True, help="output tensor file")
    p_approx.set_defaults(func=cmd_approx, inputs=("input",))

    p_verify = sub.add_parser("verify", help="run the invariant suite on a tensor")
    p_verify.add_argument("input", help="tensor file to verify")
    p_verify.add_argument("--seed", type=int, default=0, help="randomness seed")
    p_verify.add_argument("--trials", type=int, default=20,
                          help="randomized trials per property (0 = deterministic only)")
    p_verify.set_defaults(func=cmd_verify, inputs=("input",))

    p_prod = sub.add_parser("tprod", help="t-product of two tensor files")
    p_prod.add_argument("left", help="left tensor file")
    p_prod.add_argument("right", help="right tensor file")
    p_prod.add_argument("--out", required=True, help="output tensor file")
    p_prod.set_defaults(func=cmd_tprod, inputs=("left", "right"))

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # A failure is reported once, below, not also by numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return _run(args)
    except (OSError, ValueError) as exc:
        print(f"tsvdkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"tsvdkit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
