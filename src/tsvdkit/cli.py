"""Command-line front-end: ``tsvdkit <tsvd|rank|approx|verify|tprod>``.

Reports are printed one ``key = value`` pair per line with 17 significant
digits.  Exit codes: 0 success, 2 usage or file-format violation, 3 numerical
failure (including failed verification properties).
"""

import argparse
import os
import sys

import numpy as np

from .core import frobenius_norm, transpose
from .fileio import TensorFormatError, read_tensor, write_tensor
from .kmsvd import km_equal, km_mapping, sigma1, singular_values, truncate_trank, tsvd
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


def _print_kv(key, value):
    print(f"{key} = {value}")


def _default_prefix(path):
    stem, ext = os.path.splitext(path)
    return stem if ext else path


def cmd_tsvd(args):
    a = read_tensor(args.input)
    fac = tsvd(a)
    prefix = args.out if args.out is not None else _default_prefix(args.input)
    for suffix, tensor in ((".u", fac.u), (".s", fac.s), (".v", fac.v)):
        write_tensor(prefix + suffix, tensor)
    norm_a = frobenius_norm(a)
    residual = frobenius_norm(a - tprod(fac.u, tprod(fac.s, transpose(fac.v))))
    _print_kv("input", args.input)
    _print_kv("dims", list(a.shape))
    _print_kv("u", prefix + ".u")
    _print_kv("s", prefix + ".s")
    _print_kv("v", prefix + ".v")
    _print_kv("relative_residual", _fmt(residual / norm_a if norm_a else 0.0))
    return EXIT_OK


def cmd_rank(args):
    a = read_tensor(args.input)
    report = singular_values(a, tol=args.tol)
    _print_kv("sigma", _fmt_list(report.singular_values))
    _print_kv("lambda", _fmt_list(report.t_singular_values))
    _print_kv("t_rank", report.t_rank)
    _print_kv("tubal_rank", report.tubal_rank)
    _print_kv("tol", _fmt(report.threshold))
    return EXIT_OK


def cmd_approx(args):
    a = read_tensor(args.input)
    approx = truncate_trank(tsvd(a), args.rank)
    write_tensor(args.out, approx)
    _print_kv("input", args.input)
    _print_kv("out", args.out)
    _print_kv("rank", args.rank)
    _print_kv("mode", args.mode)
    _print_kv("residual", _fmt(frobenius_norm(a - approx)))
    return EXIT_OK


def _verify_checks(a, seed, trials):
    """Yield (name, tolerance, passed) for each property check."""
    m, n, p = a.shape
    norm_a = frobenius_norm(a)

    fac = tsvd(a)
    recon = frobenius_norm(a - tprod(fac.u, tprod(fac.s, transpose(fac.v))))
    yield ("reconstruction", RECONSTRUCTION_TOL, recon <= RECONSTRUCTION_TOL * norm_a)

    s1 = sigma1(a)
    yield ("sigma1_bound", 1e-10, s1 * (1.0 + 1e-10) >= np.abs(a).max())

    if trials > 0:
        rng = np.random.default_rng(seed)
        ok = True
        for _ in range(trials):
            y = random_orthogonal(m, p, int(rng.integers(2**63)))
            z = random_orthogonal(n, p, int(rng.integers(2**63)))
            b = tprod(y, tprod(a, transpose(z)))
            ok = ok and km_equal(a, b, tol=INVARIANCE_TOL)
        yield ("orthogonal_invariance", INVARIANCE_TOL, ok)

        # Partners share a's Frobenius norm, so neither term of a + partner
        # rounds the other away at any scale; a zero `a` gets zero partners.
        ok = True
        for _ in range(trials):
            partner = rng.standard_normal(a.shape)
            partner *= norm_a / frobenius_norm(partner)
            ok = ok and sigma1(a + partner) <= (s1 + sigma1(partner)) * (1 + SUBADDITIVITY_TOL)
        yield ("subadditivity", SUBADDITIVITY_TOL, ok)


def cmd_verify(args):
    a = read_tensor(args.input)
    _print_kv("input", args.input)
    _print_kv("seed", args.seed)
    _print_kv("trials", args.trials)
    failed = 0
    for name, tol, passed in _verify_checks(a, args.seed, args.trials):
        _print_kv(f"{name}_tol", _fmt(tol))
        _print_kv(name, "pass" if passed else "fail")
        failed += not passed
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_tprod(args):
    a = read_tensor(args.left)
    b = read_tensor(args.right)
    product = tprod(a, b)
    write_tensor(args.out, product)
    _print_kv("out", args.out)
    _print_kv("dims", list(product.shape))
    _print_kv("norm", _fmt(frobenius_norm(product)))
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tsvdkit",
        description="T-product algebra and transform-domain SVD for tensor files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tsvd = sub.add_parser("tsvd", help="factor a tensor into U, S, V files")
    p_tsvd.add_argument("input", help="tensor file to factor")
    p_tsvd.add_argument("--out", help="output prefix (default: input path stem)")
    p_tsvd.set_defaults(func=cmd_tsvd)

    p_rank = sub.add_parser("rank", help="report singular values and ranks")
    p_rank.add_argument("input", help="tensor file to analyze")
    p_rank.add_argument("--tol", type=float, default=None,
                        help="nonzero threshold (default: relative machine gate)")
    p_rank.set_defaults(func=cmd_rank)

    p_approx = sub.add_parser("approx", help="write a low-rank approximation")
    p_approx.add_argument("input", help="tensor file to approximate")
    p_approx.add_argument("--rank", type=int, required=True,
                          help="number of singular values to keep")
    p_approx.add_argument("--mode", choices=["trank"], default="trank",
                          help="truncation mode")
    p_approx.add_argument("--out", required=True, help="output tensor file")
    p_approx.set_defaults(func=cmd_approx)

    p_verify = sub.add_parser("verify", help="run the invariant suite on a tensor")
    p_verify.add_argument("input", help="tensor file to verify")
    p_verify.add_argument("--seed", type=int, default=0, help="randomness seed")
    p_verify.add_argument("--trials", type=int, default=20,
                          help="randomized trials per property (0 = deterministic only)")
    p_verify.set_defaults(func=cmd_verify)

    p_prod = sub.add_parser("tprod", help="t-product of two tensor files")
    p_prod.add_argument("left", help="left tensor file")
    p_prod.add_argument("right", help="right tensor file")
    p_prod.add_argument("--out", required=True, help="output tensor file")
    p_prod.set_defaults(func=cmd_tprod)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TensorFormatError, OSError, ValueError) as exc:
        print(f"tsvdkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"tsvdkit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
