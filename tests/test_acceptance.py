"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; tolerances and trial counts are fixed here, not tunable.
"""

import time

import numpy as np

from tsvdkit import (
    bcirc,
    bcirc_inverse,
    best_trank_one,
    fold,
    frobenius_norm,
    identity_tensor,
    is_f_diagonal,
    is_orthogonal,
    km_mapping,
    random_orthogonal,
    sigma1,
    singular_values,
    tprod,
    tprod_direct,
    transpose,
    tsvd,
    unfold,
)

from tensor_cases import fdiagonal_fixture, fdiagonal_fixture_image


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def random_dims(rng, max_m=8, max_n=8, max_p=6):
    return (
        int(rng.integers(1, max_m + 1)),
        int(rng.integers(1, max_n + 1)),
        int(rng.integers(1, max_p + 1)),
    )


def test_criterion_1_worked_example():
    start = time.perf_counter()
    s = km_mapping(fdiagonal_fixture())
    elapsed = time.perf_counter() - start
    err = np.abs(s - fdiagonal_fixture_image()).max()
    ok = err <= 1e-9 and elapsed < 1.0
    report(1, ok, f"max entry error {err:.2e}, {elapsed:.3f}s")


def test_criterion_2_rank_non_subadditivity():
    entries = [((1, 1, 0), 6.0), ((0, 0, 1), 5.0), ((2, 2, 1), 9.0), ((2, 2, 2), 9.0)]
    parts = []
    for (i, j, k), value in entries:
        part = np.zeros((3, 3, 3))
        part[i, j, k] = value
        parts.append(part)
    part_ranks = [singular_values(part).t_rank for part in parts]
    total = singular_values(sum(parts))
    ok = part_ranks == [1, 1, 1, 1] and total.t_rank == 5 and total.tubal_rank == 3
    report(2, ok, f"part ranks {part_ranks}, sum t_rank {total.t_rank}, "
                  f"tubal rank {total.tubal_rank}")


def test_criterion_3_orthogonal_invariance():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        m, n, p = random_dims(rng)
        a = rng.standard_normal((m, n, p))
        y = random_orthogonal(m, p, int(rng.integers(2**63)))
        z = random_orthogonal(n, p, int(rng.integers(2**63)))
        b = tprod(y, tprod(a, transpose(z)))
        sa = km_mapping(a)
        gap = frobenius_norm(km_mapping(b) - sa) / (1.0 + frobenius_norm(sa))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(3, ok, f"worst relative gap {worst:.2e}, {elapsed:.1f}s for 200 tensors")


def test_criterion_4_tsvd_reconstruction():
    rng = np.random.default_rng(4)
    worst_rec, all_checks = 0.0, True
    for trial in range(200):
        m, n, p = random_dims(rng)
        a = rng.standard_normal((m, n, p))
        fac = tsvd(a)
        rec = frobenius_norm(a - tprod(fac.u, tprod(fac.s, transpose(fac.v))))
        worst_rec = max(worst_rec, rec / frobenius_norm(a))
        all_checks = all_checks and is_orthogonal(fac.u, tol=1e-9)
        all_checks = all_checks and is_orthogonal(fac.v, tol=1e-9)
        all_checks = all_checks and is_f_diagonal(
            fac.s, tol=1e-10 * frobenius_norm(fac.s)
        )
        r = min(m, n)
        energy = (fac.s[np.arange(r), np.arange(r), :] ** 2).sum(axis=1)
        all_checks = all_checks and bool(
            np.all(np.diff(energy) <= 1e-12 * (1.0 + energy.max()))
        )
    ok = worst_rec <= 1e-9 and all_checks
    report(4, ok, f"worst relative residual {worst_rec:.2e}, "
                  f"factor checks {'ok' if all_checks else 'violated'}")


def test_criterion_5_sigma1_dominates_entries():
    rng = np.random.default_rng(5)
    worst_slack, ok = -np.inf, True
    for trial in range(1000):
        m, n, p = random_dims(rng)
        a = rng.standard_normal((m, n, p))
        slack = np.abs(a).max() - sigma1(a)
        worst_slack = max(worst_slack, slack)
        ok = ok and slack <= 1e-10
    worst_eq = 0.0
    for trial in range(50):
        m, n, p = random_dims(rng)
        a = np.zeros((m, n, p))
        idx = tuple(rng.integers(0, a.shape))
        a[idx] = float(rng.standard_normal()) or 1.0
        worst_eq = max(worst_eq, abs(sigma1(a) - abs(a[idx])))
        ok = ok and worst_eq <= 1e-10
    report(5, ok, f"worst bound slack {worst_slack:.2e}, "
                  f"worst single-entry gap {worst_eq:.2e}")


def test_criterion_6_best_rank_one_optimality():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    ok = True
    worst_energy_gap, beaten = 0.0, 0
    for trial in range(50):
        m, n, p = random_dims(rng)
        a = rng.standard_normal((m, n, p))
        a1 = best_trank_one(a)
        residual = frobenius_norm(a - a1)
        norm2 = frobenius_norm(a) ** 2
        energy_gap = abs(residual**2 - (norm2 - sigma1(a) ** 2)) / (1.0 + norm2)
        worst_energy_gap = max(worst_energy_gap, energy_gap)
        ok = ok and energy_gap <= 1e-8
        scale = singular_values(a).singular_values[0]
        for _ in range(1000):
            q1 = random_orthogonal(m, p, int(rng.integers(2**63)))
            q2 = random_orthogonal(n, p, int(rng.integers(2**63)))
            d = np.zeros((m, n, p))
            d[0, 0, 0] = scale * (2.0 * rng.random() - 0.5)
            competitor = tprod(q1, tprod(d, transpose(q2)))
            if frobenius_norm(a - competitor) < residual:
                beaten += 1
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(6, ok, f"worst energy-identity gap {worst_energy_gap:.2e}, "
                  f"beaten by {beaten}/50000 competitors, {elapsed:.1f}s")


def test_criterion_7_sigma1_subadditive():
    rng = np.random.default_rng(7)
    worst = -np.inf
    for trial in range(500):
        m, n, p = random_dims(rng, max_m=6, max_n=6, max_p=5)
        x = rng.standard_normal((m, n, p))
        y = rng.standard_normal((m, n, p))
        excess = sigma1(x + y) - (sigma1(x) + sigma1(y))
        worst = max(worst, excess)
    ok = worst <= 1e-9
    report(7, ok, f"worst subadditivity excess {worst:.2e}")


def test_criterion_8_transform_path_matches_block_circulant():
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(200):
        s = int(rng.integers(1, 9))
        p = int(rng.integers(1, 7))
        a = rng.standard_normal((int(rng.integers(1, 9)), s, p))
        b = rng.standard_normal((s, int(rng.integers(1, 9)), p))
        fast = tprod(a, b)
        direct = tprod_direct(a, b)
        worst = max(
            worst, frobenius_norm(fast - direct) / max(frobenius_norm(direct), 1e-300)
        )
    exact = True
    for trial in range(50):
        m, n, p = random_dims(rng)
        a = rng.standard_normal((m, n, p))
        exact = exact and np.array_equal(fold(unfold(a), p), a)
        exact = exact and np.array_equal(bcirc_inverse(bcirc(a), m, n, p), a)
        exact = exact and np.array_equal(transpose(transpose(a)), a)
        exact = exact and np.array_equal(bcirc(transpose(a)), bcirc(a).T)
        exact = exact and np.array_equal(bcirc(identity_tensor(n, p)), np.eye(n * p))
    ok = worst <= 1e-10 and exact
    report(8, ok, f"worst relative path deviation {worst:.2e}, "
                  f"permutation identities {'exact' if exact else 'violated'}")


def test_criterion_9_energy_identity():
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(200):
        m, n, p = random_dims(rng)
        a = rng.standard_normal((m, n, p))
        values = singular_values(a).singular_values
        norm2 = frobenius_norm(a) ** 2
        worst = max(worst, abs((values**2).sum() - norm2) / norm2)
    ok = worst <= 1e-9
    report(9, ok, f"worst relative energy mismatch {worst:.2e}")
