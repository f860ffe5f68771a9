import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvdkit import (
    best_trank_one,
    frobenius_norm,
    identity_tensor,
    idft_mode3,
    is_f_diagonal,
    is_orthogonal,
    km_equal,
    km_mapping,
    random_orthogonal,
    sigma1,
    sigma1_upper_bound_check,
    singular_values,
    tinverse,
    tprod,
    tprod_direct,
    transpose,
    truncate_trank,
    tsvd,
)
from tsvdkit import kmsvd

from tensor_cases import (fdiagonal_fixture, fdiagonal_fixture_image, overflowing_tensors,
                          random_tensor, same_bits)


def reconstruct(fac):
    return tprod(fac.u, tprod(fac.s, transpose(fac.v)))


def diagonal_tubes(s):
    r = min(s.shape[0], s.shape[1])
    return s[np.arange(r), np.arange(r), :]


def kept_middle(s, count):
    """`s` with all but its `count` largest-magnitude diagonal entries zeroed,
    ties broken by slice, then row: the selection `truncate_trank` documents."""
    m, n, p = s.shape
    r = min(m, n)
    diag = diagonal_tubes(s)
    rows, slices = np.meshgrid(np.arange(r), np.arange(p), indexing="ij")
    rows, slices = rows.ravel(), slices.ravel()
    keep = np.lexsort((rows, slices, -np.abs(diag).ravel()))[:count]
    kept = np.zeros_like(s)
    kept[rows[keep], rows[keep], slices[keep]] = diag[rows[keep], slices[keep]]
    return kept


def assert_close_relative(got, want, rtol):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestKmMapping:
    def test_worked_example(self):
        s = km_mapping(fdiagonal_fixture())
        np.testing.assert_allclose(s, fdiagonal_fixture_image(), atol=1e-9)
        assert is_f_diagonal(s, tol=1e-12)

    def test_single_entry(self, rng):
        for _ in range(5):
            a = np.zeros((4, 3, 5))
            i, j, k = rng.integers(0, [4, 3, 5])
            value = float(rng.standard_normal()) or 1.0
            a[i, j, k] = value
            s = km_mapping(a)
            assert s[0, 0, 0] == pytest.approx(abs(value), rel=1e-12)
            mask = np.ones_like(s, dtype=bool)
            mask[0, 0, 0] = False
            assert np.abs(s[mask]).max() <= 1e-12 * abs(value)

    def test_p_one_reduces_to_matrix_svd(self, rng):
        a = rng.standard_normal((4, 3, 1))
        s = km_mapping(a)
        np.testing.assert_allclose(
            np.diag(s[:, :, 0])[:3], np.linalg.svd(a[:, :, 0], compute_uv=False),
            atol=1e-12,
        )

    def test_first_slice_diagonal_nonnegative(self, rng):
        for _ in range(5):
            s = km_mapping(random_tensor(rng))
            assert diagonal_tubes(s)[:, 0].min() >= 0

    def test_self_dominance(self, rng):
        # the (1, 1, 1) entry dominates every diagonal entry of the image
        for _ in range(10):
            s = km_mapping(random_tensor(rng))
            tubes = diagonal_tubes(s)
            assert s[0, 0, 0] >= np.abs(tubes).max() - 1e-12 * (1 + s[0, 0, 0])

    def test_sigma_multiset_is_fixed_point(self, rng):
        for _ in range(5):
            s = km_mapping(random_tensor(rng))
            s2 = km_mapping(s)
            first = np.sort(np.abs(diagonal_tubes(s)), axis=None)
            second = np.sort(np.abs(diagonal_tubes(s2)), axis=None)
            np.testing.assert_allclose(
                second, first, atol=1e-9 * (1 + first.max())
            )

    def test_off_diagonal_entries_are_exactly_zero(self, rng):
        for _ in range(20):
            a = random_tensor(rng)
            s = km_mapping(a)
            assert is_f_diagonal(s, tol=0.0)
            assert sigma1(a) == s[0, 0, 0]


class TestTsvd:
    def test_reconstruction_random(self, rng):
        a = rng.standard_normal((6, 5, 4))
        fac = tsvd(a)
        assert frobenius_norm(a - reconstruct(fac)) <= 1e-9 * frobenius_norm(a)
        assert is_orthogonal(fac.u, tol=1e-9)
        assert is_orthogonal(fac.v, tol=1e-9)
        assert is_f_diagonal(fac.s, tol=1e-10 * frobenius_norm(fac.s))
        np.testing.assert_allclose(fac.s, km_mapping(a), atol=1e-10)

    def test_tube_energy_ordering(self, rng):
        for _ in range(10):
            fac = tsvd(random_tensor(rng))
            energy = (diagonal_tubes(fac.s) ** 2).sum(axis=1)
            assert np.all(np.diff(energy) <= 1e-9 * (1 + energy.max()))

    def test_forward_construction_oracle(self, rng):
        # assemble a tensor from a known f-diagonal middle factor whose
        # transform has sorted nonnegative symmetric diagonals, then recover it
        m = n = 4
        p = 5
        vals = np.sort(rng.random((min(m, n), p)), axis=0)[::-1]
        vals[:, 1:] = (vals[:, 1:] + vals[:, :0:-1]) / 2.0  # symmetric tubes
        spec = np.zeros((m, n, p), dtype=complex)
        spec[np.arange(m), np.arange(n), :] = vals
        d = idft_mode3(spec)
        q1 = random_orthogonal(m, p, 31)
        q2 = random_orthogonal(n, p, 32)
        a = tprod(q1, tprod(d, transpose(q2)))
        np.testing.assert_allclose(tsvd(a).s, km_mapping(d), atol=1e-8)
        np.testing.assert_allclose(km_mapping(d), d, atol=1e-8)

    def test_zero_tensor(self):
        fac = tsvd(np.zeros((3, 4, 2)))
        assert np.array_equal(fac.s, np.zeros((3, 4, 2)))
        assert is_orthogonal(fac.u, tol=1e-9)
        assert is_orthogonal(fac.v, tol=1e-9)


class TestSingularValues:
    def test_worked_example_report(self):
        report = singular_values(fdiagonal_fixture())
        np.testing.assert_allclose(
            report.singular_values, [12, 6, 5, 3, 3, 0, 0, 0, 0], atol=1e-9
        )
        np.testing.assert_allclose(
            report.t_singular_values, [np.sqrt(162.0), 6.0, 5.0], atol=1e-9
        )
        assert report.t_rank == 5
        assert report.tubal_rank == 3

    def test_single_entry(self):
        a = np.zeros((3, 3, 3))
        a[1, 2, 1] = 7.0
        report = singular_values(a)
        assert report.singular_values[0] == pytest.approx(7.0, rel=1e-12)
        assert report.t_rank == 1
        assert report.tubal_rank == 1

    def test_zero_tensor(self):
        report = singular_values(np.zeros((2, 3, 4)))
        assert np.all(report.singular_values == 0)
        assert report.t_rank == 0
        assert report.tubal_rank == 0

    def test_report_invariants(self, rng):
        for _ in range(10):
            a = random_tensor(rng)
            m, n, p = a.shape
            report = singular_values(a)
            assert report.singular_values.shape == (p * min(m, n),)
            assert np.all(np.diff(report.singular_values) <= 0)
            assert np.all(np.diff(report.t_singular_values) <= 1e-12)
            assert report.singular_values[0] == pytest.approx(
                km_mapping(a)[0, 0, 0], abs=1e-12 * (1 + report.singular_values[0])
            )
            assert report.tubal_rank <= report.t_rank
            assert report.t_rank <= p * report.tubal_rank

    def test_energy_identity(self, rng):
        for _ in range(10):
            a = random_tensor(rng)
            report = singular_values(a)
            assert (report.singular_values**2).sum() == pytest.approx(
                frobenius_norm(a) ** 2, rel=1e-9
            )

    @pytest.mark.parametrize("factor, rank", [(2.0, 2), (0.25, 1)])
    def test_default_gate_carries_the_factor_p(self, factor, rank):
        # An f-diagonal tensor held in its first frontal slice, with
        # nonnegative entries, is its own image: its second singular value
        # sits at `factor` times the gate eps * max(m, n) * p * sigma_1.
        m, n, p = 3, 2, 16
        gate = np.finfo(float).eps * max(m, n) * p
        a = np.zeros((m, n, p))
        a[0, 0, 0], a[1, 1, 0] = 1.0, factor * gate
        report = singular_values(a)
        assert report.threshold == pytest.approx(gate, rel=1e-12)
        assert (report.t_rank, report.tubal_rank) == (rank, rank)

    def test_rejects_negative_tol(self, rng):
        with pytest.raises(ValueError, match=">= 0"):
            singular_values(random_tensor(rng), tol=-1.0)

    def test_rejects_nan_tol(self, rng):
        with pytest.raises(ValueError, match=">= 0"):
            singular_values(random_tensor(rng), tol=float("nan"))


class TestNonSubAdditivityFixture:
    def test_summands_have_rank_one_but_sum_has_rank_five(self):
        parts = []
        for (i, j, k), value in [
            ((1, 1, 0), 6.0),
            ((0, 0, 1), 5.0),
            ((2, 2, 1), 9.0),
            ((2, 2, 2), 9.0),
        ]:
            part = np.zeros((3, 3, 3))
            part[i, j, k] = value
            parts.append(part)
        ranks = [singular_values(part).t_rank for part in parts]
        assert ranks == [1, 1, 1, 1]
        report = singular_values(sum(parts))
        assert report.t_rank == 5
        assert report.tubal_rank == 3
        assert report.t_rank > sum(ranks)


class TestTruncation:
    def test_full_rank_reconstructs(self, rng):
        a = rng.standard_normal((4, 3, 5))
        fac = tsvd(a)
        full = truncate_trank(fac, 5 * 3)
        assert frobenius_norm(a - full) <= 1e-9 * frobenius_norm(a)

    def test_worked_example_residual(self):
        a = fdiagonal_fixture()
        a1 = truncate_trank(tsvd(a), 1)
        assert frobenius_norm(a - a1) ** 2 == pytest.approx(79.0, rel=1e-8)

    def test_zero_tensor(self):
        fac = tsvd(np.zeros((2, 2, 3)))
        assert np.array_equal(truncate_trank(fac, 3), np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("s", [0, -1, 16])
    def test_rejects_out_of_range(self, rng, s):
        fac = tsvd(rng.standard_normal((3, 5, 5)))
        with pytest.raises(ValueError, match="1..15"):
            truncate_trank(fac, s)

    def test_monotone_residuals(self, rng):
        a = rng.standard_normal((3, 3, 4))
        fac = tsvd(a)
        report = singular_values(a)
        residuals = [
            frobenius_norm(a - truncate_trank(fac, s)) for s in range(1, 13)
        ]
        assert all(x >= y - 1e-12 for x, y in zip(residuals, residuals[1:]))
        # kept energy accounts for the residual exactly
        for s, res in zip(range(1, 13), residuals):
            tail = np.sqrt((report.singular_values[s:] ** 2).sum())
            assert res == pytest.approx(tail, abs=1e-9 * (1 + tail))

    def test_matches_block_circulant_composition(self, rng):
        # Differential oracle: u * s_kept * transpose(v) on the literal
        # block-circulant route, for every kept count.  The fixture's image
        # has tied entries.
        facs = [tsvd(fdiagonal_fixture())]
        for _ in range(25):
            facs.append(tsvd(random_tensor(rng, 6, 6, 6)))
        for fac in facs:
            m, n, p = fac.s.shape
            for s in range(1, p * min(m, n) + 1):
                middle = kept_middle(fac.s, s)
                want = tprod_direct(fac.u, tprod_direct(middle, transpose(fac.v)))
                assert_close_relative(truncate_trank(fac, s), want, 1e-12)

    @pytest.mark.parametrize("field", ["u", "s", "v"])
    def test_rejects_non_finite_factor(self, rng, field):
        fac = tsvd(rng.standard_normal((3, 3, 4)))
        for pos in [(0, 0, 0), (1, 1, 2), (0, 1, 0)]:
            bad = getattr(fac, field).copy()
            bad[pos] = np.nan
            with pytest.raises(ValueError, match="finite"):
                truncate_trank(dataclasses.replace(fac, **{field: bad}), 1)

    def test_refuses_an_overflowed_product(self):
        # The true product is about 2.6e307 times the unscaled one, and finite;
        # the inverse transform's sums over the tube are not.
        fac = tsvd(np.random.default_rng(0).standard_normal((3, 3, 4)))
        scale = 1e308 / np.abs(fac.s).max()
        assert np.isfinite(scale * truncate_trank(fac, 12)).all()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ArithmeticError, match="^the largest entry of the truncation is inf: "
                                       "the result overflowed float64"):
            truncate_trank(dataclasses.replace(fac, s=scale * fac.s), 12)

    def test_rejects_mismatched_factors(self, rng):
        fac = tsvd(rng.standard_normal((3, 4, 5)))
        with pytest.raises(ValueError, match="inner dimensions"):
            truncate_trank(dataclasses.replace(fac, u=fac.u[:2, :2]), 1)
        with pytest.raises(ValueError, match="inner dimensions"):
            truncate_trank(dataclasses.replace(fac, v=fac.v[:3, :3]), 1)
        with pytest.raises(ValueError, match="tube lengths"):
            truncate_trank(dataclasses.replace(fac, v=fac.v[:, :, :4]), 1)

    def test_energy_identity_with_repeated_singular_values(self, rng):
        # Every singular value of an orthogonal tensor is 1, and equal tubes
        # of an f-diagonal core repeat a value in every transform slice, so
        # the singular vectors are not unique; the residual must still be
        # the norm of the dropped singular values.
        d = np.zeros((4, 3, 4))
        d[0, 0] = d[1, 1] = [2.0, 1.0, 0.0, 1.0]
        tensors = [
            random_orthogonal(4, 5, 11),
            3.0 * identity_tensor(3, 4),
            tprod(random_orthogonal(4, 4, 5),
                  tprod(d, transpose(random_orthogonal(3, 4, 6)))),
        ]
        for a in tensors:
            sv = singular_values(a).singular_values
            fac = tsvd(a)
            norm2 = frobenius_norm(a) ** 2
            pairs = [(1, best_trank_one(a))]
            pairs += [(s, truncate_trank(fac, s)) for s in range(1, sv.size + 1)]
            for s, approx in pairs:
                res2 = frobenius_norm(a - approx) ** 2
                assert res2 + frobenius_norm(approx) ** 2 == pytest.approx(
                    norm2, rel=1e-12)
                assert res2 == pytest.approx((sv[s:] ** 2).sum(), abs=1e-12 * norm2)


class TestBestTrankOne:
    def test_result_has_t_rank_one(self, rng):
        a = rng.standard_normal((4, 4, 3))
        assert singular_values(best_trank_one(a)).t_rank == 1

    def test_energy_split(self, rng):
        for _ in range(5):
            a = random_tensor(rng)
            a1 = best_trank_one(a)
            lhs = frobenius_norm(a - a1) ** 2
            rhs = frobenius_norm(a) ** 2 - sigma1(a) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-8 * (1 + frobenius_norm(a) ** 2))

    def test_beats_random_competitors(self, rng):
        a = rng.standard_normal((4, 3, 4))
        a1 = best_trank_one(a)
        best = frobenius_norm(a - a1)
        report = singular_values(a)
        for trial in range(100):
            q1 = random_orthogonal(4, 4, 1000 + trial)
            q2 = random_orthogonal(3, 4, 2000 + trial)
            d = np.zeros((4, 3, 4))
            d[0, 0, 0] = report.singular_values[0] * (0.5 + rng.random())
            competitor = tprod(q1, tprod(d, transpose(q2)))
            assert best <= frobenius_norm(a - competitor)

    def test_matches_truncated_tsvd(self, rng):
        # best_trank_one skips the phase convention; where every slice's
        # singular values are apart the kept term is unique, and the two
        # routes differ by about eps / gap.
        checked = 0
        while checked < 40:
            a = random_tensor(rng, 6, 6, 6)
            half = np.fft.rfft(a, axis=2).transpose(2, 0, 1)
            sv = np.linalg.svd(half, compute_uv=False)
            if (-np.diff(sv, axis=1) < 1e-3 * sv[:, :1]).any():
                continue
            assert_close_relative(best_trank_one(a), truncate_trank(tsvd(a), 1), 1e-12)
            checked += 1


class TestSigma1Bound:
    def test_random_tensors(self, rng):
        for _ in range(20):
            assert sigma1_upper_bound_check(random_tensor(rng))

    def test_identity_equality(self):
        ident = identity_tensor(3, 4)
        assert sigma1(ident) == pytest.approx(1.0, abs=1e-12)
        assert sigma1_upper_bound_check(ident)

    def test_single_entry_equality(self, rng):
        a = np.zeros((3, 4, 5))
        a[2, 1, 3] = -2.5
        assert sigma1(a) == pytest.approx(2.5, abs=1e-10)

    @pytest.mark.parametrize("c", [1.0, 1e-12, 2.0**-1000, 2.0**1000])
    def test_gate_is_relative(self, monkeypatch, c):
        a = np.zeros((3, 4, 5))
        a[2, 1, 3] = -2.5 * c  # sigma_1 equals the entry's magnitude
        assert sigma1_upper_bound_check(a)
        true_sigma1 = kmsvd.sigma1
        monkeypatch.setattr(kmsvd, "sigma1", lambda x: 0.9 * true_sigma1(x))
        assert not sigma1_upper_bound_check(a)

    @pytest.mark.parametrize("shortfall, passes", [(1e-11, True), (1e-9, False)])
    def test_slack_is_1e_10(self, monkeypatch, shortfall, passes):
        a = np.zeros((3, 4, 5))
        a[2, 1, 3] = -2.5  # sigma_1 equals the entry's magnitude
        true_sigma1 = kmsvd.sigma1
        monkeypatch.setattr(kmsvd, "sigma1", lambda x: (1 - shortfall) * true_sigma1(x))
        assert sigma1_upper_bound_check(a) is passes

    def test_subadditivity(self, rng):
        for _ in range(20):
            m, n, p = 4, 3, 4
            x = rng.standard_normal((m, n, p))
            y = rng.standard_normal((m, n, p))
            assert sigma1(x + y) <= sigma1(x) + sigma1(y) + 1e-9


class TestKmEqual:
    def test_orthogonal_equivalence(self, rng):
        a = rng.standard_normal((5, 4, 3))
        y = random_orthogonal(5, 3, 71)
        z = random_orthogonal(4, 3, 72)
        assert km_equal(a, tprod(y, tprod(a, transpose(z))), tol=1e-8)

    def test_scaling_changes_image(self, rng):
        a = rng.standard_normal((3, 3, 2))
        assert not km_equal(a, 2.0 * a, tol=1e-8)

    def test_reflexive(self, rng):
        a = rng.standard_normal((3, 3, 2))
        assert km_equal(a, a, tol=1e-15)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_rejects_nan_and_negative_tol(self, rng, tol):
        # Either gate would make a tensor unequal to itself.
        a = rng.standard_normal((3, 3, 2))
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            km_equal(a, a, tol=tol)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            km_equal(rng.standard_normal((3, 3, 2)), rng.standard_normal((3, 3, 3)))

    @pytest.mark.parametrize("c", [1.0, 1e-12, 2.0**-1000, 2.0**1000])
    def test_gate_is_relative(self, c):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3, 4))
        b = rng.standard_normal((3, 3, 4))
        y = random_orthogonal(3, 4, 5)
        z = random_orthogonal(3, 4, 6)
        assert not km_equal(c * a, c * b)
        assert km_equal(c * a, tprod(y, tprod(c * a, transpose(z))))

    def test_zero_tensors_equal(self):
        assert km_equal(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), tol=1e-15)

    @pytest.mark.parametrize("tol, equal", [(0.6, True), (0.4, False)])
    def test_gate_is_against_the_larger_norm(self, rng, tol, equal):
        # ||S(a) - S(2a)||_F is ||S(a)||_F: half of the larger norm, all of the smaller.
        a = rng.standard_normal((3, 3, 2))
        assert km_equal(a, 2.0 * a, tol=tol) is equal


class TestOverflowedSpectrum:
    """No answer comes from a spectrum that overflowed float64."""

    @pytest.mark.parametrize("call", [
        singular_values, sigma1, lambda a: km_equal(a, a), km_mapping, tsvd, best_trank_one,
    ], ids=["singular_values", "sigma1", "km_equal", "km_mapping", "tsvd", "best_trank_one"])
    def test_raises(self, call):
        for a in overflowing_tensors():
            with np.errstate(over="ignore"), pytest.raises(ArithmeticError,
                                                           match="overflowed float64"):
                call(a)

    def test_tsvd_refuses_an_overflowed_transform_without_a_warning(self):
        # Under the suite's warnings-as-errors, numpy's "overflow encountered
        # in fft" would come first if `dft_mode3` left its error state alone.
        with pytest.raises(ArithmeticError, match="^the largest transform entry is inf: "
                                                  "the result overflowed float64"):
            tsvd(np.full((1, 1, 2), 1.5e308))

    @pytest.mark.parametrize("call", [
        singular_values, sigma1, lambda a: km_equal(a, a), km_mapping, best_trank_one,
        lambda a: tinverse(a[:2]),
    ], ids=["singular_values", "sigma1", "km_equal", "km_mapping", "best_trank_one",
            "tinverse"])
    def test_transform_lapack_cannot_factor(self, call, kernel_route):
        # The sums over the tube overflow to inf and NaN, which LAPACK's SVD
        # cannot factor: that is an overflow, not a failure to converge.
        a = np.full((3, 2, 4), 1.5e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ArithmeticError, match="^the largest transform entry is nan: "
                                       "the result overflowed float64"):
            call(a)

    def test_answers_just_below(self):
        for a in overflowing_tensors():
            a = a / 4
            ref = singular_values(a / 2.0**1018)
            assert singular_values(a).t_rank == ref.t_rank
            assert sigma1(a) == pytest.approx(2.0**1018 * sigma1(a / 2.0**1018), rel=1e-12)
            assert km_equal(a, a)


class TestTubalRankFactorization:
    def test_synthesized_rank_detected(self, rng):
        m, n, p, r = 6, 5, 4, 2
        b = rng.standard_normal((m, r, p))
        c = rng.standard_normal((r, n, p))
        a = tprod(b, c)
        assert singular_values(a).tubal_rank == r

    def test_truncated_factorization_reconstructs(self, rng):
        m, n, p, r0 = 5, 6, 3, 3
        a = tprod(rng.standard_normal((m, r0, p)), rng.standard_normal((r0, n, p)))
        report = singular_values(a)
        r = report.tubal_rank
        fac = tsvd(a)
        b = tprod(fac.u, fac.s)[:, :r, :]
        c = transpose(fac.v)[:r, :, :]
        assert frobenius_norm(a - tprod(b, c)) <= 1e-9 * (1 + frobenius_norm(a))

    def test_lower_rank_factorizations_fall_short(self, rng):
        a = rng.standard_normal((4, 4, 3))
        report = singular_values(a)
        r = report.tubal_rank
        lam_r = report.t_singular_values[r - 1]
        for _ in range(5):
            b = rng.standard_normal((4, r - 1, 3))
            c = rng.standard_normal((r - 1, 4, 3))
            assert frobenius_norm(a - tprod(b, c)) > lam_r / 2.0


class TestInvarianceProperty:
    def test_mapping_invariant_under_orthogonal_products(self, rng):
        for seed in range(10):
            a = random_tensor(rng)
            m, n, p = a.shape
            y = random_orthogonal(m, p, 3 * seed)
            z = random_orthogonal(n, p, 3 * seed + 1)
            b = tprod(y, tprod(a, transpose(z)))
            sa = km_mapping(a)
            sb = km_mapping(b)
            assert frobenius_norm(sa - sb) <= 1e-8 * (1 + frobenius_norm(sa))
            ra = singular_values(a)
            rb = singular_values(b)
            np.testing.assert_allclose(
                ra.singular_values, rb.singular_values,
                atol=1e-8 * (1 + ra.singular_values[0]),
            )
            assert ra.t_rank == rb.t_rank
            assert ra.tubal_rank == rb.tubal_rank


class TestMetamorphic:
    """Relations that need no oracle, on seeded tensors with sides <= 8 and
    p <= 9.  A cyclic shift of the frontal slices (a T-product with an
    orthogonal shift tensor) and a permutation of the rows leave S(a)
    unchanged, and S(transpose(a)) is transpose(S(a)), each within 8 eps of
    the largest entry of S(a); negation leaves S(a) unchanged bit for bit."""

    CASES = 50

    def cases(self, rng):
        for _ in range(self.CASES):
            yield random_tensor(rng, max_p=9)

    @staticmethod
    def assert_within_8_eps(got, want):
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()

    def test_cyclic_shift_of_the_frontal_slices(self, rng, kernel_route):
        for a in self.cases(rng):
            shift = int(rng.integers(a.shape[2]))
            self.assert_within_8_eps(km_mapping(np.roll(a, shift, axis=2)), km_mapping(a))

    def test_permutation_of_the_rows(self, rng, kernel_route):
        for a in self.cases(rng):
            self.assert_within_8_eps(km_mapping(a[rng.permutation(a.shape[0])]), km_mapping(a))

    def test_transposition(self, rng, kernel_route):
        for a in self.cases(rng):
            self.assert_within_8_eps(km_mapping(transpose(a)), transpose(km_mapping(a)))

    def test_negation_is_bitwise(self, rng, kernel_route):
        for a in self.cases(rng):
            assert same_bits(km_mapping(-a), km_mapping(a))


class TestScaling:
    """The mapping is homogeneous: S(c a) = c S(a).  Powers of two scale
    exactly, so every answer must carry over across the float64 range."""

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-1000, 1000),
    )
    def test_results_scale_with_the_input(self, dims, seed, k):
        a = np.random.default_rng(seed).standard_normal(dims)
        c = 2.0**k
        ca = c * a
        ra = singular_values(a)
        rc = singular_values(ca)
        gate = 1e-12 * ra.singular_values[0]
        np.testing.assert_allclose(rc.singular_values / c, ra.singular_values,
                                   rtol=0, atol=gate)
        np.testing.assert_allclose(rc.t_singular_values / c, ra.t_singular_values,
                                   rtol=0, atol=gate)
        assert rc.t_rank == ra.t_rank
        assert rc.tubal_rank == ra.tubal_rank
        norm = frobenius_norm(ca)
        assert norm / c == pytest.approx(frobenius_norm(a), rel=1e-14)
        assert frobenius_norm(ca - reconstruct(tsvd(ca))) <= 1e-9 * norm
