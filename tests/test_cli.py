import dataclasses
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from tsvdkit import frobenius_norm, identity_tensor, read_tensor, tprod, transpose, write_tensor
from tsvdkit import cli, kmsvd
from tsvdkit.cli import main

from tensor_cases import fdiagonal_fixture, fdiagonal_fixture_image, overflowing_tensors


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    report = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        report[key] = value
    return report


def parse_list(text):
    inner = text.strip()[1:-1]
    return [float(tok) for tok in inner.split(",")] if inner else []


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "fixture.tensor"
    write_tensor(path, fdiagonal_fixture())
    return str(path)


class TestTsvdCommand:
    def test_worked_example(self, tmp_path, fixture_file, capsys):
        prefix = str(tmp_path / "out")
        code, out, _ = run_cli(["tsvd", fixture_file, "--out", prefix], capsys)
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["fixture.tensor", "out.s", "out.u", "out.v"]
        report = parse_report(out)
        s = read_tensor(prefix + ".s")
        np.testing.assert_allclose(s, fdiagonal_fixture_image(), atol=1e-9)
        assert float(report["relative_residual"]) <= 1e-9

    def test_files_round_trip_within_residual(self, tmp_path, fixture_file, capsys):
        prefix = str(tmp_path / "out")
        code, out, _ = run_cli(["tsvd", fixture_file, "--out", prefix], capsys)
        assert code == 0
        report = parse_report(out)
        a = read_tensor(fixture_file)
        u = read_tensor(prefix + ".u")
        s = read_tensor(prefix + ".s")
        v = read_tensor(prefix + ".v")
        rebuilt = tprod(u, tprod(s, transpose(v)))
        residual = float(report["relative_residual"]) * frobenius_norm(a)
        assert frobenius_norm(a - rebuilt) <= residual + 1e-12

    def test_zero_tensor(self, tmp_path, capsys):
        path = tmp_path / "zero.tensor"
        write_tensor(path, np.zeros((2, 2, 2)))
        prefix = str(tmp_path / "z")
        code, out, _ = run_cli(["tsvd", str(path), "--out", prefix], capsys)
        assert code == 0
        assert float(parse_report(out)["relative_residual"]) == 0.0
        assert np.array_equal(read_tensor(prefix + ".s"), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("name, prefix", [("a.tensor", "a"), ("noext", "noext"),
                                              ("d.x/f", "d.x/f")])
    def test_default_prefix_drops_only_the_extension(self, tmp_path, capsys, monkeypatch,
                                                      name, prefix):
        (tmp_path / "d.x").mkdir()
        write_tensor(tmp_path / name, fdiagonal_fixture())
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["tsvd", name], capsys)
        assert code == 0
        report = parse_report(out)
        for part in "usv":
            assert report[part] == f"{prefix}.{part}"
            assert (tmp_path / f"{prefix}.{part}").is_file()

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.tensor"
        path.write_text("dims = [2, 2]\ndata = [1.0]\n")
        code, _, err = run_cli(["tsvd", str(path), "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "bad.tensor:1" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["tsvd", str(tmp_path / "nope.tensor")], capsys)
        assert code == 2
        assert "error" in err


class TestRankCommand:
    def test_python_only_numeral_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.tensor"
        path.write_text("dims = [1, 1, 2]\ndata = [1_5, 2.0]\n")
        code, out, err = run_cli(["rank", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "entry 1 is not a number: '1_5'" in err

    def test_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.tensor"
        path.write_bytes(b"dims = [1, 1, 2]\ndata = [1.0, \xff2.0]\n")
        code, out, err = run_cli(["rank", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"tsvdkit: error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_worked_example(self, fixture_file, capsys):
        code, out, _ = run_cli(["rank", fixture_file], capsys)
        assert code == 0
        report = parse_report(out)
        sigma = parse_list(report["sigma"])
        lam = parse_list(report["lambda"])
        np.testing.assert_allclose(sigma, [12, 6, 5, 3, 3, 0, 0, 0, 0], atol=1e-9)
        np.testing.assert_allclose(lam, [np.sqrt(162.0), 6.0, 5.0], atol=1e-9)
        assert report["t_rank"] == "5"
        assert report["tubal_rank"] == "3"
        assert "tol" in report

    def test_single_entry(self, tmp_path, capsys):
        a = np.zeros((2, 2, 2))
        a[1, 0, 1] = 4.0
        path = tmp_path / "single.tensor"
        write_tensor(path, a)
        code, out, _ = run_cli(["rank", str(path)], capsys)
        assert code == 0
        assert parse_report(out)["t_rank"] == "1"

    def test_zero_tensor(self, tmp_path, capsys):
        path = tmp_path / "zero.tensor"
        write_tensor(path, np.zeros((2, 2, 2)))
        code, out, _ = run_cli(["rank", str(path)], capsys)
        assert code == 0
        report = parse_report(out)
        assert report["t_rank"] == "0"
        assert report["tubal_rank"] == "0"

    def test_explicit_tol(self, fixture_file, capsys):
        code, out, _ = run_cli(["rank", fixture_file, "--tol", "5.5"], capsys)
        assert code == 0
        report = parse_report(out)
        assert report["t_rank"] == "2"  # only 12 and 6 exceed 5.5
        assert float(report["tol"]) == 5.5

    def test_nan_tol_rejected(self, fixture_file, capsys):
        code, out, err = run_cli(["rank", fixture_file, "--tol", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert ">= 0" in err


class TestApproxCommand:
    def test_rank_one_residual(self, tmp_path, fixture_file, capsys):
        out_path = str(tmp_path / "a1.tensor")
        code, out, _ = run_cli(
            ["approx", fixture_file, "--rank", "1", "--out", out_path], capsys
        )
        assert code == 0
        assert float(parse_report(out)["residual"]) == pytest.approx(
            np.sqrt(79.0), rel=1e-8
        )
        a1 = read_tensor(out_path)
        assert frobenius_norm(fdiagonal_fixture() - a1) == pytest.approx(
            np.sqrt(79.0), rel=1e-8
        )

    def test_full_rank_residual(self, tmp_path, fixture_file, capsys):
        out_path = str(tmp_path / "full.tensor")
        code, out, _ = run_cli(
            ["approx", fixture_file, "--rank", "9", "--out", out_path], capsys
        )
        assert code == 0
        a = fdiagonal_fixture()
        assert float(parse_report(out)["residual"]) <= 1e-9 * frobenius_norm(a)

    def test_rank_zero_rejected(self, tmp_path, fixture_file, capsys):
        code, _, err = run_cli(
            ["approx", fixture_file, "--rank", "0", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "1..9" in err

    def test_missing_out_flag(self, fixture_file, capsys):
        code, _, _ = run_cli(["approx", fixture_file, "--rank", "1"], capsys)
        assert code == 2

    def test_unknown_mode_rejected(self, tmp_path, fixture_file, capsys):
        out = str(tmp_path / "x.tensor")
        argv = ["approx", fixture_file, "--rank", "1", "--mode", "bogus", "--out", out]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "invalid choice" in err

    def test_rank_five_truncates_the_tsvd(self, tmp_path, capsys):
        # The image's mirrored pairs are equal only to rounding, so which one
        # the s-largest selection keeps depends on how the image was factored:
        # here tsvd's middle factor keeps slice 7 of row 0 and km_mapping's
        # batched image slice 1, and the two truncations differ by 0.21.  So
        # approx stays on the tsvd's factors.
        a = np.random.default_rng([1, 0]).standard_normal((16, 4, 8))
        path, out_path = tmp_path / "a.tensor", str(tmp_path / "a5.tensor")
        write_tensor(path, a)
        code, _, _ = run_cli(["approx", str(path), "--rank", "5", "--out", out_path], capsys)
        assert code == 0
        assert np.array_equal(read_tensor(out_path), kmsvd.truncate_trank(kmsvd.tsvd(a), 5))

    def test_overflowing_truncation_writes_and_prints_nothing(self, tmp_path, capsys,
                                                               monkeypatch):
        path = tmp_path / "a.tensor"
        write_tensor(path, np.random.default_rng(0).standard_normal((3, 3, 4)))
        true_tsvd = cli.tsvd

        def scaled_tsvd(x):
            fac = true_tsvd(x)
            return dataclasses.replace(fac, s=fac.s * (1e308 / np.abs(fac.s).max()))

        monkeypatch.setattr(cli, "tsvd", scaled_tsvd)
        argv = ["approx", str(path), "--rank", "12", "--out", str(tmp_path / "out.tensor")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err == ("tsvdkit: numerical failure: the largest entry of the truncation is inf: "
                       "the result overflowed float64; rescale the input\n")
        assert os.listdir(tmp_path) == ["a.tensor"]


class TestVerifyCommand:
    def test_random_tensor_passes(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "r.tensor"
        write_tensor(path, rng.standard_normal((4, 3, 4)))
        code, out, _ = run_cli(
            ["verify", str(path), "--seed", "5", "--trials", "5"], capsys
        )
        assert code == 0
        report = parse_report(out)
        for key in ("reconstruction", "sigma1_bound", "orthogonal_invariance",
                    "subadditivity"):
            assert report[key] == "pass"

    def test_zero_trials_runs_deterministic_only(self, fixture_file, capsys):
        code, out, _ = run_cli(["verify", fixture_file, "--trials", "0"], capsys)
        assert code == 0
        report = parse_report(out)
        assert report["reconstruction"] == "pass"
        assert report["sigma1_bound"] == "pass"
        assert "orthogonal_invariance" not in report
        assert "subadditivity" not in report

    def test_negative_trials_rejected(self, fixture_file, capsys):
        code, out, err = run_cli(["verify", fixture_file, "--trials", "-3"], capsys)
        assert code == 2
        assert out == ""
        assert "--trials must be >= 0" in err

    @pytest.mark.parametrize("trials", ["0", "5"])
    def test_negative_seed_rejected(self, fixture_file, capsys, trials):
        argv = ["verify", fixture_file, "--seed", "-1", "--trials", trials]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "--seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("c", [1.0, 1e-12, 2.0**-1000])
    def test_checks_are_relative(self, tmp_path, capsys, monkeypatch, c):
        a = np.zeros((3, 4, 5))
        a[2, 1, 3] = -2.5 * c  # sigma_1 equals the entry's magnitude
        path = tmp_path / "small.tensor"
        write_tensor(path, a)
        argv = ["verify", str(path), "--trials", "0"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        true_tsvd, true_sigma1 = cli.tsvd, kmsvd.sigma1

        def perturbed_tsvd(x):
            fac = true_tsvd(x)
            return dataclasses.replace(fac, s=1.01 * fac.s)

        monkeypatch.setattr(cli, "tsvd", perturbed_tsvd)
        # The sigma_1 bound is sigma1_upper_bound_check's, which reads kmsvd.sigma1.
        monkeypatch.setattr(kmsvd, "sigma1", lambda x: 0.9 * true_sigma1(x))
        code, out, _ = run_cli(argv, capsys)
        report = parse_report(out)
        assert code == 3
        assert report["reconstruction"] == "fail"
        assert report["sigma1_bound"] == "fail"
        assert report["reconstruction_tol"] == "1.0000000000000001e-09"

    @pytest.mark.parametrize("c", [1.0, 1e-20, 1e20])
    def test_subadditivity_partners_share_the_scale(self, tmp_path, capsys, monkeypatch, c):
        a = c * np.random.default_rng(3).standard_normal((4, 3, 4))
        path = tmp_path / "r.tensor"
        write_tensor(path, a)
        seen = []
        true_sigma1 = cli.sigma1

        def recording_sigma1(x):
            seen.append(np.array(x))
            return true_sigma1(x)

        monkeypatch.setattr(cli, "sigma1", recording_sigma1)
        trials = 4
        code, out, _ = run_cli(["verify", str(path), "--trials", str(trials)], capsys)
        assert code == 0
        assert parse_report(out)["subadditivity"] == "pass"
        # sigma1(a) once, then sigma1(a + partner) and sigma1(partner) per trial.
        assert len(seen) == 1 + 2 * trials
        norm_a = frobenius_norm(a)
        for total, partner in zip(seen[1::2], seen[2::2]):
            assert frobenius_norm(partner) == pytest.approx(norm_a, rel=1e-12)
            np.testing.assert_allclose(total - partner, a, rtol=0, atol=1e-14 * c)

    @pytest.mark.parametrize("error, passes", [(1e-9, True), (1e-7, False)])
    def test_invariance_gate_is_1e_8(self, tmp_path, capsys, monkeypatch, error, passes):
        # An f-diagonal tensor held in its first frontal slice is its own
        # image, so S(b) off by `error` there is off by `error` relative.
        a = np.zeros((3, 4, 5))
        a[[0, 1, 2], [0, 1, 2], 0] = [3.0, 2.0, 1.0]
        path = tmp_path / "a.tensor"
        write_tensor(path, a)
        true_km_diag = cli._km_diag

        def perturbed_km_diag(x):
            tubes = true_km_diag(x)
            if not np.array_equal(x, a):  # S(b), not S(a)
                tubes[:, 0] *= 1 + error
            return tubes

        monkeypatch.setattr(cli, "_km_diag", perturbed_km_diag)
        code, out, _ = run_cli(["verify", str(path), "--trials", "3"], capsys)
        report = parse_report(out)
        assert code == (0 if passes else 3)
        assert report["orthogonal_invariance"] == ("pass" if passes else "fail")
        assert report["subadditivity"] == "pass"

    @pytest.mark.parametrize("excess, passes", [(1e-10, True), (1e-8, False)])
    def test_subadditivity_slack_is_1e_9(self, tmp_path, capsys, monkeypatch, excess, passes):
        a = np.random.default_rng(3).standard_normal((4, 3, 4))
        path = tmp_path / "r.tensor"
        write_tensor(path, a)
        true_sigma1 = cli.sigma1
        calls = []

        def inflated_sigma1(x):
            # sigma1(a) once, then sigma1(a + partner) and sigma1(partner) per
            # trial: each sum exceeds its bound by `excess` relative.
            calls.append(x)
            if len(calls) % 2:
                return true_sigma1(x)
            return (true_sigma1(a) + true_sigma1(x - a)) * (1 + excess)

        monkeypatch.setattr(cli, "sigma1", inflated_sigma1)
        code, out, _ = run_cli(["verify", str(path), "--trials", "3"], capsys)
        report = parse_report(out)
        assert code == (0 if passes else 3)
        assert report["orthogonal_invariance"] == "pass"
        assert report["subadditivity"] == ("pass" if passes else "fail")

    def test_image_of_the_input_is_taken_once(self, monkeypatch):
        a = np.random.default_rng(3).standard_normal((4, 3, 4))
        calls = []
        true_km_diag = kmsvd._km_diag

        def counting_km_diag(x):
            calls.append(x.shape)
            return true_km_diag(x)

        monkeypatch.setattr(kmsvd, "_km_diag", counting_km_diag)
        monkeypatch.setattr(cli, "_km_diag", counting_km_diag)
        trials = 6
        # The calls made by the time each check reports.
        made = {}
        for name, _, passed in cli._verify_checks(a, 5, trials):
            assert passed
            made[name] = len(calls)
        # S(a) once, then S(b) per trial.
        assert made["orthogonal_invariance"] - made["sigma1_bound"] == trials + 1

    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    def test_unreadable_input_reported_before_a_negative_flag(self, tmp_path, capsys, flag):
        # The driver reads every input before the subcommand checks its flags.
        missing = str(tmp_path / "nope.tensor")
        code, out, err = run_cli(["verify", missing, flag, "-1"], capsys)
        assert (code, out) == (2, "")
        assert err == f"tsvdkit: error: [Errno 2] No such file or directory: {missing!r}\n"

    def test_overflowing_partner_sum_exits_numerical(self, tmp_path, capsys):
        # A valid file whose sum a + partner leaves float64's range: an
        # overflow (exit 3), not a bad input (exit 2).
        path = tmp_path / "top.tensor"
        write_tensor(path, np.full((1, 2, 1), 1e308))
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == ("tsvdkit: numerical failure: the largest entry of a + partner is inf: "
                       "the result overflowed float64; rescale the input\n")

    def test_deterministic_output(self, fixture_file, capsys):
        code1, out1, _ = run_cli(["verify", fixture_file, "--seed", "9"], capsys)
        code2, out2, _ = run_cli(["verify", fixture_file, "--seed", "9"], capsys)
        assert (code1, out1) == (code2, out2)


class TestTprodCommand:
    def test_product_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((2, 5, 4))
        pa, pb = tmp_path / "a.tensor", tmp_path / "b.tensor"
        write_tensor(pa, a)
        write_tensor(pb, b)
        out_path = str(tmp_path / "ab.tensor")
        code, out, _ = run_cli(["tprod", str(pa), str(pb), "--out", out_path], capsys)
        assert code == 0
        assert np.array_equal(read_tensor(out_path), tprod(a, b))
        assert parse_report(out)["dims"] == "[3, 5, 4]"

    def test_overflowing_norm_exits_numerical(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.tensor", tmp_path / "b.tensor"
        write_tensor(pa, np.full((2, 1, 1), 1.5e308))
        write_tensor(pb, np.ones((1, 1, 1)))
        out_path = tmp_path / "ab.tensor"
        code, out, err = run_cli(["tprod", str(pa), str(pb), "--out", str(out_path)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("tsvdkit: numerical failure: the Frobenius norm is inf")
        assert not out_path.exists()

    def test_symlinked_target_is_written_through(self, tmp_path, capsys):
        pa, ones = tmp_path / "a.tensor", np.ones((2, 2, 3))
        write_tensor(pa, ones)
        (tmp_path / "link.tensor").symlink_to(tmp_path / "real.tensor")
        argv = ["tprod", str(pa), str(pa), "--out", str(tmp_path / "link.tensor")]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert (tmp_path / "link.tensor").is_symlink()
        assert np.array_equal(read_tensor(tmp_path / "real.tensor"), tprod(ones, ones))

    def test_dimension_mismatch(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.tensor", tmp_path / "b.tensor"
        write_tensor(pa, np.zeros((3, 2, 4)))
        write_tensor(pb, np.zeros((3, 5, 4)))
        code, _, err = run_cli(["tprod", str(pa), str(pb), "--out", "x"], capsys)
        assert code == 2
        assert "inner dimensions" in err


def test_overflowed_spectrum_exits_numerical(tmp_path, capsys):
    path = tmp_path / "big.tensor"
    write_tensor(path, overflowing_tensors()[1])
    code, out, err = run_cli(["rank", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("tsvdkit: numerical failure: the largest singular value is inf")


@pytest.mark.parametrize("command", ["tsvd", "approx", "tsvd-forward", "approx-forward",
                                     "tprod", "tprod-transform", "verify"])
def test_overflowing_run_writes_and_prints_nothing(tmp_path, capsys, command):
    names = ("big", "tube", "two", "spectrum", "stacked", "identities")
    big, tube, two, spectrum, stacked, identities = (str(tmp_path / f"{name}.tensor")
                                                     for name in names)
    write_tensor(big, np.full((2, 1, 1), 1.5e308))  # sigma_1 = 2.1e308 overflows
    write_tensor(tube, np.full((1, 1, 2), 1.5e308))  # so does its forward transform
    write_tensor(two, np.full((1, 1, 1), 2.0))
    write_tensor(spectrum, overflowing_tensors()[1])
    # A product large enough for the transform route, whose sum over the
    # tube overflows although the true product is `spectrum` stacked.
    write_tensor(stacked, np.concatenate([overflowing_tensors()[1]] * 8))
    write_tensor(identities, np.concatenate([identity_tensor(4, 5)] * 5, axis=1))
    target = str(tmp_path / "out.tensor")
    argv = {
        "tsvd": ["tsvd", big, "--out", str(tmp_path / "fac")],
        "approx": ["approx", big, "--rank", "1", "--out", target],
        "tsvd-forward": ["tsvd", tube, "--out", str(tmp_path / "fac")],
        "approx-forward": ["approx", tube, "--rank", "1", "--out", target],
        "tprod": ["tprod", big, two, "--out", target],
        "tprod-transform": ["tprod", stacked, identities, "--out", target],
        "verify": ["verify", spectrum],
    }[command]
    before = sorted(os.listdir(tmp_path))
    # No np.errstate here: under the filterwarnings = error setting, a numpy
    # overflow warning escaping main would fail the run.
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("tsvdkit: numerical failure: ")
    assert err.count("\n") == 1 and err.endswith("\n")  # one line per failure
    assert sorted(os.listdir(tmp_path)) == before


def test_transform_lapack_cannot_factor_exits_numerical(tmp_path, capsys):
    # The transform's sums over the tube overflow: an overflow, not a failure
    # of LAPACK's SVD to converge.
    path = tmp_path / "big.tensor"
    write_tensor(path, np.full((3, 2, 4), 1.5e308))
    code, out, err = run_cli(["rank", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == ("tsvdkit: numerical failure: the largest transform entry is nan: "
                   "the result overflowed float64; rescale the input\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_target_is_written_in_place(tmp_path, capsys):
    a = np.random.default_rng(5).standard_normal((8, 8, 6))
    pa, want = tmp_path / "a.tensor", tmp_path / "want.tensor"
    write_tensor(pa, a)
    write_tensor(want, tprod(a, a))
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, _ = run_cli(["tprod", str(pa), str(pa), "--out", str(fifo)], capsys)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert code == 0
    assert parse_report(out)["out"] == str(fifo)
    assert received == [want.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["a.tensor", "out.fifo", "want.tensor"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_stdout_target_is_written_in_place(tmp_path):
    # Through a pipe: the file's text, then the report.
    a = np.random.default_rng(5).standard_normal((3, 3, 4))
    pa, want = tmp_path / "a.tensor", tmp_path / "want.tensor"
    write_tensor(pa, a)
    write_tensor(want, tprod(a, a))
    argv = ["tprod", str(pa), str(pa), "--out", "/dev/stdout"]
    proc = subprocess.run([sys.executable, "-m", "tsvdkit.cli", *argv],
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    text = want.read_bytes()
    assert proc.stdout.startswith(text)
    assert parse_report(proc.stdout[len(text):].decode())["out"] == "/dev/stdout"
    assert sorted(os.listdir(tmp_path)) == ["a.tensor", "want.tensor"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("via_dev_stdout", [True, False], ids=["/dev/stdout", "its path"])
def test_stdout_file_target_is_written_in_place(tmp_path, via_dev_stdout):
    # stdout redirected to the target's regular file, as `--out out.txt >
    # out.txt` does: replacing the file would print the report to the old one.
    a = np.random.default_rng(5).standard_normal((3, 3, 4))
    pa, want, out = tmp_path / "a.tensor", tmp_path / "want.tensor", tmp_path / "out.txt"
    write_tensor(pa, a)
    write_tensor(want, tprod(a, a))
    target = "/dev/stdout" if via_dev_stdout else str(out)
    argv = ["tprod", str(pa), str(pa), "--out", target]
    with open(out, "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "tsvdkit.cli", *argv],
                              stdout=fh, stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    text, got = want.read_bytes(), out.read_bytes()
    assert got.startswith(text)
    assert parse_report(got[len(text):].decode())["out"] == target
    assert sorted(os.listdir(tmp_path)) == ["a.tensor", "out.txt", "want.tensor"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_failed_write_in_place_replaces_no_target(tmp_path, fixture_file, capsys, monkeypatch):
    # A target that is no regular file is written after every temporary file
    # and before any replace, so its failure leaves the other targets as they were.
    prefix = str(tmp_path / "fac")
    for suffix in ".u", ".v":
        with open(prefix + suffix, "w", encoding="utf-8") as fh:
            fh.write(f"earlier {suffix}\n")
    os.mkfifo(prefix + ".s")
    before = {name: (tmp_path / name).read_bytes() for name in ("fac.u", "fac.v")}
    listing = sorted(os.listdir(tmp_path))
    writes = []

    def write_or_fail(path, a):
        writes.append(os.path.basename(path))
        if path == prefix + ".s":
            raise OSError(32, "Broken pipe")
        return write_tensor(path, a)

    monkeypatch.setattr(cli, "write_tensor", write_or_fail)
    code, out, err = run_cli(["tsvd", fixture_file, "--out", prefix], capsys)
    assert (code, out) == (2, "")
    assert err == "tsvdkit: error: [Errno 32] Broken pipe\n"
    pid = os.getpid()
    assert writes == [f"fac.u.{pid}.tmp", f"fac.v.{pid}.tmp", "fac.s"]
    assert {name: (tmp_path / name).read_bytes() for name in ("fac.u", "fac.v")} == before
    assert sorted(os.listdir(tmp_path)) == listing
    assert stat.S_ISFIFO(os.stat(prefix + ".s").st_mode)


def test_directory_target_fails_before_any_replace(tmp_path, fixture_file, capsys):
    prefix = str(tmp_path / "fac")
    with open(prefix + ".u", "w", encoding="utf-8") as fh:
        fh.write("earlier .u\n")
    os.mkdir(prefix + ".s")
    before = sorted(os.listdir(tmp_path))
    code, out, err = run_cli(["tsvd", fixture_file, "--out", prefix], capsys)
    assert (code, out) == (2, "")
    assert err == f"tsvdkit: error: {prefix}.s is a directory\n"
    assert (tmp_path / "fac.u").read_text(encoding="utf-8") == "earlier .u\n"
    assert sorted(os.listdir(tmp_path)) == before  # no temporary file left


def test_failed_write_leaves_every_target_as_it_was(tmp_path, fixture_file, capsys, monkeypatch):
    prefix = str(tmp_path / "fac")
    for suffix in ".u", ".s", ".v":
        with open(prefix + suffix, "w", encoding="utf-8") as fh:
            fh.write(f"earlier {suffix}\n")
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    writes = []

    def write_then_fail(path, a):
        writes.append(path)
        if len(writes) < 2:
            return write_tensor(path, a)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("dims = [")  # a partial file, then the device fills up
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_tensor", write_then_fail)
    code, out, err = run_cli(["tsvd", fixture_file, "--out", prefix], capsys)
    assert (code, out) == (2, "")
    assert "No space left on device" in err
    assert len(writes) == 2
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


@pytest.mark.parametrize("command", ["tprod", "tsvd"])
def test_missing_directory_names_the_target(tmp_path, fixture_file, capsys, monkeypatch,
                                            command):
    # The error names the target as given, not the temporary file beside it.
    monkeypatch.chdir(tmp_path)
    argv, target = {
        "tprod": (["tprod", fixture_file, fixture_file, "--out", "nodir/out.tensor"],
                  "nodir/out.tensor"),
        "tsvd": (["tsvd", fixture_file, "--out", "nodir/fac"], "nodir/fac.u"),
    }[command]
    before = sorted(os.listdir(tmp_path))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"tsvdkit: error: [Errno 2] No such file or directory: '{target}'\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_closed_stdout_target_is_named(tmp_path):
    # With fd 1 closed, /dev/stdout names no file; the error names it, not a
    # temporary file beside the path it resolves to.
    a = np.random.default_rng(5).standard_normal((3, 3, 4))
    pa = tmp_path / "a.tensor"
    write_tensor(pa, a)
    script = 'exec "$0" -m tsvdkit.cli tprod "$1" "$1" --out /dev/stdout >&-'
    proc = subprocess.run(["sh", "-c", script, sys.executable, str(pa)],
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"tsvdkit: error: [Errno ")
    assert proc.stderr.endswith(b": '/dev/stdout'\n")
    assert sorted(os.listdir(tmp_path)) == ["a.tensor"]


def test_lapack_failure_exits_numerical(fixture_file, capsys, svd_fails):
    for route in ("direct", "public"):
        svd_fails(route)
        code, _, err = run_cli(["rank", fixture_file], capsys)
        assert code == 3
        assert err == "tsvdkit: numerical failure: SVD did not converge\n"


def test_console_entry_point(tmp_path):
    path = tmp_path / "t.tensor"
    write_tensor(path, fdiagonal_fixture())
    proc = subprocess.run(
        [sys.executable, "-m", "tsvdkit.cli", "rank", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "t_rank = 5" in proc.stdout
