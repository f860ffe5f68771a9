"""Self-tests of the benchmark: oracles catch corrupted results, the tracer
nests spans, and BENCHMARK.json matches what the harness reports.

Run with ``python3 -m pytest bench -q``; the repository's own test suite does
not collect this directory.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tsvdkit
import tsvdkit.cli

import harness
import workloads
from spans import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def workloads_src():
    return os.path.join(ROOT, "src")


def run_cycle(workload):
    return harness.run_pass(workload, cycles=1)


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert workloads.make(w["name"], tsvdkit, 0, workloads_src(), ROOT).why == w["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.layer_metric_units()


def test_clean_runs_have_no_failures():
    result = run_cycle(workloads.SmallAlgebra(tsvdkit, 3, workloads_src(), 2, 2, 3))
    assert result.attempted > 0 and result.failed == 0, result.failures


def test_timing_metrics_summarize_each_ops_repeated_times():
    timed = harness.Pass(cycles=3, positions=[0, 1] * 3, kinds=["a", "b"] * 3,
                         latencies=[0.004, 0.002, 0.001, 0.003, 0.002, 0.006], failed=1)
    assert timed.op_times(min) == [0.001, 0.002]
    metrics, extras = harness.end_to_end([0.3, 0.1, 0.2], timed, 50.0, "best")
    assert metrics["setup_s"] == 0.2
    assert metrics["ops_per_s"] == pytest.approx((5 / 6) * 2 / 0.003)
    assert metrics["latency_p50_ms"] == pytest.approx(1.5)
    assert extras["run_ops_per_s"] == pytest.approx(5 / 0.018)
    metrics, _ = harness.end_to_end([0.3], timed, 50.0, "median")
    assert metrics["ops_per_s"] == pytest.approx((5 / 6) * 2 / 0.005)
    assert metrics["latency_p50_ms"] == pytest.approx(2.5)
    for name in workloads.WORKLOADS:
        assert workloads.make(name, tsvdkit, 0, workloads_src(), ROOT).op_time in harness.OP_TIMES


def test_exceptions_are_counted_and_the_run_goes_on():
    ops = [harness.Op("boom", lambda: 1 / 0, lambda r: None),
           harness.Op("fine", lambda: 1, lambda r: harness.expect(r == 1, "bad"))]

    class Stub:
        def cycle(self):
            return ops

    result = harness.run_pass(Stub(), cycles=2)
    assert (result.attempted, result.failed) == (4, 2)
    assert result.failures[0].startswith("boom: ZeroDivisionError")


def test_small_algebra_oracles_catch_corruption(monkeypatch):
    workload = workloads.SmallAlgebra(tsvdkit, 5, workloads_src(), 2, 2, 2)
    monkeypatch.setattr(tsvdkit, "km_equal", lambda a, b, tol=1e-8: False)
    result = run_cycle(workload)
    per_block = 1 + workload.INVARIANCE_PER_BLOCK + workload.COMPETITORS_PER_BLOCK
    blocks = result.attempted // per_block
    assert result.failed == blocks * workload.INVARIANCE_PER_BLOCK
    monkeypatch.undo()

    real = tsvdkit.best_trank_one
    monkeypatch.setattr(tsvdkit, "best_trank_one", lambda a: real(a) * 0.9)
    result = run_cycle(workload)
    # Every block's reference fails; a competitor may now also beat the
    # inflated residual, which is counted too.
    assert result.failed >= blocks
    assert result.failures[0].startswith("best_trank_one: Mismatch")


def test_competitor_that_beats_the_reference_is_counted_as_failed():
    workload = workloads.SmallAlgebra(tsvdkit, 5, workloads_src(), 2, 2, 2)
    a = np.random.default_rng(0).standard_normal((2, 2, 2))
    op = workload._competitor(a, {"residual": 1e9, "scale": 1.0}, 1, 2, 0.5)
    assert harness.run_op(op)[1].startswith("competitor: Mismatch")


@pytest.fixture
def tiny_cli(tmp_path):
    workload = workloads.Cli(tsvdkit, 4, workloads_src(), str(tmp_path),
                             cube=(3, 3, 3), wide=(6, 2, 2), tall=(9, 3, 4), small=(4, 3, 3))
    workload.setup()
    workload.inprocess = True
    yield workload
    workload.close()
    assert not os.listdir(tmp_path)


def test_cli_oracles_catch_corrupted_output_files(tiny_cli, monkeypatch):
    assert run_cycle(tiny_cli).failed == 0
    real = tsvdkit.cli.write_tensor
    monkeypatch.setattr(tsvdkit.cli, "write_tensor", lambda path, a: real(path, a * (1 + 1e-9)))
    result = run_cycle(tiny_cli)
    assert sorted(f.split(":")[0] for f in result.failures) == ["approx", "tprod", "tprod", "tsvd"]


def test_cli_subprocess_exit_codes_are_checked(tiny_cli):
    tiny_cli.inprocess = False
    verify = [op for op in tiny_cli.cycle() if op.kind == "verify"][0]
    assert harness.run_op(verify)[1] is None
    # The CLI run's own peak RSS, not this process's, which a child spawned
    # from here would be charged with.
    assert 0 < tiny_cli.peak_rss_mb() < harness.peak_rss_mb()
    os.remove(tiny_cli.path("small"))
    assert harness.run_op(verify)[1] == "verify: Mismatch: exit code 2"
    spawner = tiny_cli.spawner
    tiny_cli.close()
    assert spawner.returncode == 0


def test_tracer_nests_spans_and_restores_functions():
    original = tsvdkit.kmsvd.dft_mode3
    tracer = Tracer()
    tracer.install(tsvdkit)
    try:
        a = np.random.default_rng(1).standard_normal((3, 2, 4))
        tsvdkit.tsvd(a)
        assert tracer.spans == []
        with tracer.op(7):
            tsvdkit.tsvd(a)
    finally:
        tracer.uninstall()
    assert tsvdkit.kmsvd.dft_mode3 is original is tsvdkit.spectral.dft_mode3
    names = {span[3]: span for span in tracer.spans}
    top = names["kmsvd.tsvd"]
    assert top[2] == -1 and {span[0] for span in tracer.spans} == {7}
    assert names["spectral.dft_mode3"][2] == top[1]
    assert names["spectral.dft_mode3"][6] == 3 * 2 * 4 * (8 + 16)
    summary = tracer.summary()
    assert summary["spectral.complex_svd"]["calls"] == 4 // 2 + 1
    row = summary["kmsvd.tsvd"]
    assert 0 <= row["self_s"] < row["total_s"]


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
