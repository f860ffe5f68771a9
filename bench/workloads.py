"""The two workloads: small_algebra and cli.

Each workload draws every input from its seed, builds cycles of `Op`s that
repeat the same calls on the same inputs, and attaches an oracle to each op.
Every op takes at most about half a second, so each is timed many times in a
run (see ``harness.OP_TIMES`` for why that matters).  Library calls go through
attributes of the ``tsvdkit`` package looked up at call time, so the tracer's
wrappers see them.
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import harness
from harness import Op, expect

# ROADMAP "Recent" baselines (numpy 2.4.6, OpenBLAS, 2 cores), seconds.
ROADMAP_BASELINES = {
    "tsvd 64x64x16": 3.9,
    "km_mapping 64x64x16": 3.15,
    "read 64x64x64 file": 0.72,
    "write 64x64x64 file": 0.40,
    "random_orthogonal(5, 4)": 277e-6,
    "tprod 5x5x4": 88e-6,
}

RECONSTRUCTION_TOL = 1e-9
SUBPROCESS_TIMEOUT_S = 150


def energy(a):
    return float(np.sum(np.square(a)))


# --- subprocess helpers -----------------------------------------------------------


def child_env(src):
    """Environment for child interpreters: this checkout's src first, default threads."""
    env = dict(os.environ)
    env.pop("TSVDKIT_THREADS", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# A small interpreter that runs each CLI command for the benchmark and reports
# the command's peak RSS.  Linux charges a child that execs with the RSS of the
# process it was spawned from, so children spawned directly from the benchmark
# process (numpy loaded, inputs in memory) would all report its size instead
# of their own.  This one stays at about 11 MB, well under a CLI run's peak.
SPAWNER = r"""
import json, resource, subprocess, sys
for line in sys.stdin:
    argv, cwd, timeout = json.loads(line)
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=timeout)
        reply = {"code": done.returncode, "stdout": done.stdout,
                 "peak_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    except Exception as exc:
        reply = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(reply), flush=True)
"""


def import_seconds(src, module):
    """Wall time of a fresh interpreter that only imports `module`."""
    start = time.perf_counter()
    # Captured pipes end the wait at the child's exit; a bare wait with a
    # timeout polls in steps of up to 50 ms, which would quantize the time.
    subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(src),
                   check=True, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - start


# --- small_algebra ------------------------------------------------------------------


class SmallAlgebra:
    """Invariance and competitor trials on every (m, n) of the acceptance range."""

    name = "small_algebra"
    why = (
        "Per-call overhead of tprod, transforms, validation and tiny SVDs "
        "dominates, exposing a change that speeds big slices but costs small "
        "ones."
    )
    # Ops take about a millisecond; see harness.OP_TIMES.
    op_time = "best"
    # Per block (one tensor): one best_trank_one reference, then trials in a
    # fixed 1:4 ratio of invariance to competitor.
    INVARIANCE_PER_BLOCK = 1
    COMPETITORS_PER_BLOCK = 4
    COMPETITOR_SLACK = 1e-12

    def __init__(self, tk, seed, src, max_m=8, max_n=8, max_p=6):
        self.tk, self.seed, self.src = tk, seed, src
        # Every (m, n) of the acceptance suite's range once, with p stepping
        # through 1..max_p along the diagonals m + n, in a seeded order: each
        # seed runs the same mix of shapes, and a cycle stays short, so every
        # op is timed many times over a run.
        grid = [(m, n, max_p - (m + n - 1) % max_p) for m in range(1, max_m + 1)
                for n in range(1, max_n + 1)]
        order = np.random.default_rng([seed, 0]).permutation(len(grid))
        self.shapes = [grid[i] for i in order]

    def setup(self):
        import_seconds(self.src, "tsvdkit")
        for op in self.cycle()[: 1 + self.INVARIANCE_PER_BLOCK + self.COMPETITORS_PER_BLOCK]:
            op.check(op.run())

    def cycle(self):
        rng = np.random.default_rng([self.seed, 1])
        ops = []
        for shape in self.shapes:
            ops.extend(self._block(shape, rng))
        return ops

    def _block(self, shape, rng):
        tk = self.tk
        m, n, p = shape
        a = rng.standard_normal(shape)
        reference = {}

        def best():
            a1 = tk.best_trank_one(a)
            reference["residual"] = tk.frobenius_norm(a - a1)
            reference["scale"] = tk.frobenius_norm(a1)
            return reference["residual"], reference["scale"]

        def check_best(result):
            residual, scale = result
            norm2 = energy(a)
            gap = abs(residual**2 + scale**2 - norm2)
            expect(gap <= 1e-8 * (1.0 + norm2), f"best rank-one energy gap {gap:.3e}")

        ops = [Op("best_trank_one", best, check_best)]
        for _ in range(self.INVARIANCE_PER_BLOCK):
            ops.append(self._invariance(a, int(rng.integers(2**63)), int(rng.integers(2**63))))
        for _ in range(self.COMPETITORS_PER_BLOCK):
            ops.append(self._competitor(a, reference, int(rng.integers(2**63)),
                                        int(rng.integers(2**63)), 2.0 * rng.random() - 0.5))
        return ops

    def _invariance(self, a, seed_y, seed_z):
        tk = self.tk
        m, n, p = a.shape

        def run():
            y = tk.random_orthogonal(m, p, seed_y)
            z = tk.random_orthogonal(n, p, seed_z)
            return tk.km_equal(a, tk.tprod(y, tk.tprod(a, tk.transpose(z))))

        return Op("invariance", run, lambda same: expect(same is True, "km_equal is not True"))

    def _competitor(self, a, reference, seed_1, seed_2, weight):
        tk = self.tk
        m, n, p = a.shape

        def run():
            q1 = tk.random_orthogonal(m, p, seed_1)
            q2 = tk.random_orthogonal(n, p, seed_2)
            d = np.zeros((m, n, p))
            d[0, 0, 0] = reference["scale"] * weight
            return tk.frobenius_norm(a - tk.tprod(q1, tk.tprod(d, tk.transpose(q2))))

        def check(distance):
            best = reference["residual"]
            expect(distance >= best - self.COMPETITOR_SLACK * (1.0 + best),
                   f"competitor {distance!r} beats best rank-one residual {best!r}")

        return Op("competitor", run, check)

    def smoke(self, plain):
        tk = self.tk
        a = np.random.default_rng(self.seed).standard_normal((5, 5, 4))

        def median_call(fn, reps=200):
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return statistics.median(times)

        square = np.random.default_rng(self.seed).standard_normal((64, 64, 16))
        return {
            "tsvd 64x64x16": median_call(lambda: tk.tsvd(square), reps=1),
            "km_mapping 64x64x16": median_call(lambda: tk.km_mapping(square), reps=1),
            "random_orthogonal(5, 4)": median_call(lambda: tk.random_orthogonal(5, 4, 7)),
            "tprod 5x5x4": median_call(lambda: tk.tprod(a, a)),
        }

    def layer_extras(self, plain):
        return {}

    def peak_rss_mb(self):
        return harness.peak_rss_mb()

    def close(self):
        pass


# --- cli ------------------------------------------------------------------------------


def read_back(path):
    """Parse a tensor file written by ``write_tensor`` (bench-side reader)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    head, _, rest = text.partition("data")
    m, n, p = (int(x) for x in head.split("[", 1)[1].split("]", 1)[0].split(","))
    data = np.fromstring(rest.split("[", 1)[1].rsplit("]", 1)[0], sep=",")
    expect(data.size == m * n * p, f"{os.path.basename(path)} has {data.size} entries")
    return data.reshape(p, m, n).transpose(1, 2, 0)


def parse_report(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def parse_list(value):
    return np.array([float(x) for x in value.strip("[]").split(",")])


def expect_close(actual, wanted, what, rtol=1e-12):
    actual = np.asarray(actual)
    expect(actual.shape == wanted.shape, f"{what} shape {actual.shape} != {wanted.shape}")
    gap = float(np.abs(actual - wanted).max()) if wanted.size else 0.0
    bound = rtol * (1.0 + float(np.abs(wanted).max()))
    expect(gap <= bound, f"{what} differs from the library result by {gap:.3e}")


class Cli:
    """``python -m tsvdkit.cli`` runs on tensor files written during set-up."""

    name = "cli"
    why = (
        "File parse/write and interpreter+import startup dominate, spectral "
        "work is small; reads and writes are separate ops so neither hides the "
        "other."
    )

    # A CLI run takes 0.2-0.6 s; see harness.OP_TIMES.
    op_time = "median"

    # Files are sized so that no run takes much over half a second: a run of
    # the CLI is then timed many times in a benchmark run.
    def __init__(self, tk, seed, src, out_dir, cube=(32, 32, 32), wide=(128, 8, 8),
                 tall=(256, 16, 8), small=(8, 8, 6)):
        self.tk, self.seed, self.src, self.out_dir = tk, seed, src, out_dir
        self.shapes = {"cube_l": cube, "cube_r": cube, "wide_l": wide,
                       "wide_r": (wide[1], wide[0], wide[2]), "tall": tall, "small": small}
        self.inprocess = False
        self.tmp = None
        self.env = child_env(src)
        self.spawner = None
        self.child_peak_kib = 0

    def path(self, name):
        return os.path.join(self.tmp, name + ".tensor")

    def setup(self):
        tk = self.tk
        import_seconds(self.src, "tsvdkit.cli")
        if self.tmp is not None:
            shutil.rmtree(self.tmp)
        os.makedirs(self.out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=self.out_dir)
        rng = np.random.default_rng([self.seed, 0])
        self.inputs = {name: rng.standard_normal(shape) for name, shape in self.shapes.items()}
        for name, a in self.inputs.items():
            tk.write_tensor(self.path(name), a)
        small = self.inputs["small"]
        fac = tk.tsvd(small)
        self.expected = {
            "cube": tk.tprod(self.inputs["cube_l"], self.inputs["cube_r"]),
            "wide": tk.tprod(self.inputs["wide_l"], self.inputs["wide_r"]),
            "rank": tk.singular_values(self.inputs["tall"]),
            "tsvd": fac,
            "approx": tk.truncate_trank(fac, 3),
        }

    def invoke(self, argv):
        """Run one CLI command; returns (exit code, stdout)."""
        if self.inprocess:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.tk.cli.main(argv)
            return code, stdout.getvalue()
        if self.spawner is None:
            self.spawner = subprocess.Popen([sys.executable, "-I", "-S", "-c", SPAWNER],
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                            env=self.env, text=True)
        request = [[sys.executable, "-m", "tsvdkit.cli", *argv], self.tmp, SUBPROCESS_TIMEOUT_S]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline() or '{"error": "spawner exited"}')
        if "error" in reply:
            raise RuntimeError(reply["error"])
        self.child_peak_kib = max(self.child_peak_kib, reply["peak_kib"])
        return reply["code"], reply["stdout"]

    def peak_rss_mb(self):
        """Peak RSS of the largest CLI run so far."""
        return self.child_peak_kib / 1024.0

    def _op(self, kind, argv, outputs, check_report):
        def run():
            for path in outputs:
                if os.path.exists(path):
                    os.remove(path)
            return self.invoke(argv)

        def check(result):
            code, stdout = result
            expect(code == 0, f"exit code {code}")
            check_report(parse_report(stdout))

        return Op(kind, run, check)

    def cycle(self):
        path, exp = self.path, self.expected
        cube_out, wide_out = path("cube_out"), path("wide_out")
        prefix = os.path.join(self.tmp, "small_fac")
        approx_out = path("small_approx")

        def keys(report, *names):
            missing = [name for name in names if name not in report]
            expect(not missing, f"stdout lacks {missing}")

        def check_product(out, wanted):
            def check(report):
                keys(report, "out", "dims", "norm")
                expect(report["dims"] == str(list(wanted.shape)), "wrong dims")
                expect_close(read_back(out), wanted, "product file")
                expect_close(float(report["norm"]), np.array(np.linalg.norm(wanted)), "norm")
            return check

        def check_rank(wanted):
            def check(report):
                keys(report, "sigma", "lambda", "t_rank", "tubal_rank", "tol")
                expect_close(parse_list(report["sigma"]), wanted.singular_values, "sigma")
                expect(int(report["t_rank"]) == wanted.t_rank, "t_rank differs")
            return check

        def check_tsvd(report):
            keys(report, "input", "dims", "u", "s", "v", "relative_residual")
            expect(float(report["relative_residual"]) <= RECONSTRUCTION_TOL, "residual too big")
            for suffix, wanted in (("u", exp["tsvd"].u), ("s", exp["tsvd"].s), ("v", exp["tsvd"].v)):
                expect_close(read_back(prefix + "." + suffix), wanted, f"factor {suffix}")

        def check_approx(report):
            keys(report, "input", "out", "rank", "mode", "residual")
            expect_close(read_back(approx_out), exp["approx"], "approximation file")
            wanted = np.linalg.norm(self.inputs["small"] - exp["approx"])
            expect_close(float(report["residual"]), np.array(wanted), "residual")

        def check_verify(report):
            checks = ("reconstruction", "sigma1_bound", "orthogonal_invariance", "subadditivity")
            keys(report, *checks)
            failing = [name for name in checks if report[name] != "pass"]
            expect(not failing, f"verify failed {failing}")

        return [
            self._op("tprod", ["tprod", path("cube_l"), path("cube_r"), "--out", cube_out],
                     [cube_out], check_product(cube_out, exp["cube"])),
            self._op("tprod", ["tprod", path("wide_l"), path("wide_r"), "--out", wide_out],
                     [wide_out], check_product(wide_out, exp["wide"])),
            self._op("rank", ["rank", path("tall")], [], check_rank(exp["rank"])),
            self._op("tsvd", ["tsvd", path("small"), "--out", prefix],
                     [prefix + ".u", prefix + ".s", prefix + ".v"], check_tsvd),
            self._op("approx", ["approx", path("small"), "--rank", "3", "--out", approx_out],
                     [approx_out], check_approx),
            self._op("verify", ["verify", path("small"), "--trials", "5"], [], check_verify),
        ]

    def startup_ms(self, reps=5):
        return 1e3 * statistics.median(import_seconds(self.src, "tsvdkit.cli")
                                       for _ in range(reps))

    def smoke(self, plain):
        tk = self.tk
        cube = np.random.default_rng(self.seed).standard_normal((64, 64, 64))
        path = self.path("cube_smoke")
        start = time.perf_counter()
        tk.write_tensor(path, cube)
        write_s = time.perf_counter() - start
        start = time.perf_counter()
        tk.read_tensor(path)
        return {"read 64x64x64 file": time.perf_counter() - start, "write 64x64x64 file": write_s}

    def layer_extras(self, plain):
        extras = {"cli.startup_ms": self.startup_ms()}
        for sub in ("tsvd", "rank", "approx", "verify", "tprod"):
            times = plain.latencies_of(sub)
            extras[f"cli.{sub}.p50_ms"] = 1e3 * statistics.median(times) if times else 0.0
        return extras

    def close(self):
        if self.spawner is not None:
            self.spawner.stdin.close()  # the spawner's loop ends at end of input
            self.spawner.wait(timeout=SUBPROCESS_TIMEOUT_S + 30)
            self.spawner.stdout.close()
            self.spawner = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


WORKLOADS = ("small_algebra", "cli")


def make(name, tk, seed, src, out_dir):
    if name == "small_algebra":
        return SmallAlgebra(tk, seed, src)
    return Cli(tk, seed, src, out_dir)
