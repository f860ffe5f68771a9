"""Repository checks: every script under demos/ runs to completion, the
package imports nothing beyond numpy and the standard library and no name it
never uses, it exports each module's public names once, only the CLI's driver
writes files and prints reports, only `core._finite` raises a bare
ArithmeticError, and it reads tensor files in one pass."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsvdkit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# numpy's private modules the package may import; each can change in any
# numpy release, so each one is a deliberate, listed choice.
PRIVATE_NUMPY = {"numpy.fft._pocketfft_umath", "numpy.linalg._umath_linalg"}


def test_package_imports_only_numpy_and_the_stdlib():
    # numpy is the one runtime dependency pyproject.toml declares.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    private = set()
    for path in sorted((ROOT / "src" / "tsvdkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                assert parts[0] in allowed, f"{path.name} imports {name}"
                if parts[0] != "numpy":
                    continue
                # The dotted name up to its first private part, if any.
                for i, part in enumerate(parts):
                    if part.startswith("_"):
                        module = ".".join(parts[: i + 1])
                        assert module in PRIVATE_NUMPY, f"{path.name} imports {name}"
                        private.add(module)
                        break
    assert private == PRIVATE_NUMPY


# The names that reach the FFT, SVD and QR kernels; spectral.py owns them.
KERNEL_NAMES = {"_kernels", "_umath_linalg", "_pocketfft_umath"}
KERNEL_CALLS = ("np.fft", "numpy.fft", "np.linalg.svd", "numpy.linalg.svd",
                "np.linalg.qr", "numpy.linalg.qr")


def dotted(node):
    """The dotted name an attribute chain spells, such as "np.linalg.svd"."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_only_spectral_reaches_the_kernels():
    # The rest of the package runs FFTs, SVDs and QRs through spectral's
    # half-spectrum helpers, so the layout and LAPACK's contracts live in one
    # module.
    for path in sorted((ROOT / "src" / "tsvdkit").glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [dotted(node)]
            else:
                continue
            for name in names:
                where = f"{path.name}:{node.lineno} names {name}"
                assert not set(name.split(".")) & KERNEL_NAMES, where
                assert not any(name == call or name.startswith(call + ".")
                               for call in KERNEL_CALLS), where


def test_only_the_cli_driver_writes_and_prints():
    # The subcommands return their outputs and report; `_run` writes and
    # prints them once the subcommand has returned, so a failing run leaves
    # no file, and `main` prints only errors.
    tree = ast.parse((ROOT / "src" / "tsvdkit" / "cli.py").read_text(encoding="utf-8"))
    owners = {"write_tensor": {"_run"}, "print": {"_run", "main"}}
    named_in = {name: set() for name in owners}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in owners:
                named_in[node.id].add(getattr(top, "name", f"line {top.lineno}"))
    assert named_in == owners


def test_only_core_finite_raises_arithmetic_error():
    # A result beyond float64's range is refused in one place, with one
    # message.  SingularSliceError and SvdConvergenceError report other
    # failures and are raised under their own names.
    raisers = set()
    for path in sorted((ROOT / "src" / "tsvdkit").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if dotted(exc) == "ArithmeticError":
                        raisers.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert raisers == {"core._finite"}


def module_imports(node):
    """Each name bound by a module-level import, also inside a top-level try."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            for alias in child.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(child, (ast.Try, ast.ExceptHandler)):
            yield from module_imports(child)


def test_package_has_no_unused_imports():
    # __init__.py imports in order to re-export, so it is the one exception.
    for path in sorted((ROOT / "src" / "tsvdkit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for name in module_imports(tree):
            assert name in used, f"{path.name} imports {name} and never uses it"


def test_package_exports_each_module_all_once():
    modules = [importlib.import_module(f"tsvdkit.{name}")
               for name in ("core", "tprod", "spectral", "kmsvd", "fileio")]
    exported = tsvdkit.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == {"__version__"}.union(*(mod.__all__ for mod in modules))
    for mod in modules:
        for name in mod.__all__:
            assert getattr(tsvdkit, name) is getattr(mod, name), f"{mod.__name__}.{name}"
    namespace = {}
    exec("from tsvdkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(exported)


def test_tensor_files_are_read_in_one_pass():
    # A read that never seeks and never reads a file whole takes any input,
    # pipes included, once and in bounded pieces.
    tree = ast.parse((ROOT / "src" / "tsvdkit" / "fileio.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert node.func.attr != "seek", f"line {node.lineno} seeks"
            if node.func.attr in ("read", "readline"):
                bound = [ast.unparse(arg) for arg in node.args + node.keywords]
                assert bound == ["_READ_CHUNK"], (
                    f"line {node.lineno} reads without the _READ_CHUNK bound")
