"""Repository checks: every script under demos/ runs to completion, the
package imports nothing beyond numpy and the standard library and no name it
never uses, it exports each module's public names once, only the CLI's driver
reads and writes files and prints reports, only `core._finite` raises a bare
ArithmeticError, only `core._circulant` builds a hand-strided array, and it
reads tensor files in one pass."""

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
    # `_run` reads the input files and hands the subcommand their tensors;
    # the subcommands return their outputs and report, and `_run` writes and
    # prints them once the subcommand has returned, so a failing run leaves
    # no file, and `main` prints only errors.
    tree = ast.parse((ROOT / "src" / "tsvdkit" / "cli.py").read_text(encoding="utf-8"))
    owners = {"read_tensor": {"_run"}, "write_tensor": {"_run"}, "print": {"_run", "main"}}
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


STRIDE_TRICKS = ("as_strided", "sliding_window_view", "stride_tricks")


def hand_strided(node):
    """True if `node` builds an array by hand from a buffer and strides: a
    call of np.ndarray with a buffer, or a use of numpy's stride tricks."""
    if isinstance(node, ast.Call) and dotted(node.func).split(".")[-1] == "ndarray":
        return len(node.args) > 2 or any(kw.arg == "buffer" for kw in node.keywords)
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [alias.name for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, (ast.Name, ast.Attribute)):
        names = [dotted(node)]
    else:
        return False
    return any(part in STRIDE_TRICKS for name in names for part in name.split("."))


def test_only_core_circulant_builds_a_strided_view():
    # The block circulant's layout has one owner: `bcirc`, `bcirc_inverse`
    # and the spatial `tprod` all reshape the view `core._circulant` builds.
    builders = set()
    for path in sorted((ROOT / "src" / "tsvdkit").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(hand_strided(node) for node in ast.walk(top)):
                builders.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert builders == {"core._circulant"}


def test_strided_view_guard_sees_each_form():
    forms = ["np.ndarray(shape, float, buf, 0, strides)",
             "numpy.ndarray(shape, dtype=float, buffer=buf)",
             "np.lib.stride_tricks.as_strided(x, shape, strides)",
             "from numpy.lib.stride_tricks import sliding_window_view",
             "from numpy.lib import stride_tricks",
             "import numpy.lib.stride_tricks"]
    for form in forms:
        assert any(map(hand_strided, ast.walk(ast.parse(form)))), form
    for form in ["np.ndarray", "isinstance(x, np.ndarray)", "np.ndarray((2, 3))",
                 "x.strides", "np.lib.scimath.sqrt(x)"]:
        assert not any(map(hand_strided, ast.walk(ast.parse(form)))), form


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


def functions(tree):
    """Each function of a module, top-level or a method, by its qualified name."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{top.name}.{node.name}", node
        elif isinstance(top, ast.FunctionDef):
            yield top.name, top


def test_only_fileio_lines_knows_line_breaks():
    # `_lines` alone cuts the text into lines and joins them as the grammar
    # does, so the readers after it hold no line break; `write_tensor`
    # writes them.
    tree = ast.parse((ROOT / "src" / "tsvdkit" / "fileio.py").read_text(encoding="utf-8"))
    splitters, breakers = set(), set()
    for name, func in functions(tree):
        doc = func.body[0].value if isinstance(func.body[0], ast.Expr) else None
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute) and node.attr == "splitlines"
                    or isinstance(node, ast.Name) and node.id == "_BREAKS"):
                splitters.add(name)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node is not doc and "".join(node.value.splitlines()) != node.value):
                breakers.add(name)
    assert splitters == {"_lines"}
    assert breakers <= {"_lines", "write_tensor"}


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
