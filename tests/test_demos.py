"""Repository checks: every script under demos/ runs to completion, the
package imports nothing beyond numpy and the standard library and no name it
never uses, it exports each module's public names once, and it reads tensor
files in one pass."""

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
            assert not (node.func.attr == "read" and not node.args and not node.keywords), (
                f"line {node.lineno} reads a file whole")
