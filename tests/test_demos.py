"""Repository checks: every script under demos/ runs to completion, and the
package imports nothing beyond numpy and the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
PRIVATE_NUMPY = {"numpy.linalg._umath_linalg"}


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
