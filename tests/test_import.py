"""`import bolostat` stays cheap, and its exports name what exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's `from .module import ...` statements
PACKAGE_IMPORTS = [
    node
    for node in ast.parse((ROOT / "src" / "bolostat" / "__init__.py").read_text()).body
    if isinstance(node, ast.ImportFrom) and node.level == 1
]


def test_import_loads_no_scipy():
    # a fresh interpreter, so that modules the tests imported do not count
    code = "import sys, bolostat; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", [node.module for node in PACKAGE_IMPORTS])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"bolostat.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_exported_names():
    unexported = [
        f"{node.module}.{alias.name}"
        for node in PACKAGE_IMPORTS
        for alias in node.names
        if alias.name not in importlib.import_module(f"bolostat.{node.module}").__all__
    ]
    assert unexported == []
