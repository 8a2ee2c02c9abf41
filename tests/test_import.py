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


# the |z| = 8 seam of the Voigt line: the split, the series and the
# rational form that meet there are private to `specfun`
SEAM_NAMES = {"_SERIES_FROM", "_asymptotic", "_per_point", "_w_rational", "_near"}


def _imported(tree, module=None):
    """Names ``tree`` takes with ``from ... import``, from ``module`` only if given."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and module in (None, (node.module or "").split(".")[-1])
        for alias in node.names
    ]


def test_only_specfun_knows_the_seam():
    sources = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "bolostat").glob("*.py"))
        if path.name != "specfun.py"
    }
    leaks = {}
    for name, tree in sources.items():
        # an attribute read such as ``specfun._near`` counts as an import
        read = _imported(tree) + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
        if SEAM_NAMES & set(read):
            leaks[name] = sorted(SEAM_NAMES & set(read))
    assert leaks == {}
    assert _imported(sources["response.py"], "specfun") == ["_mean_inverse"]


# the names through which Python reads the process environment
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # a run's inputs are its command line and files: a config's `seed` is
    # its only seed, so no environment variable can move an output
    readers = {}
    for path in sorted((ROOT / "src" / "bolostat").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _imported(tree) + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
        if ENVIRONMENT_NAMES & set(names):
            readers[path.name] = sorted(ENVIRONMENT_NAMES & set(names))
    assert readers == {}


def test_no_module_imports_warnings():
    # a fit that ends on a bound reports it in its result, and the CLI
    # writes its notes to stderr: the package emits no Python warning
    importers = []
    for path in sorted((ROOT / "src" / "bolostat").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        if "warnings" in modules:
            importers.append(path.name)
    assert importers == []
