"""Every name a package module imports is used there, exported, or marked as kept,
and a statement marked as kept binds only names that nothing in the module uses; every
name a module exports exists and the package imports only exported names; and
importing the CLI loads no numpy submodule the package does not need."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qlaplace"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read or listed in __all__, unless their
    statement carries ``# noqa: F401``; and on such a statement every name that is read or
    listed, so that one marker excuses only the names it is there for."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        kept = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if (name in used) == kept:
                unused.append(f"line {node.lineno}: {name}" + (" is used but marked as kept" if kept else ""))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_a_leftover_import():
    source = "from dataclasses import dataclass, replace\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["line 1: replace"]
    assert unused_imports("import os.path  # noqa: F401\n") == []
    assert unused_imports("import os.path\n__all__ = ['os']\n") == []


def test_the_check_sees_a_used_name_marked_as_kept():
    source = "import os  # noqa: F401\nfrom math import exp, pi  # noqa: F401\n\nprint(pi)\n"
    assert unused_imports(source) == ["line 2: pi is used but marked as kept"]
    assert unused_imports("from math import pi  # noqa: F401\n__all__ = ['pi']\n") == [
        "line 1: pi is used but marked as kept"]


def dangling_exports(module) -> list[str]:
    """Entries of the module's ``__all__`` that it does not bind."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def unexported_package_imports(source: str) -> list[str]:
    """``module.name`` for each name a package ``__init__`` imports from a module that
    leaves it out of its ``__all__``."""
    stray = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"qlaplace.{node.module}").__all__
            stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    return stray


# the CLI module is an entry point, not a library module: it has no __all__
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_every_export_resolves(path):
    assert dangling_exports(importlib.import_module(f"qlaplace.{path.stem}")) == []


def test_package_imports_only_exported_names():
    assert unexported_package_imports((SRC / "__init__.py").read_text()) == []


def test_the_surface_checks_see_a_stray_name():
    class Module:
        __all__ = ["kept", "gone"]
        kept = 1

    assert dangling_exports(Module) == ["gone"]
    assert unexported_package_imports("from .errors import DomainError, ConvergenceError\n") == [
        "errors.ConvergenceError"]


def test_cli_import_leaves_out_numpy_polynomial():
    # the quadrature rule is written out and the Gaussian factor uses np.convolve/np.polyval
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qlaplace.cli; print('numpy.polynomial' in sys.modules, 'numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
