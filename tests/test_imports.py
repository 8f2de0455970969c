"""Every name a package module imports is used there, exported, or marked as kept,
and a statement marked as kept binds only names that nothing in the module uses."""

import ast
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
