"""Line counts of the package, by kind: what a change does to the code apart from its prose.

    python tools/loc.py [PACKAGE_DIR]

For each module of PACKAGE_DIR (default: this checkout's ``src/qlaplace``) and in total, it
prints the physical lines and how they split into four kinds, which sum to them:

- ``code``: a line with a token of a statement or an expression on it (a multi-line string
  that is not a docstring included), or with anything else not listed below, such as a
  backslash continuation alone;
- ``docstring``: a line of a module, class or function docstring (found by ast) and no code;
- ``comment``: a line with a comment and no code or docstring;
- ``blank``: a line with nothing on it but whitespace.

Tokens are read by tokenize.  Deleting docstrings or comments moves only their own columns,
so a change's ``code`` column shows what it does to the code itself.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                v = first.value
                spans.append(((v.lineno, v.col_offset), (v.end_lineno, v.end_col_offset)))
    return spans


def count(source: str) -> dict[str, int]:
    """The physical lines of ``source`` and their split into `KINDS`."""
    lines = source.splitlines()
    docs = _docstrings(ast.parse(source))
    marks: dict[str, set[int]] = {"code": set(), "docstring": set(), "comment": set()}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif tok.type in _LAYOUT:
            continue
        elif tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in docs):
            kind = "docstring"
        else:
            kind = "code"
        marks[kind].update(range(tok.start[0], tok.end[0] + 1))
    out = dict.fromkeys(("physical", *KINDS), 0)
    out["physical"] = len(lines)
    for row, text in enumerate(lines, 1):
        kind = next((k for k in ("code", "docstring", "comment") if row in marks[k]), None)
        out[kind or ("blank" if not text.strip() else "code")] += 1
    return out


def table(package: Path) -> list[tuple[str, dict[str, int]]]:
    """`count` of every module of ``package``, by name, then their total."""
    rows = [(p.name, count(p.read_text(encoding="utf-8"))) for p in sorted(package.glob("*.py"))]
    total = {k: sum(r[k] for _, r in rows) for k in ("physical", *KINDS)}
    return rows + [("total", total)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "qlaplace")
    args = ap.parse_args(argv)
    cols = ("physical", *KINDS)
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in cols))
    for name, row in table(args.package):
        print(f"{name:<16}" + "".join(f"{row[c]:>11}" for c in cols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
