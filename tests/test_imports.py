"""Every module under src/phl and tests reads each top-level name it imports.

`__init__.py` re-exports and is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "phl", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def top_level_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by imports outside any function or class, with their
    lines; imports under a module-level `if` or `try` count too."""
    out: dict[str, int] = {}
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [s for h in getattr(node, "handlers", []) for s in h.body]
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"line {line}: {name}"
                  for name, line in top_level_imports(tree).items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from a import b, c as d\n"
              "try:\n    import e\nexcept ImportError:\n    e = None\n"
              "def f():\n    import g\n    return d\n")
    assert unused_imports(source) == ["line 2: os", "line 3: b", "line 5: e"]
