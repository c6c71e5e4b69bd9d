"""Every name a library module or the test oracles module imports is
used in that module.

The package ``__init__`` is exempt: it imports names to re-export them.
A name counts as used when it is read anywhere in the module, including
inside a quoted annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hyperhom

MODULES = sorted(
    p for p in Path(hyperhom.__file__).parent.glob("*.py") if p.name != "__init__.py"
) + [Path(__file__).parent / "homology_oracle.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "SparseIntMatrix"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree).items()
        if name not in read
    )
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
