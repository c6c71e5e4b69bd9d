"""The library builds a ``LatticeSolver`` in one place only,
``GradedSubmodule.solver``, so there is one solver per (submodule,
degree): the restricted boundaries, the chain-map matrices and
membership all solve with it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hyperhom


def _solver_sites(path: Path) -> list[str]:
    """The qualified name of the function around each ``LatticeSolver(``
    call in one module, ``<module>`` at the top level."""
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "LatticeSolver":
                    sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return sites


def test_only_graded_submodule_solver_builds_a_lattice_solver() -> None:
    package = Path(hyperhom.__file__).parent
    sites = [
        f"{path.name}:{site}"
        for path in sorted(package.glob("*.py"))
        for site in _solver_sites(path)
    ]
    assert sites == ["homology.py:GradedSubmodule.solver"]
