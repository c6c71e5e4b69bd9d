"""The library builds a ``LatticeSolver`` in one place only,
``GradedSubmodule.solver``, so there is one solver per (submodule,
degree): the restricted boundaries, the chain-map matrices and
membership all solve with it. And it solves in two places only:
``map_in_bases``, which writes every graded map in bases, and
``GradedSubmodule.contains``.

Outside ``intlinalg`` no module writes a matrix's ``_cols``: the library
hands the columns it builds to ``SparseIntMatrix._adopt``.

A hypergraph is adopted without validation in two places only, where it
holds by construction: the closure in ``associated_complex`` and the
product in ``product_boxtimes``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hyperhom


def _sites(path: Path, hit) -> list[str]:
    """The qualified name of the function around each node that ``hit``
    accepts in one module, ``<module>`` at the top level."""
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return sites


def _package_sites(hit) -> list[str]:
    package = Path(hyperhom.__file__).parent
    return [
        f"{path.name}:{site}"
        for path in sorted(package.glob("*.py"))
        for site in _sites(path, hit)
    ]


def _builds_a_solver(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "LatticeSolver"


def _reads_solve(node: ast.AST) -> bool:
    # an attribute read, so a bound ``solve`` kept for later counts too
    return isinstance(node, ast.Attribute) and node.attr == "solve"


def _writes_cols(node: ast.AST) -> bool:
    # ``m._cols = ...``, or a subscript store through it: ``m._cols[j][i] = ...``
    if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
        return False
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "_cols"


def _adopts_a_hypergraph(node: ast.AST) -> bool:
    # any ``X._adopt(...)`` call but ``SparseIntMatrix._adopt(...)``
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    f = node.func
    return f.attr == "_adopt" and not (
        isinstance(f.value, ast.Name) and f.value.id == "SparseIntMatrix"
    )


def test_only_graded_submodule_solver_builds_a_lattice_solver() -> None:
    assert _package_sites(_builds_a_solver) == ["homology.py:GradedSubmodule.solver"]


def test_only_map_in_bases_and_membership_solve() -> None:
    assert _package_sites(_reads_solve) == [
        "homology.py:GradedSubmodule.contains",
        "homology.py:map_in_bases",
    ]


def test_only_intlinalg_writes_matrix_columns() -> None:
    sites = _package_sites(_writes_cols)
    assert [s for s in sites if not s.startswith("intlinalg.py:")] == []
    assert "intlinalg.py:SparseIntMatrix._adopt" in sites


def test_only_the_closure_and_the_product_adopt_a_hypergraph() -> None:
    assert _package_sites(_adopts_a_hypergraph) == [
        "hypergraph.py:associated_complex",
        "hypergraph.py:product_boxtimes",
    ]
