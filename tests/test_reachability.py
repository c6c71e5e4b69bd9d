"""No library code exists only for the tests.

Every top-level function or class of a ``src/hyperhom`` module, and
every method of such a class other than a dunder, must be reached in
one of three ways:

- library code outside its own definition reads it: a top-level name as
  an ``ast.Name`` or an ``ast.Attribute``, a method as an
  ``ast.Attribute``;
- it is in ``hyperhom.__all__``, the public surface;
- it is on ``ALLOWED`` below.

The rule goes by name: a read of ``x.is_zero`` reaches every method
called ``is_zero``. The package ``__init__`` imports names to re-export
them, and an import is not a read.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hyperhom

PACKAGE = Path(hyperhom.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

ALLOWED = {
    # the named inputs of ``hyperhom.examples``, example data for the
    # tests and the showcase script
    "examples.vertex_hypergraph",
    "examples.triangle_boundary",
    "examples.product_demo_pair",
    "examples.homology_demo_pair",
    "examples.tensor_membership_pair",
    "examples.projective_plane",
    # read by the release gate, tests/test_acceptance.py, whose checks
    # stay as they are
    "intlinalg.determinant",
    "intlinalg.column_hnf",
    "intlinalg.SparseIntMatrix.from_rows",
    "intlinalg.SparseIntMatrix.from_columns",
    "intlinalg.SparseIntMatrix.iter_entries",
    "hypergraph.Hypergraph.edge_token_sets",
    "homology.GradedSubmodule.contains",
    "homology.Coordinates.to_vector",
    # wrapped by the benchmark's ``abelian.presentation`` layer
    # (perfbench/tracing.py); the benchmark change that drops the layer
    # moves it into tests/homology_oracle.py
    "abelian.from_presentation",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module) -> dict[str, tuple[str, bool]]:
    """Each definition the rule covers, by qualified name, with its bare
    name and whether it is a method."""
    out = {}
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        out[f"{module}.{node.name}"] = (node.name, False)
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, _DEFS[:2]) and not _is_dunder(m.name):
                    out[f"{module}.{node.name}.{m.name}"] = (m.name, True)
    return out


def _reads(module: str, tree: ast.Module) -> list[tuple[str, bool, str]]:
    """Each name read in one module: the name, whether it is an
    attribute read, and the qualified name of the definition around it."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                out.append((child.id, False, scope))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                out.append((child.attr, True, scope))
            visit(child, f"{scope}.{child.name}" if isinstance(child, _DEFS) else scope)

    visit(tree, module)
    return out


def unreached() -> set[str]:
    """The qualified names of definitions that neither library code
    outside their own definition nor ``hyperhom.__all__`` reaches."""
    defs: dict[str, tuple[str, bool]] = {}
    reads: list[tuple[str, bool, str]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs.update(_definitions(path.stem, tree))
        reads.extend(_reads(path.stem, tree))
    exported = set(hyperhom.__all__)
    return {
        qual
        for qual, (name, method) in defs.items()
        if name not in exported
        and not any(
            read == name
            and (attr or not method)
            and scope != qual
            and not scope.startswith(qual + ".")
            for read, attr, scope in reads
        )
    }


def test_every_library_definition_is_reached() -> None:
    test_only = sorted(unreached() - ALLOWED)
    assert test_only == [], (
        f"library code no library module reads: {test_only}; "
        "delete it, or move the tests onto the API that remains"
    )


def test_the_allowlist_names_only_unreached_definitions() -> None:
    # an entry that is gone, or that the library now reads, goes too
    stale = sorted(ALLOWED - unreached())
    assert stale == [], f"ALLOWED names a definition that is gone or reached: {stale}"


def test_the_allowlist_is_the_examples_the_release_gate_and_the_benchmark() -> None:
    tree = ast.parse(ACCEPTANCE.read_text(), filename=str(ACCEPTANCE))
    gate = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    gate |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    gate |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    other = sorted(
        qual
        for qual in ALLOWED - {"abelian.from_presentation"}
        if not qual.startswith("examples.") and qual.rpartition(".")[2] not in gate
    )
    assert other == [], f"ALLOWED names what tests/test_acceptance.py does not read: {other}"
