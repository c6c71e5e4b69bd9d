"""The library's value classes: written out in the source, nothing
generated at import, and the semantics of a frozen record."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hyperhom
from hyperhom.abelian import FGAbelianGroup
from hyperhom.cli import RunConfig
from hyperhom.fuzz import FuzzConfig, FuzzFailure, FuzzReport
from hyperhom.homology import (
    INTEGERS,
    RATIONALS,
    ChainElement,
    Coefficient,
    GradedSubmodule,
    SimplexCoordinates,
    _FacetCoordinates,
    chain_boundary,
)
from hyperhom.hypergraph import (
    Hypergraph,
    SimplicialComplex,
    hypergraph_from_edges,
    parse_hypergraph,
    random_hypergraph,
)
from hyperhom.intlinalg import SNFResult, SparseIntMatrix
from hyperhom.kunneth import (
    ChainMapReport,
    KunnethReport,
    KunnethRow,
    TensorChain,
    TensorContext,
)

SRC = Path(hyperhom.__file__).parent

_COLD_IMPORT = """
import json, sys
import hyperhom, hyperhom.cli
loaded = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
generated = sorted(
    f"{name}.{attr}"
    for name, mod in list(sys.modules.items())
    if name == "hyperhom" or name.startswith("hyperhom.")
    for attr, value in vars(mod).items()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
)
print(json.dumps([loaded, generated]))
"""


def test_a_cold_import_generates_no_code() -> None:
    # in a fresh interpreter: pytest and hypothesis load dataclasses here
    src = str(SRC.parent)
    out = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT],
        env={"PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == [[], []]
    # and no library module names a class factory or a code generator
    makers = {"dataclass", "make_dataclass", "namedtuple", "NamedTuple", "exec", "compile"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert named.isdisjoint(makers), (path.name, sorted(named & makers))


def _h() -> Hypergraph:
    return hypergraph_from_edges([["a", "b"], ["b"]])


def _complex_fields() -> tuple:
    return ("a", "b"), ((0,), (1,), (0, 1))


def _coordinates() -> SimplexCoordinates:
    return SimplexCoordinates((((0,),), ()))


def _row() -> KunnethRow:
    return KunnethRow(0, FGAbelianGroup(1), FGAbelianGroup(0), FGAbelianGroup(1), True)


# class, fresh positional arguments, field names, and the defaults of the
# trailing fields: the classes' fields and defaults as they were when
# each was a frozen dataclass
CASES = [
    (FGAbelianGroup, lambda: (1, (2, 4)), ("rank", "invariants"), {"invariants": ()}),
    (
        RunConfig,
        lambda: ("fuzz", ("x",), RATIONALS, True, 3, "structured", 2, "o", True, 7, 5),
        ("command", "inputs", "coeff", "verify", "seed", "out_format", "max_dim",
         "out_path", "closure", "count", "max_vertices"),
        {"inputs": (), "coeff": INTEGERS, "verify": False, "seed": 0, "out_format": "text",
         "max_dim": None, "out_path": None, "closure": False, "count": 100,
         "max_vertices": None},
    ),
    (FuzzConfig, lambda: (4, 9, 5, 2), ("count", "seed", "max_vertices", "max_dim"),
     {"max_vertices": 6, "max_dim": 3}),
    (FuzzFailure, lambda: (3, "crash", "boom", _h(), _h()),
     ("index", "category", "detail", "left", "right"), {}),
    (FuzzReport, lambda: (FuzzConfig(1, 2), 1, ()), ("config", "checked", "failures"), {}),
    (Coefficient, lambda: ("zp", 3), ("kind", "p"), {}),
    (ChainElement, lambda: (1, {(0, 1): 2}), ("degree", "coeffs"), {}),
    (SimplexCoordinates, lambda: ((((0,),), ()),), ("simplices",), {}),
    (_FacetCoordinates, lambda: ((((0,),), ()), (1, 0)), ("simplices", "edges"), {}),
    (GradedSubmodule, lambda: (_coordinates(), (SparseIntMatrix.identity(1), SparseIntMatrix(0, 0))),
     ("coordinates", "bases"), {}),
    (Hypergraph, lambda: (("a", "b"), ((1,), (0, 1))), ("vertices", "edges"), {}),
    (SimplicialComplex, _complex_fields, ("vertices", "edges"), {}),
    (SNFResult, lambda: ((1,), SparseIntMatrix.identity(1), SparseIntMatrix.identity(1)),
     ("d", "left", "right"), {}),
    (TensorContext, lambda: (_h(), _h()), ("left", "right"), {}),
    (KunnethRow, lambda: (0, FGAbelianGroup(1), FGAbelianGroup(0), FGAbelianGroup(1), True),
     ("degree", "tensor_part", "tor_part", "product_value", "ok"), {}),
    (KunnethReport, lambda: (INTEGERS, (_row(),)), ("coeff", "rows"), {}),
    (ChainMapReport, lambda: (2, 3, 4),
     ("top_degree", "tensor_columns_checked", "product_columns_checked"), {}),
]

# a field that is a dict or a matrix has no hash, so neither has its value
UNHASHABLE = {ChainElement, GradedSubmodule, SNFResult}


@pytest.mark.parametrize("cls, make, fields, defaults", CASES, ids=[c[0].__name__ for c in CASES])
def test_a_value_class_is_a_frozen_record(cls, make, fields, defaults) -> None:
    args = make()
    value = cls(*args)
    assert tuple(getattr(value, f) for f in fields) == args
    assert cls(**dict(zip(fields, make()))) == value
    required = len(fields) - len(defaults)
    bare = cls(*args[:required])
    assert {f: getattr(bare, f) for f in fields[required:]} == defaults
    # equality and hash follow the fields, within one class only
    assert value == cls(*make()) and not value != cls(*make())
    assert value != bare or not defaults
    assert value != args and value != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(*make()))
    # nothing is assigned or deleted after construction, nor added
    for name in (fields[0], "_fields", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert tuple(getattr(value, f) for f in fields) == args
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, args))
    assert repr(value) == f"{cls.__qualname__}({body})"


def test_a_subclass_value_never_equals_its_base_value() -> None:
    vertices, edges = _complex_fields()
    assert SimplicialComplex(vertices, edges) != Hypergraph(vertices, edges)
    assert Hypergraph(vertices, edges) != SimplicialComplex(vertices, edges)
    simplices = (((0,),), ())
    assert _FacetCoordinates(simplices, (1, 0)) != SimplexCoordinates(simplices)
    assert TensorChain(0, {}) != ChainElement(0, {})


_A, _B = ChainElement.of_simplex((0, 1)), ChainElement.of_simplex((1, 2))


@pytest.mark.parametrize(
    "cls, build",
    [
        pytest.param(Hypergraph, lambda: Hypergraph(("a", "b"), ((1,), (0, 1))), id="Hypergraph"),
        pytest.param(Hypergraph, lambda: SimplicialComplex(*_complex_fields()), id="complex"),
        pytest.param(Hypergraph, lambda: hypergraph_from_edges([["a", "b"], ["c"]]), id="edges"),
        pytest.param(Hypergraph, lambda: parse_hypergraph("a b\nc\n"), id="text"),
        pytest.param(Hypergraph, lambda: parse_hypergraph('{"edges": [["a"]]}'), id="json"),
        pytest.param(Hypergraph, lambda: random_hypergraph(4, 2, 0.5, 1), id="random"),
        pytest.param(ChainElement, lambda: ChainElement(1, {(0, 1): 1}), id="ChainElement"),
        pytest.param(ChainElement, lambda: ChainElement.of_simplex((0, 1)), id="simplex"),
        pytest.param(ChainElement, lambda: TensorChain.of_pair((0,), (1, 2)), id="pair"),
        pytest.param(ChainElement, lambda: _A + _B, id="sum"),
        pytest.param(ChainElement, lambda: chain_boundary(_A), id="boundary"),
    ],
)
def test_each_public_construction_validates_once(spy, cls, build) -> None:
    # so the spies that count validations see every one
    validated = spy(cls, "__post_init__")
    build()
    assert len(validated) == 1
