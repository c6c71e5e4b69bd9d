"""Independent routes kept as test oracles.

Homology: the library reads each homology group off the invariant
factors of the boundary matrices. This module takes the longer way that
it replaced: a saturated kernel basis of each boundary (the cycles), the
boundaries from one degree up written in that cycle basis by lattice
solves, and the cokernel of that relation matrix. Both routes start from
the same boundary matrices and end in a Smith normal form; in between
they share no code.

Coordinates: the library builds the infimum and supremum on facet
coordinates (n-hyperedges and facets of (n+1)-hyperedges). The oracles
here build them, as the library once did, inside the chain complex of
the whole downward closure, with the closure itself as coordinates.

Boundaries: the library reads a cell's signed faces off its chain type,
for simplices and simplex pairs alike. The oracles here write the two
face rules out separately, as the library once did: a loop over
``combinations`` for simplex coordinates, and vertex slicing for tensor
chains.
"""

from __future__ import annotations

import itertools

from hyperhom.abelian import FGAbelianGroup, from_presentation
from hyperhom.errors import IntegrityError
from hyperhom.homology import (
    GradedSubmodule,
    SimplexCoordinates,
    boundary_matrix,
    inf_bases_of_span,
    restricted_boundaries,
)
from hyperhom.hypergraph import Hypergraph, SimplicialComplex, associated_complex
from hyperhom.kunneth import SimplexPair, TensorChain, TensorContext
from hyperhom.intlinalg import (
    LatticeSolver,
    SparseIntMatrix,
    kernel_basis,
    lattice_sum_basis,
)


def oracle_chain_homology(d: list[SparseIntMatrix]) -> list[FGAbelianGroup]:
    """Integral homology of the chain complex with boundaries ``d``, one
    group per degree 0..len(d)-1: cycles modulo boundaries, presented."""
    top = len(d) - 1
    groups: list[FGAbelianGroup] = []
    for n in range(top + 1):
        cycles = kernel_basis(d[n])
        if cycles.ncols == 0:
            groups.append(FGAbelianGroup.trivial())
            continue
        if n == top or d[n + 1].ncols == 0:
            groups.append(FGAbelianGroup(cycles.ncols))
            continue
        solver = LatticeSolver(cycles)
        rel_cols = []
        for j in range(d[n + 1].ncols):
            coeffs = solver.solve(d[n + 1].column(j))
            if coeffs is None:
                raise IntegrityError(
                    f"degree-{n + 1} boundary image is not a degree-{n} cycle"
                )
            rel_cols.append(coeffs)
        relations = SparseIntMatrix.from_columns(cycles.ncols, rel_cols)
        groups.append(from_presentation(relations, ambient_rank=cycles.ncols))
    return groups


def oracle_submodule_homology(m: GradedSubmodule) -> list[FGAbelianGroup]:
    """Integral homology of a boundary-stable graded submodule."""
    return oracle_chain_homology(restricted_boundaries(m))


def oracle_classical_homology(k: SimplicialComplex) -> list[FGAbelianGroup]:
    """Integral simplicial homology of ``k``, degrees 0 through dim+1."""
    return oracle_chain_homology(
        [boundary_matrix(k.coordinates, n) for n in range(k.dim + 2)]
    )


def _closure_positions(h: Hypergraph, k: SimplicialComplex, n: int) -> list[int]:
    pos = k.simplex_positions(n)
    return [pos[e] for e in h.edges_of_dim(n)]


def oracle_inf_chain(h: Hypergraph) -> GradedSubmodule:
    """The infimum of ``h`` in the coordinates of its downward closure."""
    k = associated_complex(h)
    top = h.dim + 1
    if h.is_closed():
        bases = tuple(
            SparseIntMatrix.identity(len(k.simplices_of_dim(n)))
            for n in range(top + 1)
        )
        return GradedSubmodule(k.coordinates, bases)
    generators = tuple(
        tuple(_closure_positions(h, k, n)) for n in range(top + 1)
    )
    return GradedSubmodule(
        k.coordinates, inf_bases_of_span(k.coordinates.boundaries, generators)
    )


def oracle_sup_chain(h: Hypergraph) -> GradedSubmodule:
    """The supremum of ``h`` in the coordinates of its downward closure."""
    k = associated_complex(h)
    top = h.dim + 1
    bases = []
    for n in range(top + 1):
        ambient = len(k.simplices_of_dim(n))
        span = SparseIntMatrix.from_columns(
            ambient, [{p: 1} for p in _closure_positions(h, k, n)]
        )
        if n + 1 <= top:
            d_above = k.coordinates.boundaries[n + 1]
            image = SparseIntMatrix.from_columns(
                ambient,
                [dict(d_above.column(p)) for p in _closure_positions(h, k, n + 1)],
            )
        else:
            image = SparseIntMatrix(ambient, 0)
        bases.append(lattice_sum_basis(span, image))
    return GradedSubmodule(k.coordinates, tuple(bases))


def oracle_boundary_matrix(k: SimplexCoordinates, n: int) -> SparseIntMatrix:
    """The simplicial boundary from degree n to degree n-1 on simplex
    coordinates, dropping vertex j with sign (-1)^j; a face outside the
    coordinates gets an overflow row, in order of first occurrence."""
    cols = k.simplices_of_dim(n)
    pos = k.simplex_positions(n - 1)
    overflow: dict[tuple[int, ...], int] = {}
    out: list[dict[int, int]] = []
    for s in cols:
        col: dict[int, int] = {}
        if n:
            # combinations drops the last vertex first
            for drop, f in zip(range(n, -1, -1), itertools.combinations(s, n)):
                i = pos.get(f)
                if i is None:
                    i = overflow.setdefault(f, len(pos) + len(overflow))
                col[i] = -1 if drop % 2 else 1
        out.append(col)
    return SparseIntMatrix.from_columns(len(pos) + len(overflow), out)


def oracle_tensor_boundary(t: TensorChain) -> TensorChain:
    """Boundary of a tensor chain: differentiate the left factor, then
    the right factor with the sign (-1)^(left degree)."""
    acc: dict[SimplexPair, int] = {}

    def put(key: SimplexPair, v: int) -> None:
        acc[key] = acc.get(key, 0) + v

    for (s, u), c in t.terms.items():
        if len(s) > 1:
            for j in range(len(s)):
                put((s[:j] + s[j + 1 :], u), c if j % 2 == 0 else -c)
        if len(u) > 1:
            sign = 1 if (len(s) - 1) % 2 == 0 else -1
            for j in range(len(u)):
                put((s, u[:j] + u[j + 1 :]), sign * (c if j % 2 == 0 else -c))
    return TensorChain(t.degree - 1, {k: v for k, v in acc.items() if v})


def oracle_tensor_boundary_matrix(ctx: TensorContext, n: int) -> SparseIntMatrix:
    """The degree-n boundary of a tensor context, one
    :func:`oracle_tensor_boundary` per cell. The tensor complex of two
    closures is closed, so there are no overflow rows."""
    pos = ctx.simplex_positions(n - 1)
    cols = []
    for pair in ctx.simplices_of_dim(n):
        image = oracle_tensor_boundary(TensorChain.of_pair(*pair))
        cols.append({pos[key]: v for key, v in image.terms.items()})
    return SparseIntMatrix.from_columns(len(pos), cols)
