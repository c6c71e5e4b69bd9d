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
"""

from __future__ import annotations

from hyperhom.abelian import FGAbelianGroup, from_presentation
from hyperhom.errors import IntegrityError
from hyperhom.homology import (
    GradedSubmodule,
    boundary_matrix,
    inf_bases_of_span,
    restricted_boundaries,
)
from hyperhom.hypergraph import Hypergraph, SimplicialComplex, associated_complex
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
            groups.append(FGAbelianGroup.free(cycles.ncols))
            continue
        solver = LatticeSolver(cycles)
        rel_cols = []
        for j in range(d[n + 1].ncols):
            coeffs = solver.solve(d[n + 1].column(j))
            if coeffs is None:
                raise IntegrityError(
                    f"degree-{n + 1} boundary image is not a degree-{n} cycle"
                )
            rel_cols.append({i: v for i, v in enumerate(coeffs) if v})
        relations = SparseIntMatrix.from_columns(cycles.ncols, rel_cols)
        groups.append(from_presentation(relations, ambient_rank=cycles.ncols))
    return groups


def oracle_submodule_homology(m: GradedSubmodule) -> list[FGAbelianGroup]:
    """Integral homology of a boundary-stable graded submodule."""
    return oracle_chain_homology(restricted_boundaries(m))


def oracle_classical_homology(k: SimplicialComplex) -> list[FGAbelianGroup]:
    """Integral simplicial homology of ``k``, degrees 0 through dim+1."""
    return oracle_chain_homology([boundary_matrix(k, n) for n in range(k.dim + 2)])


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
