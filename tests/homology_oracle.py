"""Independent route to integral homology, kept as a test oracle.

The library reads each homology group off the invariant factors of the
boundary matrices. This module takes the longer way that it replaced:
a saturated kernel basis of each boundary (the cycles), the boundaries
from one degree up written in that cycle basis by lattice solves, and
the cokernel of that relation matrix. Both routes start from the same
boundary matrices and end in a Smith normal form; in between they share
no code.
"""

from __future__ import annotations

from hyperhom.abelian import FGAbelianGroup, from_presentation
from hyperhom.errors import IntegrityError
from hyperhom.homology import GradedSubmodule, boundary_matrix, restricted_boundaries
from hyperhom.hypergraph import SimplicialComplex
from hyperhom.intlinalg import LatticeSolver, SparseIntMatrix, kernel_basis


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
