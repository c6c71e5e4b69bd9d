"""Independent routes kept as test oracles.

Homology: the library reduces the whole chain complex by its unit
pairs and takes the Smith normal form of the small residual only. Two
routes it replaced live on here. :func:`oracle_factor_homology` takes
one Smith normal form of each boundary matrix as it stands.
:func:`oracle_chain_homology` takes the longer way: a saturated kernel
basis of each boundary (the cycles), the boundaries from one degree up
written in that cycle basis by lattice solves, and the cokernel of that
relation matrix. All three start from the same boundary matrices and
end in a Smith normal form (the library's on the unit-free residual
only); in between, the reduction shares no code with either oracle.

Coordinates: the library builds the infimum on the hyperedges alone and
the supremum on facet coordinates (facets of (n+1)-hyperedges, then
n-hyperedges), and differentiates hyperedges only. The oracles here
build both, as the library once did, inside the chain complex of the
whole downward closure, with the closure itself as coordinates, and
take the boundary of every closure simplex.
:func:`oracle_restricted_boundaries` differentiates every basis column
as it stands, where the library gives the supremum's cycles zero
columns unsolved.

Boundaries: the library reads a cell's signed faces off its chain type,
for simplices and simplex pairs alike. The oracles here write the two
face rules out separately, as the library once did: a loop over
``combinations`` for simplex coordinates, and vertex slicing for tensor
chains.

Invariant factors: the library inserts each cyclic order into the
divisibility chain by gcd/lcm swaps. :func:`oracle_regroup` factors each
order into prime powers and deals them out per prime, as the library
once did.

Lattice solves: the library's bases are in echelon form, and
``LatticeSolver`` solves against one by forward substitution on the
columns' leading rows, refusing any other basis. :class:`OracleSolver`
solves as the library once did: it echelonizes the basis columns with
identity tails, so it takes any independent basis, and reads the
coefficients off the tails. :func:`oracle_chain_homology` solves with it.

Hermite bases: the library's supremum basis is an echelon, not
canonical: the boundaries from one degree up, reduced only until they
lead on a hyperedge row, then a unit column per hyperedge.
:func:`oracle_sup_chain` takes the Hermite-canonical basis of the whole
lattice sum instead, with :func:`oracle_column_hnf`, which echelonizes
every column as it stands; the tests compare the two as lattices.

Restricted boundaries: the library writes them with ``map_in_bases``,
which solves each image with ``LatticeSolver``.
:func:`oracle_restricted_boundaries` writes them from the oracle
boundary matrices and solves with :class:`OracleSolver`, so
:func:`oracle_submodule_homology` shares neither step with the library.

Chain maps: the library writes the shuffle and front/back-face maps as
cell rules (``TensorContext.shuffle`` and ``front_back``), turns them
into matrices on the cells the infimum bases reach, and checks the
chain-map identities as matrix equalities. :func:`oracle_chainmap_check`
checks them as the library once did, one basis chain at a time: map it
with ``ez_map``/``aw_map``, take chain boundaries on both sides, and map
back. Both routes read the same two rules, so a rule planted on
``TensorContext`` reaches both; :func:`oracle_shuffle` and
:func:`oracle_front_back` check the rules themselves. The shuffle oracle
sums over (p, q)-shuffle permutations signed by their sign, where the
library signs lattice paths by their area; the front/back-face oracle
tries every split and drops degenerate faces, where the library
computes the range of splits that survive. :func:`from_vector` turns a
coordinate vector back into a chain, which only these chain-level
routes need.
"""

from __future__ import annotations

import itertools

import hyperhom.kunneth as kunneth
from hyperhom.abelian import FGAbelianGroup, from_presentation
from hyperhom.errors import IntegrityError
from hyperhom.homology import (
    ChainElement,
    Coordinates,
    GradedSubmodule,
    SimplexCoordinates,
    boundary_matrix,
    chain_boundary,
    inf_bases_of_span,
)
from hyperhom.hypergraph import (
    Hypergraph,
    SimplicialComplex,
    associated_complex,
    product_boxtimes,
)
from hyperhom.kunneth import ChainMapReport, SimplexPair, TensorChain, TensorContext
from hyperhom.intlinalg import (
    SparseIntMatrix,
    _dict_addmul,
    _Echelon,
    invariant_factors,
    kernel_basis,
)


def _prime_power_factors(n: int) -> dict[int, int]:
    """Factor n >= 2 into {prime: exponent} by trial division."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def oracle_regroup(torsion: list[int]) -> tuple[int, ...]:
    """The invariant factor chain of Z/t1 + Z/t2 + ..., all t >= 2: per
    prime, the largest power goes into the last factor, the next largest
    into the one before, and so on."""
    by_prime: dict[int, list[int]] = {}
    for t in torsion:
        for p, e in _prime_power_factors(t).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    width = max(len(es) for es in by_prime.values())
    factors = [1] * width
    for p, es in by_prime.items():
        es.sort(reverse=True)
        for slot, e in enumerate(es):
            factors[width - 1 - slot] *= p**e
    return tuple(factors)


def oracle_factor_homology(d: list[SparseIntMatrix]) -> list[FGAbelianGroup]:
    """Integral homology of the chain complex with boundaries ``d``, one
    group per degree 0..len(d)-1, from the invariant factors of each
    matrix: H_n = Z^(b_n - r_n - r_{n+1}) plus Z/t for each factor t >= 2
    of d[n+1]."""
    factors = [invariant_factors(m) for m in d]
    factors.append(())
    return [
        FGAbelianGroup(
            m.ncols - len(factors[n]) - len(factors[n + 1]),
            tuple(t for t in factors[n + 1] if t >= 2),
        )
        for n, m in enumerate(d)
    ]


def oracle_column_hnf(a: SparseIntMatrix) -> SparseIntMatrix:
    """The Hermite-canonical basis of the column lattice of ``a``, from
    one echelon store fed with every column of the whole matrix."""
    ech = _Echelon()
    for j in range(a.ncols):
        ech.insert(a.column(j))
    return SparseIntMatrix.from_columns(a.nrows, [row for _, row in ech.canonicalize()])


class OracleSolver:
    """Solves against any basis of independent columns: the columns are
    echelonized with an identity tail each, row nrows + j for column j,
    and a vector reduced against the echelon rows leaves minus its
    coefficients in the tails, or a residue above them when it is
    outside the lattice."""

    def __init__(self, basis: SparseIntMatrix) -> None:
        self.nrows = basis.nrows
        self._ech = _Echelon()
        for j in range(basis.ncols):
            vec = basis.column(j)
            vec[basis.nrows + j] = 1
            self._ech.insert(vec)
        if sum(1 for p in self._ech.rows if p < basis.nrows) != basis.ncols:
            raise ValueError("basis columns are linearly dependent")

    def solve(self, v: dict[int, int]) -> dict[int, int] | None:
        vec = {i: x for i, x in v.items() if x}
        rows = self._ech.rows
        while vec:
            i = min(vec)
            row = rows.get(i)
            if row is None or vec[i] % row[i]:
                break
            _dict_addmul(vec, row, -(vec[i] // row[i]))
        if any(i < self.nrows for i in vec):
            return None
        return {i - self.nrows: -x for i, x in vec.items()}


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
        solver = OracleSolver(cycles)
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


def oracle_restricted_boundaries(m: GradedSubmodule) -> list[SparseIntMatrix]:
    """The boundaries of ``m`` in its own basis, column by column: each
    basis column goes through :func:`oracle_boundary_matrix` (or
    :func:`oracle_tensor_boundary_matrix` on tensor coordinates), and
    the image is solved one degree down with :class:`OracleSolver`. An
    image with an overflow row, or outside the lattice, raises
    IntegrityError."""
    c = m.coordinates
    out = []
    for n, basis in enumerate(m.bases):
        if isinstance(c, TensorContext):
            d = oracle_tensor_boundary_matrix(c, n)
        else:
            d = oracle_boundary_matrix(c, n)
        below = len(c.simplices_of_dim(n - 1))
        solver = OracleSolver(m.bases[n - 1]) if n else None
        cols = []
        for j in range(basis.ncols):
            image = d.apply_to_column(basis.column(j))
            if not image:
                cols.append({})
                continue
            coeffs = solver.solve(image) if max(image) < below else None
            if coeffs is None:
                raise IntegrityError(
                    f"boundary of degree-{n} basis column {j} leaves the submodule"
                )
            cols.append(coeffs)
        out.append(SparseIntMatrix.from_columns(m.basis_rank(n - 1), cols))
    return out


def oracle_submodule_homology(m: GradedSubmodule) -> list[FGAbelianGroup]:
    """Integral homology of a boundary-stable graded submodule."""
    return oracle_chain_homology(oracle_restricted_boundaries(m))


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
            SparseIntMatrix.identity(len(k.edges_of_dim(n)))
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
        cols = [{p: 1} for p in _closure_positions(h, k, n)]
        if n + 1 <= top:
            d_above = k.coordinates.boundaries[n + 1]
            cols += [d_above.column(p) for p in _closure_positions(h, k, n + 1)]
        ambient = len(k.edges_of_dim(n))
        bases.append(oracle_column_hnf(SparseIntMatrix.from_columns(ambient, cols)))
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


def from_vector(coords: Coordinates, n: int, vec: dict[int, int]) -> ChainElement:
    """The degree-n chain of ``coords.chain`` with coordinate vector ``vec``."""
    cells = coords.simplices_of_dim(n)
    return coords.chain(n, {cells[i]: v for i, v in vec.items() if v})


def oracle_shuffle(ctx: TensorContext, pair: SimplexPair) -> dict[tuple[int, ...], int]:
    """The shuffle image of s (x) u, summed over the (p, q)-shuffles: each
    choice of which p of the p + q steps advance the left vertex (the
    others advance the right one) gives a product simplex, signed by the
    sign of the permutation that lists the left steps, then the right
    steps, each in increasing order."""
    s, u = pair
    p, q = len(s) - 1, len(u) - 1
    width = len(ctx.right.vertices)
    out: dict[tuple[int, ...], int] = {}
    for left_steps in itertools.combinations(range(p + q), p):
        perm = list(left_steps) + [t for t in range(p + q) if t not in left_steps]
        inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        a = b = 0
        vertices = [s[0] * width + u[0]]
        for t in range(p + q):
            if t in left_steps:
                a += 1
            else:
                b += 1
            vertices.append(s[a] * width + u[b])
        out[tuple(vertices)] = -1 if inversions % 2 else 1
    return out


def oracle_front_back(ctx: TensorContext, sx: tuple[int, ...]) -> dict[SimplexPair, int]:
    """The front/back-face image of a product simplex: for every split k,
    the left projection of vertices 0..k tensor the right projection of
    vertices k..n, unless either repeats a vertex."""
    width = len(ctx.right.vertices)
    out: dict[SimplexPair, int] = {}
    for k in range(len(sx)):
        front = tuple(x // width for x in sx[: k + 1])
        back = tuple(x % width for x in sx[k:])
        if len(set(front)) == len(front) and len(set(back)) == len(back):
            out[(front, back)] = 1
    return out


def oracle_chainmap_check(h: Hypergraph, h2: Hypergraph) -> ChainMapReport:
    """The chain-map identities, checked chain by chain on every basis
    column. For each tensor infimum basis chain x: the shuffle image
    lies in the product infimum, commutes with the boundaries, and the
    front/back-face map returns exactly x. For each product infimum
    basis chain c: the front/back-face image lies in the tensor infimum
    and commutes with the boundaries. Any failure raises IntegrityError."""
    tensor_inf = kunneth.inf_tensor_basis(h, h2)
    ctx = tensor_inf.coordinates
    product_inf = product_boxtimes(h, h2).inf
    coords = product_inf.coordinates
    checked_t = checked_p = 0
    for n in range(tensor_inf.top_degree + 1):
        tb = tensor_inf.bases[n]
        for j in range(tb.ncols):
            x = from_vector(ctx, n, tb.column(j))
            mx = kunneth.ez_map(x, ctx)
            vec = coords.to_vector(mx)
            if vec is None or not product_inf.contains(n, vec):
                raise IntegrityError(
                    f"shuffle image of tensor column {j} leaves the infimum"
                )
            if chain_boundary(mx) != kunneth.ez_map(chain_boundary(x), ctx):
                raise IntegrityError(
                    f"shuffle map does not commute on tensor column {j}"
                )
            if kunneth.aw_map(mx, ctx) != x:
                raise IntegrityError(
                    f"round trip is not the identity on tensor column {j}"
                )
            checked_t += 1
        pb = product_inf.bases[n]
        for j in range(pb.ncols):
            c = from_vector(coords, n, pb.column(j))
            nc = kunneth.aw_map(c, ctx)
            vec = ctx.to_vector(nc)
            if vec is None or not tensor_inf.contains(n, vec):
                raise IntegrityError(
                    f"front/back-face image of product column {j} leaves the infimum"
                )
            if chain_boundary(nc) != kunneth.aw_map(chain_boundary(c), ctx):
                raise IntegrityError(
                    f"front/back-face map does not commute on product column {j}"
                )
            checked_p += 1
    return ChainMapReport(tensor_inf.top_degree, checked_t, checked_p)
