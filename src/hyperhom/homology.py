"""Embedded homology of hypergraphs over the integers, the rationals,
and prime fields.

A hypergraph has no boundary operator of its own: the boundary of a
hyperedge may leave the span of the hyperedges. Two canonical repairs
exist inside the chain complex of the downward closure. The infimum
complex keeps the largest submodule of the hyperedge span that the
boundary maps into itself; the supremum complex is the smallest
boundary-stable submodule containing the span. Both have isomorphic
homology, which is what this module computes.

Neither needs the whole closure, and the two share no coordinates;
both differentiate hyperedges only. The infimum lives on the hyperedges
themselves (``h.coordinates``): its degree-n basis is the kernel of the
boundary of the n-hyperedges with every (n-1)-hyperedge row projected
away. The supremum lives on the facet coordinates: the facets of the
(n+1)-hyperedges, then the n-hyperedges. Its degree-n basis is the
echelon of the (n+1)-hyperedge boundaries, cycles since the boundary
squares to zero, then a unit column per n-hyperedge; only the units
have boundaries to solve. :func:`rule_matrix` writes a cell rule, the
boundary or a chain map of :mod:`hyperhom.kunneth`, as a matrix with an
overflow row for each image cell outside the coordinates: none is ever
dropped.

Either complex is a chain complex of free modules once its boundaries
are written in the submodule's own basis (the restricted boundaries).
Over the integers each degree then yields a finitely generated abelian
group: H_n = Z^(b_n - r_n - r_{n+1}) plus Z/t for each invariant factor
t >= 2 of the boundary into degree n, where b_n is the basis rank and
r_n the rank of the boundary out of degree n. The invariant factors of
all degrees come from one reduction of the whole complex: every pair of
cells joined by a unit boundary coefficient is eliminated, which adds a
factor 1, and only the small residual takes a Smith normal form (see
:func:`~hyperhom.intlinalg.chain_invariant_factors`). Classical homology
of a simplicial complex takes the same route from its raw boundary
matrices. Field coefficients take ranks of the same matrices, never
reduced, in the field (exact rational rank, or rank mod p), so the
universal-coefficient relations between the integral answer and the
Betti numbers compare two routes that share no elimination.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

from .abelian import FGAbelianGroup
from .errors import IntegrityError, ValidationError
from .hypergraph import Hypergraph, SimplicialComplex
from .intlinalg import (
    LatticeSolver,
    SparseIntMatrix,
    chain_invariant_factors,
    is_prime,
    kernel_basis,
    lattice_sum_basis,
    rank,
    rank_mod_p,
)
from .value import Value

# ------------------------------------------------------------ coefficients

# Every zp modulus lies below this; a larger one is refused as invalid
# input (exit 2 at the command line). The primality test decides moduli
# far beyond it, so the bound no longer guards its cost: it keeps the
# accepted range, and the size of the residues rank_mod_p multiplies.
MAX_MODULUS = 1 << 31


class Coefficient(Value):
    """Coefficient ring: the integers ("z"), the rationals ("q"), or a
    prime field ("zp" with the prime)."""

    def __init__(self, kind: str, p: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind not in ("z", "q", "zp"):
            raise ValidationError(f"unknown coefficient kind: {self.kind!r}")
        if self.kind == "zp":
            if not isinstance(self.p, int):
                raise ValidationError(f"zp modulus must be an integer, got {self.p!r}")
            if self.p >= MAX_MODULUS:
                raise ValidationError(f"zp modulus must be below {MAX_MODULUS}, got {self.p}")
            if not is_prime(self.p):
                raise ValidationError(f"zp modulus must be prime, got {self.p!r}")
        elif self.p is not None:
            raise ValidationError(f"{self.kind!r} coefficients take no modulus")

    @property
    def is_field(self) -> bool:
        return self.kind != "z"

    def __str__(self) -> str:
        return f"zp:{self.p}" if self.kind == "zp" else self.kind


INTEGERS = Coefficient("z")
RATIONALS = Coefficient("q")


def mod_p(p: int) -> Coefficient:
    return Coefficient("zp", p)


def parse_coefficient(text: str) -> Coefficient:
    """Parse a coefficient tag: ``z``, ``q``, or ``zp:<prime>``."""
    if text == "z":
        return INTEGERS
    if text == "q":
        return RATIONALS
    if text.startswith("zp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ValidationError(f"bad prime in coefficient tag: {text!r}") from None
        return mod_p(p)
    raise ValidationError(f"unknown coefficient tag: {text!r}")


# ------------------------------------------------------------------- chains


class ChainElement(Value):
    """Formal integer combination of cells of one degree.

    The cells are simplices here: strictly increasing vertex-index
    tuples with degree+1 entries. A subclass names other cells through
    the two static hooks ``cell_degree`` and ``faces``. Zero
    coefficients are never stored.
    """

    def __init__(self, degree: int, coeffs: dict) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self) -> None:
        cell_degree = self.cell_degree
        for s, c in self.coeffs.items():
            if cell_degree(s) != self.degree:
                raise ValueError(f"cell {s} is not of degree {self.degree}")
            if c == 0:
                raise ValueError("zero coefficients must be dropped")

    @staticmethod
    def cell_degree(s: tuple[int, ...]) -> int:
        return len(s) - 1

    @staticmethod
    def faces(s: tuple[int, ...]) -> Iterable[tuple[tuple[int, ...], int]]:
        """The signed faces of a simplex: dropping vertex j gives sign
        (-1)^j. A vertex has no faces."""
        n = len(s) - 1
        if not n:
            return ()
        # combinations drops the last vertex first
        signs = itertools.cycle((-1, 1) if n % 2 else (1, -1))
        return zip(itertools.combinations(s, n), signs)

    @classmethod
    def of_simplex(cls, s: tuple[int, ...]) -> "ChainElement":
        return cls(len(s) - 1, {tuple(s): 1})

    def __add__(self, other: "ChainElement") -> "ChainElement":
        if other.degree != self.degree:
            raise ValueError("cannot add chains of different degrees")
        acc = dict(self.coeffs)
        for s, c in other.coeffs.items():
            acc[s] = acc.get(s, 0) + c
        return type(self)(self.degree, {s: c for s, c in acc.items() if c})


def apply_rule(rule, c: ChainElement, chain: type, degree: int) -> ChainElement:
    """A cell rule on chains: each cell of ``c`` goes to its signed image
    cells ``rule(cell)``, summed into a ``chain`` of ``degree``."""
    acc: dict = {}
    for s, v in c.coeffs.items():
        for f, sign in rule(s):
            acc[f] = acc.get(f, 0) + sign * v
    return chain(degree, {f: v for f, v in acc.items() if v})


def chain_boundary(c: ChainElement) -> ChainElement:
    """Boundary of a chain: each cell goes to its signed faces. Degree 0
    maps to the (empty) degree -1 chain."""
    return apply_rule(c.faces, c, type(c), c.degree - 1)


def render_terms(terms: Iterable[tuple[str, int]]) -> str:
    """Join (label, coefficient) terms as ``a - 2*b + c``; ``0`` when none."""
    parts: list[str] = []
    for label, v in terms:
        mag = "" if abs(v) == 1 else f"{abs(v)}*"
        parts.append(("- " if v < 0 else ("+ " if parts else "")) + mag + label)
    return " ".join(parts) or "0"


def simplex_label(s: tuple[int, ...], h: Hypergraph) -> str:
    return "{" + ",".join(h.vertices[i] for i in s) + "}"


def render_chain(c: ChainElement, k: SimplicialComplex) -> str:
    """Human-readable form like ``{a,b} - {b,c}`` in canonical order."""
    pos = k.simplex_positions(c.degree)
    ordered = sorted(c.coeffs.items(), key=lambda kv: pos[kv[0]])
    return render_terms((simplex_label(s, k), v) for s, v in ordered)


# --------------------------------------------------------------- boundaries


def rule_matrix(rule, cells: Sequence, pos: dict, support: Iterable[int]) -> SparseIntMatrix:
    """Matrix of a cell rule: for j in ``support``, column j holds
    ``rule(cells[j])``, a cell's signed image cells (each at most once),
    in the rows ``pos`` names, and an image cell outside ``pos`` gets an
    overflow row after them, in order of first occurrence. Columns off
    the support stay empty."""
    overflow: dict = {}
    out: list[dict[int, int]] = [{}] * len(cells)
    for j in support:
        col: dict[int, int] = {}
        for f, sign in rule(cells[j]):
            i = pos.get(f)
            if i is None:
                i = overflow.setdefault(f, len(pos) + len(overflow))
            col[i] = sign
        out[j] = col
    return SparseIntMatrix._adopt(len(pos) + len(overflow), out)


def boundary_matrix(k: Coordinates, n: int) -> SparseIntMatrix:
    """The boundary from degree-n to degree-(n-1) chains on the
    coordinates ``k``: the :func:`rule_matrix` of ``k.chain.faces`` on
    the degree-n generators ``k.generators[n]``; any other column stays
    empty. Degree 0 maps to the zero module (no rows), and a complex has
    no overflow rows."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    cells = k.simplices_of_dim(n)
    support = k.generators[n] if cells else ()
    return rule_matrix(k.chain.faces, cells, k.simplex_positions(n - 1), support)


class Coordinates:
    """Named coordinates for chains: ``simplices[n]`` lists the degree-n
    cells in canonical order, and ``chain`` is the chain type whose
    hooks give a cell's degree and faces.

    Need not be closed under faces: a boundary face outside the
    coordinates gets an overflow row past the coordinate rows, so it is
    never dropped. A subclass supplies ``simplices``.
    """

    chain = ChainElement
    simplices: tuple[tuple, ...]

    @property
    def top_degree(self) -> int:
        return len(self.simplices) - 1

    def simplices_of_dim(self, n: int) -> tuple:
        return self.simplices[n] if 0 <= n < len(self.simplices) else ()

    @cached_property
    def _positions(self) -> tuple[dict, ...]:
        return tuple({s: k for k, s in enumerate(b)} for b in self.simplices)

    def simplex_positions(self, n: int) -> dict:
        """Map each degree-n cell to its position; read-only."""
        return self._positions[n] if 0 <= n < len(self.simplices) else {}

    @cached_property
    def generators(self) -> tuple[Sequence[int], ...]:
        """Per degree, the rising positions of the cells the boundary has
        columns on and an infimum is spanned by: all, unless narrowed."""
        return tuple(range(len(b)) for b in self.simplices)

    @cached_property
    def boundaries(self) -> tuple[SparseIntMatrix, ...]:
        """Boundary matrices of every degree, with overflow rows, see
        :func:`boundary_matrix`."""
        return tuple(boundary_matrix(self, n) for n in range(len(self.simplices)))

    def to_vector(self, c: ChainElement) -> dict[int, int] | None:
        """Coordinates of a chain, or None when its support leaves the
        cells."""
        pos = self.simplex_positions(c.degree)
        out = {}
        for s, v in c.coeffs.items():
            if s not in pos:
                return None
            out[pos[s]] = v
        return out


class SimplexCoordinates(Coordinates, Value):
    """Coordinates on simplices: a hypergraph's ``coordinates`` are its
    hyperedges, which for a :class:`SimplicialComplex` are all its
    simplices, and :func:`facet_coordinates` adds the facets."""

    def __init__(self, simplices: tuple[tuple[tuple[int, ...], ...], ...]) -> None:
        object.__setattr__(self, "simplices", simplices)


class _FacetCoordinates(SimplexCoordinates):
    """:func:`facet_coordinates`: the last ``edges[n]`` cells of degree n
    are the n-hyperedges, and the generators."""

    def __init__(self, simplices: tuple[tuple, ...], edges: tuple[int, ...]) -> None:
        object.__setattr__(self, "simplices", simplices)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def generators(self) -> tuple[Sequence[int], ...]:
        return tuple(range(len(b) - k, len(b)) for b, k in zip(self.simplices, self.edges))


def facet_coordinates(h: Hypergraph) -> SimplexCoordinates:
    """The coordinates the supremum of ``h`` lives on: in each degree
    n = 0..dim+1, the facets of the (n+1)-hyperedges that are no
    n-hyperedge, in lexicographic order, then the n-hyperedges, the
    generators: the boundaries have no overflow rows. Computed afresh;
    ``h.sup`` keeps the ones it built."""
    out = []
    for n in range(h.dim + 2):
        edges = h.edges_of_dim(n)
        facets = {f for e in h.edges_of_dim(n + 1) for f in itertools.combinations(e, n + 1)}
        out.append(tuple(sorted(facets.difference(edges))) + edges)
    return _FacetCoordinates(tuple(out), tuple(len(h.edges_of_dim(n)) for n in range(h.dim + 2)))


# ---------------------------------------------------------- graded modules


class GradedSubmodule(Value):
    """A graded submodule of a chain complex: the complex's coordinates
    and one basis per degree.

    ``coordinates`` names the ambient complex, simplices or simplex pairs
    (a :class:`Coordinates`), one degree per basis. ``bases[n]`` holds
    basis columns in the degree-n coordinates:
    ``coordinates.simplices_of_dim(n)[i]`` is row i. The ambient
    boundaries are ``coordinates.boundaries``, built only when a route
    reads them; the first rows of ``boundaries[n]`` are the degree n-1
    coordinates, and any rows past them are overflow rows for faces
    outside those coordinates. The submodule is expected to be
    boundary-stable (checked when homology is computed). Bases need not
    be saturated, but each must be in echelon form: its columns have
    distinct leading (smallest nonzero) rows, so that
    :class:`LatticeSolver` can solve against it.
    """

    def __init__(self, coordinates: Coordinates, bases: tuple[SparseIntMatrix, ...]) -> None:
        object.__setattr__(self, "coordinates", coordinates)
        object.__setattr__(self, "bases", bases)
        self.__post_init__()

    def __post_init__(self) -> None:
        for n, b in enumerate(self.bases):
            if b.nrows != len(self.coordinates.simplices_of_dim(n)):
                raise ValueError(f"degree {n}: ambient rank != coordinate count")
        if self.coordinates.top_degree != self.top_degree:
            raise ValueError("one basis per degree of the coordinates required")

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1

    def basis_rank(self, n: int) -> int:
        return self.bases[n].ncols if 0 <= n <= self.top_degree else 0

    def contains(self, n: int, vector: dict[int, int]) -> bool:
        """Is the ambient coordinate vector in the degree-n lattice?"""
        return self.solver(n).solve(vector) is not None

    @cached_property
    def _solvers(self) -> dict[int, LatticeSolver]:
        return {}

    def solver(self, n: int) -> LatticeSolver:
        """The :class:`LatticeSolver` of the degree-n basis, built once;
        n must lie in 0..top_degree."""
        if not 0 <= n <= self.top_degree:
            raise ValueError(f"degree {n} outside 0..{self.top_degree}")
        if n not in self._solvers:
            self._solvers[n] = LatticeSolver(self.bases[n])
        return self._solvers[n]

    @cached_property
    def restricted(self) -> list[SparseIntMatrix]:
        """The restricted boundaries, see :func:`restricted_boundaries`,
        checked once here to compose to zero."""
        d = restricted_boundaries(self)
        _require_chain_complex(d)
        return d

    @cached_property
    def _homology(self) -> dict[Coefficient, list]:
        return {}

    def homology(self, coeff: Coefficient = INTEGERS) -> list[FGAbelianGroup] | list[int]:
        """:func:`submodule_homology`, computed once per coefficient ring;
        each call returns a fresh list."""
        if coeff not in self._homology:
            self._homology[coeff] = submodule_homology(self, coeff)
        return list(self._homology[coeff])


def map_in_bases(
    source: GradedSubmodule, target: GradedSubmodule, maps: Sequence[SparseIntMatrix],
    shift: int, refusals: tuple[str, str],
) -> list[SparseIntMatrix]:
    """A graded map in two bases: column j of entry n holds the
    degree-(n+shift) target-basis coefficients of ``maps[n]`` times source
    basis column j, where ``maps[n]`` has the target coordinates as rows,
    then overflow rows. An overflow entry, or an image outside the target
    lattice, raises IntegrityError with ``refusals[0]`` or ``refusals[1]``,
    formatted with n, j and k = n + shift. Each degree is one pass: the
    target solver is fetched on the first nonzero image (a zero one is not
    solved), and the solved columns become the matrix as they are."""
    out = []
    for n, basis in enumerate(source.bases):
        k = n + shift
        rows = len(target.coordinates.simplices_of_dim(k))
        apply = maps[n].apply_to_column
        solver = None
        cols: list[dict[int, int]] = []
        for j, column in enumerate(basis._cols):
            vec = apply(column)
            if not vec:
                cols.append({})
                continue
            if max(vec) >= rows:
                raise IntegrityError(refusals[0].format(n=n, j=j, k=k))
            if solver is None:
                solver = target.solver(k)
            coeffs = solver.solve(vec)
            if coeffs is None:
                raise IntegrityError(refusals[1].format(n=n, j=j, k=k))
            cols.append(coeffs)
        out.append(SparseIntMatrix._adopt(target.basis_rank(k), cols))
    return out


def restricted_boundaries(m: GradedSubmodule) -> list[SparseIntMatrix]:
    """Boundary matrices in the submodule's own basis coordinates:
    :func:`map_in_bases` applied to the boundaries, so entry n maps degree-n
    to degree-(n-1) basis coefficients. Raises IntegrityError if some
    boundary image leaves the submodule, i.e. the chain-complex property
    fails; an image with an entry in an overflow row (a face outside the
    coordinates below) leaves it too. The boundaries have columns on the
    generators alone, so a basis column with an entry off them is refused
    as well; a supremum's cycles (see :func:`sup_chain`) map to zero
    unsolved instead.
    """
    c, bases = m.coordinates, m.bases
    if isinstance(m, _Supremum):
        bases = tuple(
            SparseIntMatrix._adopt(b.nrows, [{}] * (b.ncols - len(g)) + b._cols[b.ncols - len(g):])
            for b, g in zip(bases, c.generators)
        )
    for n, b in enumerate(bases):
        if len(c.generators[n]) < b.nrows:
            gens = set(c.generators[n])
            j = next((j for j, col in enumerate(b._cols) if not gens.issuperset(col)), None)
            if j is not None:
                raise IntegrityError(f"degree-{n} basis column {j} has an entry off the generators")
    return map_in_bases(GradedSubmodule(c, bases), m, c.boundaries, -1, (
        "boundary of degree-{n} basis column {j} has a face outside the degree-{k} coordinates",
        "boundary of degree-{n} basis column {j} leaves the submodule",
    ))


def submodule_homology(
    m: GradedSubmodule, coeff: Coefficient = INTEGERS
) -> list[FGAbelianGroup] | list[int]:
    """Homology of a boundary-stable graded submodule, one value per
    degree 0..top_degree.

    The restricted boundaries form a chain complex of free modules, so
    its homology follows from their invariant factors (integral) or
    their ranks in the field, as in :func:`_chain_homology`.
    """
    return _chain_homology(m.restricted, coeff)


def _require_chain_complex(d: Sequence[SparseIntMatrix]) -> None:
    """Raise IntegrityError unless every d[n-1] @ d[n] vanishes; run once
    per complex, not once per coefficient ring."""
    for n in range(2, len(d)):
        if not (d[n - 1] @ d[n]).is_zero():
            raise IntegrityError(f"degree-{n} boundary image is not a degree-{n - 1} cycle")


def _chain_homology(
    d: Sequence[SparseIntMatrix], coeff: Coefficient
) -> list[FGAbelianGroup] | list[int]:
    """Homology of the free chain complex with boundaries ``d``, one value
    per degree 0..len(d)-1; the boundary out of the last degree is zero.

    With b_n = d[n].ncols and r_n the rank of d[n]:
    H_n = Z^(b_n - r_n - r_{n+1}) + sum of Z/t over the invariant factors
    t >= 2 of d[n+1]; over a field, Betti_n = b_n - r_n - r_{n+1} with
    field ranks. This holds only for a chain complex: callers pass ``d``
    through :func:`_require_chain_complex`. Over the integers the whole
    complex is reduced by its unit pairs and the residual of each degree
    takes a Smith normal form (:func:`chain_invariant_factors`, which
    needs d[n-1] @ d[n] = 0 to drop rows exactly). Field ranks read the
    matrices ``d`` themselves, never the reduced complex.
    """
    if coeff.is_field:
        if coeff.kind == "q":
            ranks = [rank(dd) for dd in d]
        else:
            assert coeff.p is not None
            ranks = [rank_mod_p(dd, coeff.p) for dd in d]
        ranks.append(0)
        return [dd.ncols - ranks[n] - ranks[n + 1] for n, dd in enumerate(d)]
    factors = chain_invariant_factors(d)
    factors.append(())
    return [
        FGAbelianGroup(
            dd.ncols - len(factors[n]) - len(factors[n + 1]),
            tuple(t for t in factors[n + 1] if t >= 2),
        )
        for n, dd in enumerate(d)
    ]


# ------------------------------------------------------------- inf and sup


def inf_bases_of_span(
    boundaries: tuple[SparseIntMatrix, ...], generators: tuple[Sequence[int], ...]
) -> tuple[SparseIntMatrix, ...]:
    """Largest boundary-stable graded submodule inside a coordinate span.

    ``generators[n]`` lists the ambient coordinates spanned at degree n,
    strictly increasing. Degree n basis: kernel of (project away the
    degree n-1 generator coordinates, then apply the boundary restricted
    to the generator columns), embedded back into ambient coordinates.
    Works for any chain complex presented by its boundary matrices.
    """
    bases = []
    for n, full in enumerate(boundaries):
        ambient = full.ncols
        positions = generators[n]
        if not positions:
            bases.append(SparseIntMatrix(ambient, 0))
            continue
        keep_out = set(generators[n - 1]) if n > 0 else set()
        # the kernel does not depend on empty rows: the projection keeps
        # the ambient row numbers
        cols = [
            {i: v for i, v in full._cols[p].items() if i not in keep_out}
            for p in positions
        ]
        projected = SparseIntMatrix._adopt(full.nrows, cols)
        ker = kernel_basis(projected)  # coefficients on generator columns
        # no Hermite pass: the kernel basis is canonical and positions rise
        basis_cols = [{positions[i]: v for i, v in c.items()} for c in ker._cols]
        bases.append(SparseIntMatrix._adopt(ambient, basis_cols))
    return tuple(bases)


def inf_chain(h: Hypergraph) -> GradedSubmodule:
    """Largest boundary-stable submodule inside the hyperedge span.

    Written in the hyperedge coordinates ``h.coordinates``, each of which
    is a generator: the degree-n basis is the kernel of the boundary of
    the n-hyperedges with the (n-1)-hyperedge rows projected away, so
    only its overflow rows (faces that are no hyperedge) remain. Neither
    the downward closure nor the facet coordinates are ever built.
    Computed afresh on every call; ``h.inf`` keeps one.
    """
    c = h.coordinates
    return GradedSubmodule(c, inf_bases_of_span(c.boundaries, c.generators))


class _Supremum(GradedSubmodule):
    """A supremum as :func:`sup_chain` builds it: in each degree, the basis
    columns before the unit columns on the generators are cycles."""


def sup_chain(h: Hypergraph) -> GradedSubmodule:
    """Smallest boundary-stable submodule containing the hyperedge span:
    degree n is spanned by the n-hyperedges together with boundaries of
    the (n+1)-hyperedges, in the facet coordinates
    :func:`facet_coordinates`, built here for the supremum alone. The
    basis (:func:`lattice_sum_basis`) is those boundaries' echelon, so
    cycles, then a unit column per n-hyperedge, the only columns whose
    boundaries are solved. Computed afresh; ``h.sup`` keeps one."""
    c = facet_coordinates(h)
    above = c.boundaries[1:] + (SparseIntMatrix(0, 0),)
    return _Supremum(c, tuple(
        lattice_sum_basis(d, len(cells) - len(g))
        for d, cells, g in zip(above, c.simplices, c.generators)
    ))


def embedded_homology(
    h: Hypergraph, coeff: Coefficient = INTEGERS, verify: bool = False
) -> list[FGAbelianGroup] | list[int]:
    """Embedded homology of a hypergraph, degrees 0 through dim+1.

    Computed from the infimum complex ``h.inf``, once per coefficient
    ring. With ``verify`` the supremum complex ``h.sup`` is computed
    independently and the two answers must agree degree by degree.
    """
    result = h.inf.homology(coeff)
    if verify:
        other = h.sup.homology(coeff)
        if result != other:
            raise IntegrityError(
                "infimum and supremum homology disagree: "
                f"inf={_render_values(result)} sup={_render_values(other)}"
            )
    return result


# ------------------------------------------------------ classical homology


def classical_homology(
    k: SimplicialComplex, coeff: Coefficient = INTEGERS
) -> list[FGAbelianGroup] | list[int]:
    """Simplicial homology of a complex, degrees 0 through dim+1.

    Read off the raw boundary matrices of the full chain complex, with
    no submodule machinery. Used to cross-check the embedded pipeline
    on closed inputs.
    """
    _require_chain_complex(k.coordinates.boundaries)
    return _chain_homology(k.coordinates.boundaries, coeff)


# ---------------------------------------------------------------- rendering


def _render_values(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"

