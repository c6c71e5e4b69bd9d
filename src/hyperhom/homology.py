"""Embedded homology of hypergraphs over the integers, the rationals,
and prime fields.

A hypergraph has no boundary operator of its own: the boundary of a
hyperedge may leave the span of the hyperedges. Two canonical repairs
exist inside the chain complex of the downward closure. The infimum
complex keeps the largest submodule of the hyperedge span that the
boundary maps into itself; the supremum complex is the smallest
boundary-stable submodule containing the span. Both have isomorphic
homology, which is what this module computes.

Neither needs the whole closure. In degree n both live on the facet
coordinates: the n-hyperedges together with the facets of the
(n+1)-hyperedges. Boundaries are written on those coordinates, with an
overflow row for each face outside them, so no face is ever dropped.

Either complex is a chain complex of free modules once its boundaries
are written in the submodule's own basis (the restricted boundaries).
Over the integers each degree then yields a finitely generated abelian
group, read off the invariant factors of those matrices:
H_n = Z^(b_n - r_n - r_{n+1}) plus Z/t for each invariant factor
t >= 2 of the boundary into degree n, where b_n is the basis rank and
r_n the rank of the boundary out of degree n. Classical homology of a
simplicial complex uses the same formula on its raw boundary matrices.
Field coefficients take ranks of the same integer matrices in the
field (exact rational rank, or rank mod p), so Betti numbers always
satisfy the universal-coefficient relations with the integral answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .abelian import FGAbelianGroup
from .errors import IntegrityError, ValidationError
from .hypergraph import Hypergraph, SimplicialComplex
from .intlinalg import (
    LatticeSolver,
    SparseIntMatrix,
    column_hnf,
    invariant_factors,
    is_prime,
    kernel_basis,
    lattice_sum_basis,
    rank,
    rank_mod_p,
)

# ------------------------------------------------------------ coefficients

# Every zp modulus lies below this: is_prime tries odd divisors up to the
# square root, about 23 000 of them here, so a larger modulus is refused
# before the test starts.
MAX_MODULUS = 1 << 31


@dataclass(frozen=True)
class Coefficient:
    """Coefficient ring: the integers ("z"), the rationals ("q"), or a
    prime field ("zp" with the prime)."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("z", "q", "zp"):
            raise ValidationError(f"unknown coefficient kind: {self.kind!r}")
        if self.kind == "zp":
            if self.p is not None and self.p >= MAX_MODULUS:
                raise ValidationError(
                    f"zp modulus must be below {MAX_MODULUS}, got {self.p}"
                )
            if self.p is None or not is_prime(self.p):
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


@dataclass(frozen=True)
class ChainElement:
    """Formal integer combination of cells of one degree.

    The cells are simplices here: strictly increasing vertex-index
    tuples with degree+1 entries. A subclass names other cells through
    the two static hooks ``cell_degree`` and ``faces``. Zero
    coefficients are never stored.
    """

    degree: int
    coeffs: dict

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

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ChainElement") -> "ChainElement":
        if other.degree != self.degree:
            raise ValueError("cannot add chains of different degrees")
        acc = dict(self.coeffs)
        for s, c in other.coeffs.items():
            acc[s] = acc.get(s, 0) + c
        return type(self)(self.degree, {s: c for s, c in acc.items() if c})


def chain_boundary(c: ChainElement) -> ChainElement:
    """Boundary of a chain, purely combinatorial: each cell goes to its
    signed faces. Degree 0 maps to the (empty) degree -1 chain."""
    acc: dict = {}
    faces = c.faces
    for s, v in c.coeffs.items():
        for f, sign in faces(s):
            acc[f] = acc.get(f, 0) + sign * v
    return type(c)(c.degree - 1, {f: v for f, v in acc.items() if v})


def render_chain(c: ChainElement, k: SimplicialComplex) -> str:
    """Human-readable form like ``{a,b} - {b,c}`` in canonical order."""
    if c.is_zero():
        return "0"
    pos = k.simplex_positions(c.degree)
    parts = []
    for s, v in sorted(c.coeffs.items(), key=lambda kv: pos[kv[0]]):
        label = "{" + ",".join(k.vertices[i] for i in s) + "}"
        mag = "" if abs(v) == 1 else f"{abs(v)}*"
        parts.append(("- " if v < 0 else ("+ " if parts else "")) + mag + label)
    return " ".join(parts)


# --------------------------------------------------------------- boundaries


def boundary_matrix(k: Coordinates, n: int) -> SparseIntMatrix:
    """Matrix of the boundary from degree-n chains to degree-(n-1) chains
    on the coordinates ``k``.

    Columns follow the canonical degree-n cell order, rows the degree
    n-1 order; each entry is the sign of a face, as ``k.chain.faces``
    gives it. Degree 0 maps to the zero module, so the matrix has no
    rows. When ``k`` is not closed under faces (facet coordinates), every
    face outside its degree-(n-1) cells gets its own overflow row after
    theirs, in order of first occurrence; a complex has none.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    cols = k.simplices_of_dim(n)
    pos = k.simplex_positions(n - 1)
    faces = k.chain.faces
    overflow: dict = {}
    out: list[dict[int, int]] = []
    for s in cols:
        col: dict[int, int] = {}
        # the faces of one cell are distinct
        for f, sign in faces(s):
            i = pos.get(f)
            if i is None:
                i = overflow.setdefault(f, len(pos) + len(overflow))
            col[i] = sign
        out.append(col)
    m = SparseIntMatrix(len(pos) + len(overflow), len(cols))
    m._cols = out
    return m


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

    def from_vector(self, n: int, vec: dict[int, int]) -> ChainElement:
        cells = self.simplices_of_dim(n)
        return self.chain(n, {cells[i]: v for i, v in vec.items() if v})


@dataclass(frozen=True)
class SimplexCoordinates(Coordinates):
    """Coordinates on simplices. A :class:`SimplicialComplex` is closed,
    and its ``coordinates`` are its simplices."""

    simplices: tuple[tuple[tuple[int, ...], ...], ...]


def facet_coordinates(h: Hypergraph) -> SimplexCoordinates:
    """The coordinates the embedded homology of ``h`` lives on: in each
    degree n = 0..dim+1, the n-hyperedges together with the facets of the
    (n+1)-hyperedges. Computed afresh; ``h.coordinates`` keeps one."""
    out = []
    for n in range(h.dim + 2):
        here = set(h.edges_of_dim(n))
        for e in h.edges_of_dim(n + 1):
            here.update(itertools.combinations(e, n + 1))
        out.append(tuple(sorted(here)))
    return SimplexCoordinates(tuple(out))


# ---------------------------------------------------------- graded modules


@dataclass(frozen=True)
class GradedSubmodule:
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
    be saturated.
    """

    coordinates: Coordinates
    bases: tuple[SparseIntMatrix, ...]

    def __post_init__(self) -> None:
        for n, b in enumerate(self.bases):
            if b.nrows != len(self.coordinates.simplices_of_dim(n)):
                raise ValueError(f"degree {n}: ambient rank != coordinate count")
        if self.coordinates.top_degree != self.top_degree:
            raise ValueError("one basis per degree of the coordinates required")

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1

    @property
    def boundaries(self) -> tuple[SparseIntMatrix, ...]:
        """The ambient boundary matrices, one per degree."""
        return self.coordinates.boundaries

    def basis_rank(self, n: int) -> int:
        return self.bases[n].ncols if 0 <= n <= self.top_degree else 0

    def membership_solver(self, n: int) -> LatticeSolver:
        return LatticeSolver(self.bases[n])

    def contains(self, n: int, vector: dict[int, int]) -> bool:
        """Is the ambient coordinate vector in the degree-n lattice?"""
        return self.membership_solver(n).solve(vector) is not None

    @cached_property
    def restricted(self) -> list[SparseIntMatrix]:
        """The restricted boundaries, see :func:`restricted_boundaries`."""
        return restricted_boundaries(self)

    @cached_property
    def _homology(self) -> dict[Coefficient, list]:
        return {}

    def homology(self, coeff: Coefficient = INTEGERS) -> list[FGAbelianGroup] | list[int]:
        """:func:`submodule_homology`, computed once per coefficient ring;
        each call returns a fresh list."""
        if coeff not in self._homology:
            self._homology[coeff] = submodule_homology(self, coeff)
        return list(self._homology[coeff])


def restricted_boundaries(m: GradedSubmodule) -> list[SparseIntMatrix]:
    """Boundary matrices in the submodule's own basis coordinates.

    Entry n maps degree-n basis coefficients to degree-(n-1) basis
    coefficients. Raises IntegrityError if some boundary image leaves
    the submodule, i.e. the chain-complex property fails; an image with
    an entry in an overflow row (a face outside the coordinates below)
    leaves it too.
    """
    out: list[SparseIntMatrix] = []
    solver_below: LatticeSolver | None = None
    for n in range(m.top_degree + 1):
        basis = m.bases[n]
        rows_below = m.bases[n - 1].nrows if n else 0
        overflow = m.boundaries[n].nrows > rows_below
        cols = []
        for j in range(basis.ncols):
            if n == 0:
                cols.append({})
                continue
            img = m.boundaries[n].apply_to_column(basis.column(j))
            assert solver_below is not None
            if overflow and img and max(img) >= rows_below:
                raise IntegrityError(
                    f"boundary of degree-{n} basis column {j} has a face "
                    f"outside the degree-{n - 1} coordinates"
                )
            coeffs = solver_below.solve(img)
            if coeffs is None:
                raise IntegrityError(
                    f"boundary of degree-{n} basis column {j} leaves the submodule"
                )
            cols.append(coeffs)
        out.append(SparseIntMatrix.from_columns(m.basis_rank(n - 1), cols))
        solver_below = LatticeSolver(basis)
    return out


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


def _chain_homology(
    d: Sequence[SparseIntMatrix], coeff: Coefficient
) -> list[FGAbelianGroup] | list[int]:
    """Homology of the free chain complex with boundaries ``d``, one value
    per degree 0..len(d)-1; the boundary out of the last degree is zero.

    With b_n = d[n].ncols and r_n the rank of d[n]:
    H_n = Z^(b_n - r_n - r_{n+1}) + sum of Z/t over the invariant factors
    t >= 2 of d[n+1]; over a field, Betti_n = b_n - r_n - r_{n+1} with
    field ranks. This holds only for a chain complex, so the composites
    d[n-1] @ d[n] are checked to vanish first.
    """
    for n in range(2, len(d)):
        if not (d[n - 1] @ d[n]).is_zero():
            raise IntegrityError(
                f"degree-{n} boundary image is not a degree-{n - 1} cycle"
            )
    if coeff.is_field:
        if coeff.kind == "q":
            ranks = [rank(dd) for dd in d]
        else:
            assert coeff.p is not None
            ranks = [rank_mod_p(dd, coeff.p) for dd in d]
        ranks.append(0)
        return [dd.ncols - ranks[n] - ranks[n + 1] for n, dd in enumerate(d)]
    factors = [invariant_factors(dd) for dd in d]
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
    boundaries: tuple[SparseIntMatrix, ...], generators: tuple[tuple[int, ...], ...]
) -> tuple[SparseIntMatrix, ...]:
    """Largest boundary-stable graded submodule inside a coordinate span.

    ``generators[n]`` lists the ambient coordinates spanned at degree n.
    Degree n basis: kernel of (project away the degree n-1 generator
    coordinates, then apply the boundary restricted to the generator
    columns), embedded back into ambient coordinates, in canonical form.
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
        non_gen_rows = [i for i in range(full.nrows) if i not in keep_out]
        row_index = {r: i for i, r in enumerate(non_gen_rows)}
        cols = [
            {row_index[i]: v for i, v in full._cols[p].items() if i in row_index}
            for p in positions
        ]
        projected = SparseIntMatrix.from_columns(len(non_gen_rows), cols)
        ker = kernel_basis(projected)  # coefficients on generator columns
        basis_cols = [
            {positions[i]: v for i, v in ker._cols[j].items()}
            for j in range(ker.ncols)
        ]
        bases.append(column_hnf(SparseIntMatrix.from_columns(ambient, basis_cols)))
    return tuple(bases)


def _hyperedge_positions(h: Hypergraph, n: int) -> list[int]:
    pos = h.coordinates.simplex_positions(n)
    return [pos[e] for e in h.edges_of_dim(n)]


def inf_chain(h: Hypergraph) -> GradedSubmodule:
    """Largest boundary-stable submodule inside the hyperedge span.

    Degree n basis: kernel of the composite (project onto simplices
    that are not (n-1)-hyperedges) after (boundary restricted to the
    degree-n hyperedge columns), written in the facet coordinates
    ``h.coordinates``; the downward closure is never built. Computed
    afresh on every call; ``h.inf`` keeps one.
    """
    c = h.coordinates
    generators = tuple(
        tuple(_hyperedge_positions(h, n)) for n in range(len(c.simplices))
    )
    return GradedSubmodule(c, inf_bases_of_span(c.boundaries, generators))


def sup_chain(h: Hypergraph) -> GradedSubmodule:
    """Smallest boundary-stable submodule containing the hyperedge span:
    degree n is spanned by the n-hyperedges together with boundaries of
    the (n+1)-hyperedges, in the facet coordinates ``h.coordinates``.
    Computed afresh on every call; ``h.sup`` keeps one."""
    c = h.coordinates
    top = len(c.simplices) - 1
    bases = []
    for n in range(top + 1):
        ambient = len(c.simplices[n])
        span = SparseIntMatrix.from_columns(
            ambient, [{p: 1} for p in _hyperedge_positions(h, n)]
        )
        if n + 1 <= top:
            d_above = c.boundaries[n + 1]
            image = SparseIntMatrix.from_columns(
                ambient, [dict(d_above._cols[p]) for p in _hyperedge_positions(h, n + 1)]
            )
        else:
            image = SparseIntMatrix(ambient, 0)
        bases.append(lattice_sum_basis(span, image))
    return GradedSubmodule(c, tuple(bases))


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
    return _chain_homology(k.coordinates.boundaries, coeff)


# ---------------------------------------------------------------- rendering


def _render_values(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"

