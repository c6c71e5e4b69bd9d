"""Tensor chain complexes, the two chain maps between a tensor product
and the product complex, and the Kunneth verification.

The shuffle map sends a tensor of simplices to a signed sum over
monotone lattice paths in the product complex; the front/back-face map
goes the other way by splitting each product simplex at every corner
and dropping degenerate factors. Both are cell rules on a
:class:`TensorContext`, as the boundary is on a chain type: ``ez_map``
and ``aw_map`` apply them to chains, and the chain-map check writes
them as matrices. A :class:`TensorContext` names every pair of closure
simplices of two hypergraphs; its boundary has columns on the hyperedge
pairs alone. The composite front/back after shuffle is the identity on
the nose, which is what makes the embedded homology of a product
computable from the factors.

The headline check: for hypergraphs h, h2 and every degree n, the
embedded homology of the lattice-path product equals the direct sum of
tensor terms H_p(h) (x) H_q(h2) and torsion products Tor(H_p, H_{q-1})
over p+q = n. Over a field the torsion terms vanish and the statement
becomes a Betti-number convolution.
"""

from __future__ import annotations

from functools import cached_property

from .abelian import FGAbelianGroup, direct_sum
from .errors import IntegrityError
from .homology import (
    INTEGERS,
    ChainElement,
    Coefficient,
    Coordinates,
    GradedSubmodule,
    apply_rule,
    embedded_homology,
    inf_bases_of_span,
    map_in_bases,
    render_terms,
    rule_matrix,
    simplex_label,
)
from .hypergraph import Hypergraph, lattice_paths, product_boxtimes
from .intlinalg import SparseIntMatrix
from .value import Value

SimplexPair = tuple[tuple[int, ...], tuple[int, ...]]


# ------------------------------------------------------------ tensor chains


class TensorChain(ChainElement):
    """Integer combination of simplex tensors sigma (x) tau, graded by
    the sum of the factor dimensions."""

    @staticmethod
    def cell_degree(pair: SimplexPair) -> int:
        return len(pair[0]) + len(pair[1]) - 2

    @staticmethod
    def faces(pair: SimplexPair) -> list[tuple[SimplexPair, int]]:
        """The faces of the left factor, then those of the right factor
        with the sign (-1)^(left degree)."""
        s, u = pair
        out = [((f, u), sign) for f, sign in ChainElement.faces(s)]
        flip = 1 if len(s) % 2 else -1
        out.extend(((s, f), flip * sign) for f, sign in ChainElement.faces(u))
        return out

    @property
    def terms(self) -> dict[SimplexPair, int]:
        return self.coeffs

    @classmethod
    def of_pair(cls, s: tuple[int, ...], u: tuple[int, ...]) -> "TensorChain":
        return cls(len(s) + len(u) - 2, {(tuple(s), tuple(u)): 1})


# ----------------------------------------------------------------- contexts


class TensorContext(Coordinates, Value):
    """Coordinates for the tensor product of two hypergraphs' closure
    complexes: per degree n, one cell per pair of closure simplices with
    dimensions summing to n, blocks by ascending left dimension, each
    lexicographic. Its generators are the hyperedge pairs e (x) e' (every
    cell, on two complexes), the only cells its boundary has columns on.
    The shuffle and front/back-face rules check a cell against these
    cells."""

    chain = TensorChain

    def __init__(self, left: Hypergraph, right: Hypergraph) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def from_hypergraphs(cls, h: Hypergraph, h2: Hypergraph) -> "TensorContext":
        return cls(h, h2)

    @cached_property
    def simplices(self) -> tuple[tuple[SimplexPair, ...], ...]:
        # degrees 0 through left.dim + right.dim + 1; the last is empty
        left, right = self.left.closure, self.right.closure
        return tuple(
            tuple((s, u) for p in range(n + 1) for s in left.edges_of_dim(p)
                  for u in right.edges_of_dim(n - p))
            for n in range(left.dim + right.dim + 2)
        )

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        # hyperedges come in closure order, so each degree's positions rise
        out: list[list[int]] = [[] for _ in self.simplices]
        for e in self.left.edges:
            for e2 in self.right.edges:
                n = len(e) + len(e2) - 2
                out[n].append(self.simplex_positions(n)[(e, e2)])
        return tuple(map(tuple, out))

    def shuffle(self, pair: SimplexPair) -> list[tuple[tuple[int, ...], int]]:
        """The shuffle map's cell rule: s (x) u goes to one staircase per
        monotone lattice path, signed by (-1) to the number of grid squares
        below the path. Product vertex (a, b) has index a * width + b, as
        in :func:`product_boxtimes`."""
        s, u = pair
        if (s, u) not in self.simplex_positions(len(s) + len(u) - 2):
            raise ValueError(f"{s} (x) {u} is not a cell of the tensor complex")
        width = len(self.right.vertices)
        return [
            (tuple(s[a] * width + u[b] for a, b in points), -1 if area % 2 else 1)
            for points, area in lattice_paths(len(s) - 1, len(u) - 1)
        ]

    def front_back(self, sx: tuple[int, ...]) -> list[tuple[SimplexPair, int]]:
        """The front/back-face map's cell rule: a product simplex splits at
        every corner into a front left face tensor a back right face, with
        no signs; a face with a repeated vertex is degenerate and dropped.
        A product simplex is a strictly increasing chain of vertex pairs
        (both coordinates weakly increase) whose two projections are
        factor simplices."""
        width = len(self.right.vertices)
        if any(y <= x or y % width < x % width for x, y in zip(sx, sx[1:])):
            raise ValueError(f"vertex pairs of {sx} are not monotone")
        lefts = [x // width for x in sx]
        rights = [x % width for x in sx]
        s, u = tuple(dict.fromkeys(lefts)), tuple(dict.fromkeys(rights))
        if (s, u) not in self.simplex_positions(len(s) + len(u) - 2):
            raise ValueError(f"{sx} is not a simplex of the product complex")
        # the front lefts[:k+1] is degenerate once it takes a step that
        # keeps the left vertex, the back rights[k:] while it takes one
        # that keeps the right vertex
        steps = range(len(sx) - 1)
        first = next((j for j in steps if lefts[j] == lefts[j + 1]), len(sx) - 1)
        last = max((j + 1 for j in steps if rights[j] == rights[j + 1]), default=0)
        return [((tuple(lefts[: k + 1]), tuple(rights[k:])), 1) for k in range(last, first + 1)]


ProductContext = TensorContext  # the name acceptance criterion 2 reads


# --------------------------------------------------------- the two maps


def ez_map(t: TensorChain, ctx: TensorContext) -> ChainElement:
    """The shuffle map on a tensor chain, see :meth:`TensorContext.shuffle`."""
    return apply_rule(ctx.shuffle, t, ChainElement, t.degree)


def aw_map(c: ChainElement, ctx: TensorContext) -> TensorChain:
    """The front/back-face map on a product chain, see :meth:`TensorContext.front_back`."""
    return apply_rule(ctx.front_back, c, TensorChain, c.degree)


# ----------------------------------------------------- Inf of the tensor


def inf_tensor_basis(
    h: Hypergraph, h2: Hypergraph, verify: bool = False
) -> GradedSubmodule:
    """Largest boundary-stable submodule of the tensor complex inside
    the span of hyperedge tensors e (x) e'.

    Computed degreewise as the tensor of the factor infimum bases, which
    is canonical as it stands: the (p, i, j) loop emits the pivots
    (lead x, lead y) in increasing order. In verification mode the
    submodule is recomputed directly inside the tensor complex, from the
    boundary columns of the context's generators (kernel of the
    projected tensor boundary, as for a single hypergraph), and the two
    canonical bases must be identical matrices. The result's
    ``coordinates`` is the ``TensorContext(h, h2)`` that names its rows.
    """
    ctx = TensorContext(h, h2)
    mi, mi2 = h.inf, h2.inf
    bases = []
    for n in range(ctx.top_degree + 1):
        pos = ctx.simplex_positions(n)
        cols = []
        for p in range(n + 1):
            q = n - p
            if p > mi.top_degree or q > mi2.top_degree:
                continue
            # each factor column is read once, as (simplex, value) pairs
            lsimp = mi.coordinates.simplices_of_dim(p)
            rsimp = mi2.coordinates.simplices_of_dim(q)
            lefts = [[(lsimp[a], v) for a, v in x.items()] for x in mi.bases[p]._cols]
            rights = [[(rsimp[b], v) for b, v in y.items()] for y in mi2.bases[q]._cols]
            for x in lefts:
                for y in rights:
                    cols.append({pos[(s, u)]: vs * vu for s, vs in x for u, vu in y})
        # no Hermite pass: pivots px * py > 0 rise, entries on them lie in [0, px * py)
        bases.append(SparseIntMatrix._adopt(len(pos), cols))
    result = GradedSubmodule(ctx, tuple(bases))
    if verify:
        direct = inf_bases_of_span(ctx.boundaries, ctx.generators)
        for n, (got, want) in enumerate(zip(direct, result.bases)):
            if got != want:
                raise IntegrityError(
                    f"tensor infimum mismatch at degree {n}: direct kernel "
                    "and tensor-of-bases computations disagree"
                )
    return result


def render_tensor_chain(t: TensorChain, left: Hypergraph, right: Hypergraph) -> str:
    """Human-readable form like ``{a,b}(x){c} - {a}(x){b,c}``."""
    ordered = sorted(t.terms.items(), key=lambda kv: (len(kv[0][0]), kv[0]))
    return render_terms(
        (simplex_label(s, left) + "(x)" + simplex_label(u, right), v) for (s, u), v in ordered
    )


# ------------------------------------------------------------- reporting


class KunnethRow(Value):
    def __init__(
        self, degree: int, tensor_part: FGAbelianGroup | int, tor_part: FGAbelianGroup | int,
        product_value: FGAbelianGroup | int, ok: bool,
    ) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "tensor_part", tensor_part)
        object.__setattr__(self, "tor_part", tor_part)
        object.__setattr__(self, "product_value", product_value)
        object.__setattr__(self, "ok", ok)


class KunnethReport(Value):
    def __init__(self, coeff: Coefficient, rows: tuple[KunnethRow, ...]) -> None:
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "rows", rows)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "coefficients": str(self.coeff),
            "ok": self.ok,
            "degrees": [
                {
                    "degree": r.degree,
                    "tensor": str(r.tensor_part),
                    "tor": str(r.tor_part),
                    "product": str(r.product_value),
                    "ok": r.ok,
                }
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        lines = [f"kunneth check over {self.coeff}"]
        for r in self.rows:
            verdict = "ok" if r.ok else "MISMATCH"
            lines.append(
                f"  n={r.degree}: tensor={r.tensor_part} tor={r.tor_part} "
                f"product={r.product_value} [{verdict}]"
            )
        lines.append("result: " + ("ok" if self.ok else "MISMATCH"))
        return "\n".join(lines) + "\n"


class ChainMapReport(Value):
    def __init__(
        self, top_degree: int, tensor_columns_checked: int, product_columns_checked: int
    ) -> None:
        object.__setattr__(self, "top_degree", top_degree)
        object.__setattr__(self, "tensor_columns_checked", tensor_columns_checked)
        object.__setattr__(self, "product_columns_checked", product_columns_checked)


# ---------------------------------------------------------------- checks


def _value_at(values, n: int, is_field: bool):
    if 0 <= n < len(values):
        return values[n]
    return 0 if is_field else FGAbelianGroup.trivial()


def kunneth_check(
    h: Hypergraph, h2: Hypergraph, coeff: Coefficient = INTEGERS
) -> KunnethReport:
    """Compare the embedded homology of the lattice-path product with
    the tensor plus torsion terms built from the factor homologies.

    A mismatch is reported, not raised: the report carries all three
    columns per degree so a counterexample is fully documented.
    """
    box = product_boxtimes(h, h2)
    left = embedded_homology(h, coeff)
    right = embedded_homology(h2, coeff)
    prod = embedded_homology(box, coeff)
    rows = []
    for n in range(len(prod)):
        if coeff.is_field:
            tensor_part = sum(
                _value_at(left, p, True) * _value_at(right, n - p, True)
                for p in range(n + 1)
            )
            tor_part = 0
            expected = tensor_part
        else:
            tensor_part = direct_sum(
                _value_at(left, p, False).tensor(_value_at(right, n - p, False))
                for p in range(n + 1)
            )
            tor_part = direct_sum(
                _value_at(left, p, False).tor(_value_at(right, n - 1 - p, False))
                for p in range(n)
            )
            expected = tensor_part.direct_sum(tor_part)
        rows.append(KunnethRow(n, tensor_part, tor_part, prod[n], expected == prod[n]))
    return KunnethReport(coeff, tuple(rows))


# kept only because perfbench's tracer table still lists the name
field_kunneth_check = kunneth_check


def _require_equal(got: SparseIntMatrix, want: SparseIntMatrix, n: int, what: str) -> None:
    """Raise IntegrityError naming the first column where two degree-n
    matrices differ."""
    if got != want:
        j = next(j for j in range(got.ncols) if got.column(j) != want.column(j))
        raise IntegrityError(f"{what} basis column {j} (degree {n})")


def _chain_map(rule, source: GradedSubmodule, target: GradedSubmodule, refusal: str) -> list:
    """A degree-preserving cell rule in the two bases (see
    :func:`~hyperhom.homology.map_in_bases`), from its rule matrices on the
    cells the source basis reaches; ``refusal`` words both refusals."""
    c, rows = source.coordinates, target.coordinates
    maps = []
    for n, b in enumerate(source.bases):
        support = sorted({i for x in b._cols for i in x})
        maps.append(rule_matrix(rule, c.simplices_of_dim(n), rows.simplex_positions(n), support))
    return map_in_bases(source, target, maps, 0, (refusal, refusal))


def restricted_chainmap_check(
    h: Hypergraph, h2: Hypergraph, verify: bool = False
) -> ChainMapReport:
    """Verify the chain-map identities on the infimum bases.

    The shuffle map becomes matrices EZ[n] from the tensor to the product
    infimum basis and the front/back-face map AW[n] back (see
    :func:`_chain_map`); an image outside the other infimum raises. With
    dT, dP the restricted boundaries, each degree checks dP[n] EZ[n] =
    EZ[n-1] dT[n], dT[n] AW[n] = AW[n-1] dP[n] and AW[n] EZ[n] = 1, which
    hold exactly when the chain identities hold on each basis chain
    (solves are exact, basis columns independent). A failure raises
    IntegrityError naming the first offending column. With ``verify`` the
    tensor infimum is also recomputed directly, see :func:`inf_tensor_basis`.
    """
    tensor_inf = inf_tensor_basis(h, h2, verify=verify)
    ctx = tensor_inf.coordinates
    product_inf = product_boxtimes(h, h2).inf
    ez = _chain_map(ctx.shuffle, tensor_inf, product_inf, (
        "shuffle image of tensor basis column {j} (degree {n}) is outside the product infimum"
    ))
    aw = _chain_map(ctx.front_back, product_inf, tensor_inf, (
        "front/back-face image of product basis column {j} (degree {n}) "
        "is outside the tensor infimum"
    ))
    d_t, d_p = tensor_inf.restricted, product_inf.restricted
    for n in range(tensor_inf.top_degree + 1):
        if n:
            _require_equal(
                d_p[n] @ ez[n], ez[n - 1] @ d_t[n], n,
                "shuffle map does not commute with boundaries on tensor",
            )
            _require_equal(
                d_t[n] @ aw[n], aw[n - 1] @ d_p[n], n,
                "front/back-face map does not commute with boundaries on product",
            )
        _require_equal(
            aw[n] @ ez[n], SparseIntMatrix.identity(ez[n].ncols), n,
            "front/back-face after shuffle is not the identity on tensor",
        )
    return ChainMapReport(
        tensor_inf.top_degree, sum(m.ncols for m in ez), sum(m.ncols for m in aw)
    )
