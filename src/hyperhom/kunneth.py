"""Tensor chain complexes, the two chain maps between a tensor product
and the product complex, and the Kunneth verification.

The shuffle map sends a tensor of simplices to a signed sum over
monotone lattice paths in the product complex; the front/back-face map
goes the other way by splitting each product simplex at every corner
and dropping degenerate factors. The composite front/back after
shuffle is the identity on the nose, which is what makes the embedded
homology of a product computable from the factors.

The headline check: for hypergraphs h, h2 and every degree n, the
embedded homology of the lattice-path product equals the direct sum of
tensor terms H_p(h) (x) H_q(h2) and torsion products Tor(H_p, H_{q-1})
over p+q = n. Over a field the torsion terms vanish and the statement
becomes a Betti-number convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abelian import FGAbelianGroup, direct_sum
from .errors import IntegrityError
from .homology import (
    INTEGERS,
    ChainElement,
    Coefficient,
    GradedSubmodule,
    chain_boundary,
    chain_from_vector,
    chain_to_vector,
    embedded_homology,
    inf_bases_of_span,
)
from .hypergraph import Hypergraph, SimplicialComplex, lattice_paths, product_boxtimes
from .intlinalg import SparseIntMatrix, column_hnf

SimplexPair = tuple[tuple[int, ...], tuple[int, ...]]


# ------------------------------------------------------------ tensor chains


@dataclass(frozen=True)
class TensorChain:
    """Integer combination of simplex tensors sigma (x) tau, graded by
    the sum of the factor dimensions."""

    degree: int
    terms: dict[SimplexPair, int]

    def __post_init__(self) -> None:
        for (s, u), c in self.terms.items():
            if len(s) + len(u) != self.degree + 2:
                raise ValueError(f"term {s} (x) {u} is not of degree {self.degree}")
            if c == 0:
                raise ValueError("zero coefficients must be dropped")

    @classmethod
    def of_pair(cls, s: tuple[int, ...], u: tuple[int, ...]) -> "TensorChain":
        return cls(len(s) + len(u) - 2, {(tuple(s), tuple(u)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorChain") -> "TensorChain":
        if other.degree != self.degree:
            raise ValueError("cannot add tensor chains of different degrees")
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, 0) + c
        return TensorChain(self.degree, {k: c for k, c in acc.items() if c})

    def scaled(self, a: int) -> "TensorChain":
        if a == 0:
            return TensorChain(self.degree, {})
        return TensorChain(self.degree, {k: a * c for k, c in self.terms.items()})


def tensor_boundary(t: TensorChain) -> TensorChain:
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


# ----------------------------------------------------------------- contexts


@dataclass(frozen=True)
class TensorContext:
    """Coordinates for the tensor product of two simplicial chain
    complexes: per degree n, one basis slot per simplex pair with
    dimensions summing to n, blocks ordered by ascending left dimension
    and lexicographically inside each block."""

    left: SimplicialComplex
    right: SimplicialComplex

    @property
    def top_degree(self) -> int:
        return self.left.dim + self.right.dim + 1

    @cached_property
    def bases(self) -> tuple[tuple[SimplexPair, ...], ...]:
        out = []
        for n in range(self.top_degree + 1):
            block: list[SimplexPair] = []
            for p in range(n + 1):
                for s in self.left.simplices_of_dim(p):
                    for u in self.right.simplices_of_dim(n - p):
                        block.append((s, u))
            out.append(tuple(block))
        return tuple(out)

    @cached_property
    def positions(self) -> tuple[dict[SimplexPair, int], ...]:
        return tuple({pair: i for i, pair in enumerate(b)} for b in self.bases)

    def simplices_of_dim(self, n: int) -> tuple[SimplexPair, ...]:
        """The degree-n basis pairs; names the rows of a submodule's bases
        like the simplices of a complex do."""
        return self.bases[n] if 0 <= n <= self.top_degree else ()

    def ambient_rank(self, n: int) -> int:
        return len(self.simplices_of_dim(n))

    @cached_property
    def boundaries(self) -> tuple[SparseIntMatrix, ...]:
        out = []
        for n in range(self.top_degree + 1):
            m = SparseIntMatrix(self.ambient_rank(n - 1), self.ambient_rank(n))
            if n > 0:
                pos_below = self.positions[n - 1]
                for j, (s, u) in enumerate(self.bases[n]):
                    img = tensor_boundary(TensorChain.of_pair(s, u))
                    for key, v in img.terms.items():
                        m._cols[j][pos_below[key]] = v
            out.append(m)
        return tuple(out)

    def to_vector(self, t: TensorChain) -> dict[int, int]:
        if not 0 <= t.degree <= self.top_degree:
            raise ValueError(f"degree {t.degree} outside this context")
        pos = self.positions[t.degree]
        vec = {}
        for key, v in t.terms.items():
            if key not in pos:
                raise ValueError(f"{key[0]} (x) {key[1]} is not a basis pair")
            vec[pos[key]] = v
        return vec

    def from_vector(self, n: int, vec: dict[int, int]) -> TensorChain:
        basis = self.bases[n]
        return TensorChain(n, {basis[i]: v for i, v in vec.items() if v})


@dataclass(frozen=True)
class ProductContext:
    """The two factor complexes together with their product complex and
    the pairing between factor vertices and product vertices."""

    left: SimplicialComplex
    right: SimplicialComplex
    product: SimplicialComplex

    @classmethod
    def from_hypergraphs(cls, h: Hypergraph, h2: Hypergraph) -> "ProductContext":
        return cls(h.closure, h2.closure, product_boxtimes(h, h2).closure)

    def pair_index(self, li: int, ri: int) -> int:
        return li * len(self.right.vertices) + ri

    def split_index(self, v: int) -> tuple[int, int]:
        return divmod(v, len(self.right.vertices))


# --------------------------------------------------------- the two maps


def ez_map(t: TensorChain, ctx: ProductContext) -> ChainElement:
    """Shuffle a tensor chain into the product complex: each simplex
    tensor contributes one staircase per monotone lattice path, signed
    by (-1) to the number of grid squares below the path."""
    acc: dict[tuple[int, ...], int] = {}
    for (s, u), c in t.terms.items():
        if s not in ctx.left.simplex_positions(len(s) - 1):
            raise ValueError(f"{s} is not a simplex of the left factor")
        if u not in ctx.right.simplex_positions(len(u) - 1):
            raise ValueError(f"{u} is not a simplex of the right factor")
        for points, area in lattice_paths(len(s) - 1, len(u) - 1):
            key = tuple(ctx.pair_index(s[a], u[b]) for a, b in points)
            acc[key] = acc.get(key, 0) + (c if area % 2 == 0 else -c)
    return ChainElement(t.degree, {k: v for k, v in acc.items() if v})


def aw_map(c: ChainElement, ctx: ProductContext) -> TensorChain:
    """Split each product simplex at every corner into a front left
    face tensor a back right face; faces with a repeated vertex are
    degenerate and contribute nothing. No signs appear."""
    acc: dict[SimplexPair, int] = {}
    for sx, v in c.coeffs.items():
        pairs = [ctx.split_index(x) for x in sx]
        rights = [b for _, b in pairs]
        if any(b2 < b1 for b1, b2 in zip(rights, rights[1:])):
            raise ValueError(f"vertex pairs of {sx} are not monotone")
        if sx not in ctx.product.simplex_positions(c.degree):
            raise ValueError(f"{sx} is not a simplex of the product complex")
        lefts = [a for a, _ in pairs]
        for k in range(len(sx)):
            front = lefts[: k + 1]
            back = rights[k:]
            if any(a == b for a, b in zip(front, front[1:])):
                continue
            if any(a == b for a, b in zip(back, back[1:])):
                continue
            key = (tuple(front), tuple(back))
            acc[key] = acc.get(key, 0) + v
    return TensorChain(c.degree, {k: v for k, v in acc.items() if v})


# ----------------------------------------------------- Inf of the tensor


def inf_tensor_basis(
    h: Hypergraph, h2: Hypergraph, verify: bool = False
) -> GradedSubmodule:
    """Largest boundary-stable submodule of the tensor complex inside
    the span of hyperedge tensors e (x) e'.

    Computed degreewise as the tensor of the factor infimum bases. In
    verification mode the submodule is recomputed directly inside the
    tensor complex (kernel of the projected tensor boundary, the same
    construction used for a single hypergraph) and the two canonical
    bases must be identical matrices. The result's ``coordinates`` is
    the :class:`TensorContext` that names its rows.
    """
    ctx = TensorContext(h.closure, h2.closure)
    mi, mi2 = h.inf, h2.inf
    bases = []
    for n in range(ctx.top_degree + 1):
        ambient = ctx.ambient_rank(n)
        pos = ctx.positions[n]
        cols = []
        for p in range(n + 1):
            q = n - p
            if p > mi.top_degree or q > mi2.top_degree:
                continue
            bl, br = mi.bases[p], mi2.bases[q]
            lsimp = mi.coordinates.simplices_of_dim(p)
            rsimp = mi2.coordinates.simplices_of_dim(q)
            for i in range(bl.ncols):
                xi = bl.column(i)
                for j in range(br.ncols):
                    yj = br.column(j)
                    cols.append(
                        {
                            pos[(lsimp[a], rsimp[b])]: va * vb
                            for a, va in xi.items()
                            for b, vb in yj.items()
                        }
                    )
        bases.append(column_hnf(SparseIntMatrix.from_columns(ambient, cols)))
    result = GradedSubmodule(ctx, tuple(bases))
    if verify:
        generators = tuple(
            tuple(
                ctx.positions[n][(e, e2)]
                for e in h.edges
                for e2 in h2.edges
                if len(e) + len(e2) == n + 2
            )
            for n in range(ctx.top_degree + 1)
        )
        direct = inf_bases_of_span(ctx.boundaries, generators)
        for n, (got, want) in enumerate(zip(direct, result.bases)):
            if got != want:
                raise IntegrityError(
                    f"tensor infimum mismatch at degree {n}: direct kernel "
                    "and tensor-of-bases computations disagree"
                )
    return result


def render_tensor_chain(
    t: TensorChain, left: SimplicialComplex, right: SimplicialComplex
) -> str:
    """Human-readable form like ``{a,b}(x){c} - {a}(x){b,c}``."""
    if t.is_zero():
        return "0"

    def label(s: tuple[int, ...], k: SimplicialComplex) -> str:
        return "{" + ",".join(k.vertices[i] for i in s) + "}"

    parts = []
    for (s, u), v in sorted(t.terms.items(), key=lambda kv: (len(kv[0][0]), kv[0])):
        mag = "" if abs(v) == 1 else f"{abs(v)}*"
        body = mag + label(s, left) + "(x)" + label(u, right)
        parts.append(("- " if v < 0 else ("+ " if parts else "")) + body)
    return " ".join(parts)


# ------------------------------------------------------------- reporting


@dataclass(frozen=True)
class KunnethRow:
    degree: int
    tensor_part: FGAbelianGroup | int
    tor_part: FGAbelianGroup | int
    product_value: FGAbelianGroup | int
    ok: bool


@dataclass(frozen=True)
class KunnethReport:
    coeff: Coefficient
    rows: tuple[KunnethRow, ...]

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


@dataclass(frozen=True)
class ChainMapReport:
    top_degree: int
    tensor_columns_checked: int
    product_columns_checked: int

    def to_dict(self) -> dict:
        return {
            "top_degree": self.top_degree,
            "tensor_columns_checked": self.tensor_columns_checked,
            "product_columns_checked": self.product_columns_checked,
            "ok": True,
        }

    def to_text(self) -> str:
        return (
            f"chain maps verified through degree {self.top_degree}: "
            f"{self.tensor_columns_checked} tensor basis columns, "
            f"{self.product_columns_checked} product basis columns\n"
        )


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


def field_kunneth_check(
    h: Hypergraph, h2: Hypergraph, field: Coefficient
) -> KunnethReport:
    """Betti-number convolution: over a field the torsion terms vanish,
    so each product Betti number must equal the convolution of the
    factor Betti vectors."""
    if not field.is_field:
        raise ValueError("field coefficients required (q or zp:<p>)")
    return kunneth_check(h, h2, field)


def restricted_chainmap_check(
    h: Hypergraph, h2: Hypergraph, verify: bool = False
) -> ChainMapReport:
    """Verify the chain-map identities on every basis column.

    For each tensor infimum basis chain x: the shuffle image lies in
    the product infimum, commutes with the boundaries, and the
    front/back-face map returns exactly x. For each product infimum
    basis chain c: the front/back-face image lies in the tensor
    infimum and commutes with the boundaries. Any failure raises
    IntegrityError naming the offending chain. With ``verify`` the
    tensor infimum is also recomputed directly, see
    :func:`inf_tensor_basis`.
    """
    ctx = ProductContext.from_hypergraphs(h, h2)
    tensor_inf = inf_tensor_basis(h, h2, verify=verify)
    tctx = tensor_inf.coordinates
    product_inf = product_boxtimes(h, h2).inf
    coords = product_inf.coordinates
    checked_t = checked_p = 0
    for n in range(tensor_inf.top_degree + 1):
        tb = tensor_inf.bases[n]
        pb = product_inf.bases[n]
        product_solver = product_inf.membership_solver(n)
        tensor_solver = tensor_inf.membership_solver(n)
        for j in range(tb.ncols):
            x = tctx.from_vector(n, tb.column(j))
            mx = ez_map(x, ctx)
            vec = chain_to_vector(mx, coords)
            if vec is None or product_solver.solve(vec) is None:
                raise IntegrityError(
                    f"shuffle image of tensor basis column {j} (degree {n}) "
                    "is outside the product infimum"
                )
            if chain_boundary(mx) != ez_map(tensor_boundary(x), ctx):
                raise IntegrityError(
                    f"shuffle map does not commute with boundaries on "
                    f"tensor basis column {j} (degree {n})"
                )
            if aw_map(mx, ctx) != x:
                raise IntegrityError(
                    f"front/back-face after shuffle is not the identity on "
                    f"tensor basis column {j} (degree {n})"
                )
            checked_t += 1
        for j in range(pb.ncols):
            c = chain_from_vector(coords, n, pb.column(j))
            nc = aw_map(c, ctx)
            if tensor_solver.solve(tctx.to_vector(nc)) is None:
                raise IntegrityError(
                    f"front/back-face image of product basis column {j} "
                    f"(degree {n}) is outside the tensor infimum"
                )
            if tensor_boundary(nc) != aw_map(chain_boundary(c), ctx):
                raise IntegrityError(
                    f"front/back-face map does not commute with boundaries "
                    f"on product basis column {j} (degree {n})"
                )
            checked_p += 1
    return ChainMapReport(tensor_inf.top_degree, checked_t, checked_p)
