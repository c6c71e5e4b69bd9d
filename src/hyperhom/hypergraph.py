"""Hypergraphs, simplicial complexes, downward closure, and the
lattice-path product.

A hypergraph is a totally ordered finite vertex set together with a set
of nonempty vertex subsets (hyperedges); unlike a simplicial complex it
need not be closed under taking subsets. Vertices are opaque string
tokens; hyperedges are stored as strictly increasing index tuples, so a
hyperedge with k+1 vertices has dimension k.

Vertex order for parsed input is lexicographic on tokens. The product
of two hypergraphs orders its vertex pairs lexicographically by
(left index, right index), which makes every lattice-path simplex come
out already sorted.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

from .errors import FormatError, ValidationError
from .value import Value

if TYPE_CHECKING:
    from .homology import GradedSubmodule, SimplexCoordinates

_H = TypeVar("_H", bound="Hypergraph")


def _canonical_edges(edges: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Deduplicate and sort hyperedges by (dimension, vertex sequence)."""
    # a stable sort by length keeps the lexicographic order within each
    # length, with no Python-level key call per edge
    return tuple(sorted(sorted(set(edges)), key=len))


class Hypergraph(Value):
    """Immutable hypergraph over an explicitly ordered vertex set.

    ``vertices`` fixes the total order (position = vertex index);
    ``edges`` holds the deduplicated hyperedges in the canonical
    (dimension, lexicographic) order. Use :func:`hypergraph_from_edges`
    or :func:`parse_hypergraph` instead of the raw constructor unless
    the index tuples are already canonical.
    """

    def __init__(self, vertices: tuple[str, ...], edges: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self) -> None:
        # a list hashes neither as a value field nor as a dict key
        if not isinstance(self.vertices, tuple) or not isinstance(self.edges, tuple):
            raise ValidationError("vertices and edges must be tuples")
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValidationError("duplicate vertex tokens")
        covered: set[int] = set()
        # canonical order is strictly increasing (dimension, vertices)
        # keys: sorted and duplicate-free, checked in the same pass
        last: tuple = (0, ())
        for e in self.edges:
            if not isinstance(e, tuple):
                raise ValidationError(f"hyperedge is not a tuple: {e!r}")
            if not e:
                raise ValidationError("empty hyperedge")
            if any(a >= b for a, b in zip(e, e[1:])):
                raise ValidationError(f"hyperedge not strictly increasing: {e}")
            if e[0] < 0 or e[-1] >= n:
                raise ValidationError(f"vertex index out of range in {e}")
            covered.update(e)
            key = (len(e), e)
            if key <= last:
                raise ValidationError("hyperedges not in canonical order")
            last = key
        if covered != set(range(n)):
            missing = [self.vertices[i] for i in sorted(set(range(n)) - covered)]
            raise ValidationError(f"vertices in no hyperedge: {missing}")
        if not self.edges:
            raise ValidationError("hypergraph has no hyperedges")

    @classmethod
    def _adopt(
        cls: type[_H], vertices: tuple[str, ...], edges: tuple[tuple[int, ...], ...]
    ) -> _H:
        """A hypergraph the library built itself, taken as it is: distinct
        tokens, canonical edges that cover every vertex and, for a
        :class:`SimplicialComplex`, closed under facets. Nothing is
        checked; user input goes through the constructor."""
        h = object.__new__(cls)
        object.__setattr__(h, "vertices", vertices)
        object.__setattr__(h, "edges", edges)
        return h

    # ----------------------------------------------------------- derived

    @property
    def dim(self) -> int:
        return len(self.edges[-1]) - 1

    @cached_property
    def _by_dim(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        buckets: list[list[tuple[int, ...]]] = [[] for _ in range(self.dim + 1)]
        for e in self.edges:
            buckets[len(e) - 1].append(e)
        return tuple(tuple(b) for b in buckets)

    def edges_of_dim(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Hyperedges of dimension n in canonical order (empty above dim)."""
        if n < 0 or n > self.dim:
            return ()
        return self._by_dim[n]

    def edge_tokens(self, e: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in e)

    @cached_property
    def edge_token_sets(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(self.edge_tokens(e)) for e in self.edges)

    def is_closed(self) -> bool:
        """True when every facet of every hyperedge is again a hyperedge."""
        present = set(self.edges)
        for e in self.edges:
            if len(e) > 1:
                for k in range(len(e)):
                    if e[:k] + e[k + 1 :] not in present:
                        return False
        return True

    # Derived values are computed on first use and live as long as the
    # hypergraph. The infimum and supremum are separate values, so each
    # route runs on its own; the homology imports are deferred because
    # that module imports this one.

    @cached_property
    def closure(self) -> SimplicialComplex:
        """The downward closure, see :func:`associated_complex`."""
        return associated_complex(self)

    @cached_property
    def coordinates(self) -> SimplexCoordinates:
        """The hyperedges of degrees 0 through dim, and an empty degree
        dim+1: the coordinates of the infimum. A complex's are its
        simplices."""
        from .homology import SimplexCoordinates

        return SimplexCoordinates(self._by_dim + ((),))

    @cached_property
    def inf(self) -> GradedSubmodule:
        """The infimum complex, see :func:`hyperhom.homology.inf_chain`."""
        from .homology import inf_chain

        return inf_chain(self)

    @cached_property
    def sup(self) -> GradedSubmodule:
        """The supremum complex, see :func:`hyperhom.homology.sup_chain`."""
        from .homology import sup_chain

        return sup_chain(self)

    @cached_property
    def _products(self) -> dict[Hypergraph, Hypergraph]:
        """Lattice-path products with this left factor, keyed by the
        right factor, see :func:`product_boxtimes`."""
        return {}


class SimplicialComplex(Hypergraph):
    """Hypergraph closed under taking nonempty subsets."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_closed():
            raise ValidationError("simplex set is not closed under facets")

    @property
    def closure(self) -> SimplicialComplex:
        """A complex is its own closure."""
        return self

    def simplex_positions(self, n: int) -> dict[tuple[int, ...], int]:
        """Map each n-simplex to its position in the canonical order.

        The map is shared by every caller: treat it as read-only.
        """
        return self.coordinates.simplex_positions(n)


# -------------------------------------------------------------- building


def _check_token(tok: str) -> str:
    if not isinstance(tok, str) or not tok:
        raise ValidationError(f"bad vertex token: {tok!r}")
    if any(c.isspace() for c in tok):
        raise ValidationError(f"vertex token contains whitespace: {tok!r}")
    # the text format reads '#' as a comment and a leading '{' as JSON
    if "#" in tok:
        raise ValidationError(f"vertex token contains '#': {tok!r}")
    if tok.startswith("{"):
        raise ValidationError(f"vertex token starts with '{{': {tok!r}")
    return tok


def hypergraph_from_edges(
    edges: Iterable[Iterable[str]], vertices: Sequence[str] | None = None
) -> Hypergraph:
    """Build a hypergraph from token hyperedges.

    Vertex order is lexicographic on tokens; an explicit vertex list
    overrides the order (this is what lets product output round-trip,
    since product vertices are ordered by index pairs, not by token).
    The list must match the tokens used by the edges exactly.
    """
    edge_lists = [[_check_token(t) for t in e] for e in edges]
    seen = {t for e in edge_lists for t in e}
    if vertices is not None:
        declared = [_check_token(t) for t in vertices]
        extra = seen - set(declared)
        if extra:
            raise ValidationError(f"edge tokens not in vertex list: {sorted(extra)}")
        vertex_order = tuple(declared)
    else:
        vertex_order = tuple(sorted(seen))
    index = {t: i for i, t in enumerate(vertex_order)}
    out = []
    for e in edge_lists:
        if len(set(e)) != len(e):
            raise ValidationError(f"repeated vertex within a hyperedge: {e}")
        out.append(tuple(sorted(index[t] for t in e)))
    return Hypergraph(vertex_order, _canonical_edges(out))


# --------------------------------------------------------------- parsing


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format or the JSON structured format.

    Text: one hyperedge per line, whitespace-separated tokens, ``#``
    starts a comment, blank lines ignored. Structured: a JSON object
    with ``edges`` (list of token lists) and optional ``vertices``.
    """
    if text.lstrip().startswith("{"):
        return _parse_structured(text)
    edges = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        edges.append(body.split())
    if not edges:
        raise ValidationError("empty input: no hyperedges")
    return hypergraph_from_edges(edges)


def _parse_structured(text: str) -> Hypergraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("structured input must be a JSON object")
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise FormatError(f"unknown fields: {sorted(unknown)}")
    if "edges" not in doc:
        raise FormatError("structured input needs an 'edges' field")
    edges = doc["edges"]
    if not isinstance(edges, list) or any(not isinstance(e, list) for e in edges):
        raise FormatError("'edges' must be a list of token lists")
    for e in edges:
        if not e:
            raise FormatError("empty hyperedge")
        if any(not isinstance(t, str) for t in e):
            raise FormatError(f"non-string token in hyperedge: {e}")
    if not edges:
        raise ValidationError("empty input: no hyperedges")
    vertices = doc.get("vertices")
    if vertices is not None:
        if not isinstance(vertices, list) or any(not isinstance(t, str) for t in vertices):
            raise FormatError("'vertices' must be a list of tokens")
    return hypergraph_from_edges(edges, vertices)


def to_text(h: Hypergraph) -> str:
    """Serialize in the text format, edges in canonical order."""
    return "".join(" ".join(h.edge_tokens(e)) + "\n" for e in h.edges)


def to_structured(h: Hypergraph) -> dict:
    """Serialize as a JSON-ready document."""
    return {
        "vertices": list(h.vertices),
        "edges": [list(h.edge_tokens(e)) for e in h.edges],
    }


def dumps_structured(h: Hypergraph) -> str:
    return json.dumps(to_structured(h), indent=2) + "\n"


# ------------------------------------------------------------- admission

# Largest closure or product that associated_complex or product_boxtimes
# will start on: a k-vertex hyperedge alone has 2^k - 1 faces, so wide
# inputs are refused up front.
MAX_SIMPLICES = 1 << 20


def _admit(count: int, what: str) -> None:
    if count > MAX_SIMPLICES:
        raise ValidationError(
            f"{what} could have {count} simplices, more than the limit of "
            f"{MAX_SIMPLICES}"
        )


# --------------------------------------------------------------- closure


def associated_complex(h: Hypergraph) -> SimplicialComplex:
    """Downward closure: the smallest simplicial complex containing h.

    Keeps h's vertex set and order; adds every nonempty subset of every
    hyperedge. Refused with ValidationError, before any work, when the
    bound sum of 2^|e| - 1 exceeds MAX_SIMPLICES. Should the sum over
    all hyperedges exceed it, the sum is taken again without the
    hyperedges that are facets of another (whose subsets that one
    covers), so a closed input counts only its maximal simplices.
    """
    bound = sum((1 << len(e)) - 1 for e in h.edges)
    if bound > MAX_SIMPLICES:
        facets = {f for e in h.edges for f in itertools.combinations(e, len(e) - 1)}
        bound = sum((1 << len(e)) - 1 for e in h.edges if e not in facets)
    _admit(bound, "the closure")
    closed: set[tuple[int, ...]] = set()
    for e in h.edges:
        for k in range(1, len(e) + 1):
            closed.update(itertools.combinations(e, k))
    # h's vertices, each in a singleton, and every subset of a subset is
    # a subset: canonical, covered and closed as built
    return SimplicialComplex._adopt(h.vertices, _canonical_edges(closed))


# --------------------------------------------------------------- product


@lru_cache(maxsize=None)
def lattice_paths(
    p: int, q: int
) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """All monotone grid paths (0,0) -> (p,q) with their below-path area.

    Each entry is (points, area): points is the full vertex sequence of
    the staircase, area counts the grid squares strictly below the path
    (the Eilenberg-Zilber sign exponent). Right steps are explored
    before up steps, so the first path is all-right-then-up (area 0) and
    the last is all-up-then-right (area p*q).
    """
    if p < 0 or q < 0:
        raise ValueError("grid corner must be non-negative")
    out: list[tuple[tuple[tuple[int, int], ...], int]] = []
    acc: list[tuple[int, int]] = [(0, 0)]

    def walk(a: int, b: int, area: int) -> None:
        if a == p and b == q:
            out.append((tuple(acc), area))
            return
        if a < p:
            acc.append((a + 1, b))
            walk(a + 1, b, area + b)  # a right step at height b buries b squares
            acc.pop()
        if b < q:
            acc.append((a, b + 1))
            walk(a, b + 1, area)
            acc.pop()

    walk(0, 0, 0)
    return tuple(out)


def product_vertices(h: Hypergraph, h2: Hypergraph) -> tuple[str, ...]:
    """Pair tokens in (left index, right index) order."""
    return tuple(f"{u}|{w}" for u in h.vertices for w in h2.vertices)


def product_boxtimes(h: Hypergraph, h2: Hypergraph) -> Hypergraph:
    """The lattice-path product: one hyperedge per monotone path per
    pair of hyperedges, deduplicated. The result is usually not closed.

    The product is kept on the left factor, keyed by the right one, so
    every check on one pair reads the same product value and shares its
    derived data, and neither outlives the factor. Refused with
    ValidationError, before any work, when the bound sum of C(p+q, p)
    over hyperedge pairs exceeds MAX_SIMPLICES.

    Factor tokens may not contain ``|``: the product serializes its
    vertices as ``left|right`` and nested bars would not round-trip.
    """
    if h2 in h._products:
        return h._products[h2]
    for g in (h, h2):
        bad = [t for t in g.vertices if "|" in t]
        if bad:
            raise ValidationError(f"'|' is reserved for product vertices: {bad}")
    sizes, sizes2 = Counter(map(len, h.edges)), Counter(map(len, h2.edges))
    _admit(
        sum(
            a * b * math.comb(p + q - 2, p - 1)
            for p, a in sizes.items()
            for q, b in sizes2.items()
        ),
        "the product",
    )
    width = len(h2.vertices)
    edges: set[tuple[int, ...]] = set()
    for sigma in h.edges:
        for tau in h2.edges:
            for points, _ in lattice_paths(len(sigma) - 1, len(tau) - 1):
                edges.add(tuple(sigma[a] * width + tau[b] for a, b in points))
    # tokens without '|' pair up distinctly; every grid point lies on some
    # path, so every pair is covered; a path's indices strictly increase
    h._products[h2] = Hypergraph._adopt(product_vertices(h, h2), _canonical_edges(edges))
    return h._products[h2]


def product_complex(k: Hypergraph, k2: Hypergraph) -> SimplicialComplex:
    """Cartesian product of simplicial complexes, as the closure of the
    lattice-path product. Inputs must be closed: a
    :class:`SimplicialComplex` is, by construction or validation, and a
    plain hypergraph is checked."""
    for g in (k, k2):
        if not isinstance(g, SimplicialComplex) and not g.is_closed():
            raise ValidationError("product_complex needs closed complexes")
    return product_boxtimes(k, k2).closure


# ---------------------------------------------------------------- random


def random_hypergraph(
    n_vertices: int, max_dim: int, density: float, seed: int
) -> Hypergraph:
    """Reproducible random hypergraph.

    Every subset of 1..max_dim+1 vertices is included independently with
    probability ``density``; isolated vertices are then pruned. If
    nothing was selected, one candidate edge is forced so the result is
    a valid hypergraph.
    """
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    if max_dim < 0:
        raise ValueError(f"max_dim must be non-negative, got {max_dim}")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    rng = random.Random(seed)
    width = len(str(n_vertices - 1))
    tokens = [f"v{i:0{width}d}" for i in range(n_vertices)]
    top = min(max_dim, n_vertices - 1)
    candidates = [
        c
        for k in range(1, top + 2)
        for c in itertools.combinations(range(n_vertices), k)
    ]
    chosen = [c for c in candidates if rng.random() < density]
    if not chosen:
        chosen = [candidates[rng.randrange(len(candidates))]]
    covered = sorted({i for c in chosen for i in c})
    remap = {old: new for new, old in enumerate(covered)}
    vertices = tuple(tokens[i] for i in covered)
    edges = _canonical_edges(tuple(remap[i] for i in c) for c in chosen)
    return Hypergraph(vertices, edges)
