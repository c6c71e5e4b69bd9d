"""Hypergraph construction, parsing, closure, and the lattice-path product."""

import itertools
import json
import re
from math import comb

import pytest
from hypothesis import given, strategies as st

from hyperhom.errors import FormatError, ValidationError
from hyperhom.hypergraph import (
    MAX_SIMPLICES,
    Hypergraph,
    SimplicialComplex,
    associated_complex,
    dumps_structured,
    hypergraph_from_edges,
    lattice_paths,
    parse_hypergraph,
    product_boxtimes,
    product_complex,
    product_vertices,
    random_hypergraph,
    to_structured,
    to_text,
)
from test_kunneth import small_pairs


def small_hypergraphs(max_vertices=5, max_dim=3):
    return st.builds(
        random_hypergraph,
        n_vertices=st.integers(1, max_vertices),
        max_dim=st.integers(0, max_dim),
        density=st.floats(0.05, 0.9),
        seed=st.integers(0, 10**6),
    )


# ------------------------------------------------------------- text format


def test_parse_text_basic():
    h = parse_hypergraph("b a\n# comment\n\nc  # trailing\nc b\n")
    assert h.vertices == ("a", "b", "c")
    assert h.edges == ((2,), (0, 1), (1, 2))


def test_parse_text_dedupes_and_orders_edges():
    h = parse_hypergraph("x y\ny x\nx\n")
    assert h.edges == ((0,), (0, 1))


def test_parse_text_empty_is_validation_error():
    with pytest.raises(ValidationError):
        parse_hypergraph("# nothing here\n\n")


def test_parse_text_repeated_vertex_is_validation_error():
    with pytest.raises(ValidationError):
        parse_hypergraph("a b a\n")


def test_parse_accepts_bar_tokens_as_opaque_labels():
    h = parse_hypergraph("v0|w0 v1|w1\n")
    assert h.vertices == ("v0|w0", "v1|w1")


def test_text_round_trip():
    h = parse_hypergraph("c a\nb\nb c a\n")
    assert parse_hypergraph(to_text(h)) == h


def test_tokens_the_text_format_cannot_write_are_refused():
    # '#' starts a comment and a leading '{' reads as JSON
    for token in ("a#b", "#", "{a"):
        with pytest.raises(ValidationError, match=re.escape(repr(token))):
            parse_hypergraph(json.dumps({"edges": [[token, "c"]]}))
    with pytest.raises(ValidationError, match="'{a'"):
        parse_hypergraph("b {a\n")
    assert parse_hypergraph('{"edges": [["a{", "}"]]}').vertices == ("a{", "}")


_tokens = st.text(st.one_of(st.sampled_from("a{#| \n"), st.characters()), min_size=1, max_size=3)


@given(st.lists(st.lists(_tokens, min_size=1, max_size=3), min_size=1, max_size=4))
def test_text_round_trip_keeps_every_accepted_hypergraph(edges):
    try:
        h = hypergraph_from_edges(edges)
    except ValidationError:
        return
    assert parse_hypergraph(to_text(h)).edge_token_sets == h.edge_token_sets


# ------------------------------------------------------- structured format


def test_parse_structured_round_trip_exact():
    h = parse_hypergraph('{"edges": [["b", "a"], ["a"]]}')
    assert h.vertices == ("a", "b")
    assert parse_hypergraph(dumps_structured(h)) == h


def test_structured_vertices_list_fixes_the_order():
    h = parse_hypergraph('{"vertices": ["z", "a"], "edges": [["a", "z"]]}')
    assert h.vertices == ("z", "a")
    assert h.edges == ((0, 1),)


def test_structured_errors():
    with pytest.raises(FormatError):
        parse_hypergraph("{not json")
    with pytest.raises(FormatError):
        parse_hypergraph('{"edges": [[]]}')
    with pytest.raises(FormatError):
        parse_hypergraph('{"edges": [["a", 3]]}')
    with pytest.raises(FormatError):
        parse_hypergraph('{"edges": [["a"]], "extra": 1}')
    with pytest.raises(FormatError):
        parse_hypergraph('{"vertices": "a", "edges": [["a"]]}')
    with pytest.raises(ValidationError):
        parse_hypergraph('{"edges": []}')
    with pytest.raises(ValidationError):
        parse_hypergraph('{"vertices": ["a"], "edges": [["a", "b"]]}')
    with pytest.raises(ValidationError):
        parse_hypergraph('{"vertices": ["a", "a"], "edges": [["a"]]}')


def test_structured_document_shape():
    h = parse_hypergraph("a b\nb\n")
    doc = to_structured(h)
    assert doc == {"vertices": ["a", "b"], "edges": [["b"], ["a", "b"]]}
    assert json.loads(dumps_structured(h)) == doc


# ------------------------------------------------------------ constructors


def test_post_init_rejects_malformed():
    with pytest.raises(ValidationError):
        Hypergraph(("a", "b"), ((1, 0),))  # not increasing
    with pytest.raises(ValidationError):
        Hypergraph(("a", "b"), ((0, 1), (0,)))  # wrong order
    with pytest.raises(ValidationError):
        Hypergraph(("a", "b"), ((0,),))  # b uncovered
    with pytest.raises(ValidationError):
        Hypergraph(("a",), ())  # no edges
    with pytest.raises(ValidationError):
        Hypergraph(("a",), ((1,),))  # index out of range
    with pytest.raises(ValidationError):
        Hypergraph(("a", "b"), ((2, -1),))  # unsorted and out of range
    with pytest.raises(ValidationError):
        Hypergraph(("a",), ((0,), (0,)))  # duplicated edge


@pytest.mark.parametrize("cls", [Hypergraph, SimplicialComplex])
@pytest.mark.parametrize("vertices, edges", [
    (("a", "b"), ([0], [1], [0, 1])),  # list edges
    (("a", "b"), [(0,), (1,), (0, 1)]),  # a list of edges
    (["a", "b"], ((0,), (1,), (0, 1))),  # a list of vertices
])
def test_post_init_accepts_only_tuples(cls, vertices, edges):
    # a list hashes neither as a field of the value nor as a dict key, so
    # the homology and the product would fail later with a TypeError
    with pytest.raises(ValidationError, match="tuple"):
        cls(vertices, edges)


def test_simplicial_complex_requires_closure():
    with pytest.raises(ValidationError):
        SimplicialComplex(("a", "b"), ((0, 1),))
    k = SimplicialComplex(("a", "b"), ((0,), (1,), (0, 1)))
    assert k.dim == 1 and k.is_closed()


def test_isolated_vertex_rejected():
    with pytest.raises(ValidationError):
        hypergraph_from_edges([["a"]], vertices=["a", "b"])


# ----------------------------------------------------------------- closure


def closure_by_powerset(h):
    """Independent oracle: all nonempty token subsets of every hyperedge."""
    out = set()
    for e in h.edges:
        toks = h.edge_tokens(e)
        for k in range(1, len(toks) + 1):
            out.update(frozenset(c) for c in itertools.combinations(toks, k))
    return frozenset(out)


@given(small_hypergraphs())
def test_closure_matches_powerset_oracle(h):
    assert associated_complex(h).edge_token_sets == closure_by_powerset(h)


@given(small_hypergraphs())
def test_closure_idempotent_and_minimal(h):
    k = associated_complex(h)
    assert associated_complex(k) == k
    tops = [set(e) for e in h.edges]
    assert all(any(set(s) <= t for t in tops) for s in k.edges)


def test_closure_admission_counts_only_maximal_simplices_of_a_closed_input():
    # the 13-vertex sphere: 13 facets of 12 vertices, closure 2^13 - 2 simplices
    tokens = [f"s{i:02d}" for i in range(13)]
    k = associated_complex(hypergraph_from_edges(itertools.combinations(tokens, 12)))
    assert len(k.edges) == 2**13 - 2
    # summed over every simplex the bound would pass MAX_SIMPLICES
    assert sum(2 ** len(s) - 1 for s in k.edges) > MAX_SIMPLICES
    assert associated_complex(k) == k
    wide = hypergraph_from_edges([[f"v{i:02d}" for i in range(21)]])
    with pytest.raises(ValidationError, match="limit"):
        associated_complex(wide)


def test_closure_keeps_vertex_order():
    h = parse_hypergraph('{"vertices": ["z", "a"], "edges": [["a", "z"]]}')
    assert associated_complex(h).vertices == ("z", "a")


# ----------------------------------------------------------- lattice paths


@given(st.integers(0, 4), st.integers(0, 4))
def test_lattice_paths_count_and_shape(p, q):
    paths = lattice_paths(p, q)
    assert len(paths) == comb(p + q, p)
    assert len({pts for pts, _ in paths}) == len(paths)
    for pts, area in paths:
        assert pts[0] == (0, 0) and pts[-1] == (p, q)
        assert len(pts) == p + q + 1
        steps = {(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in zip(pts, pts[1:])}
        assert steps <= {(1, 0), (0, 1)}
        assert 0 <= area <= p * q


def test_lattice_paths_refuse_a_non_integer_corner():
    for p, q in ((1.5, 1), (1, 0.5), (2.0, 1), ("2", 1)):
        with pytest.raises(ValueError, match="grid corner must be integers"):
            lattice_paths(p, q)
    # a float equal to a cached corner is refused too, not answered from the cache
    assert len(lattice_paths(2, 1)) == 3
    with pytest.raises(ValueError, match=r"got \(2.0, 1\)"):
        lattice_paths(2.0, 1)


def test_lattice_path_area_extremes():
    paths = lattice_paths(2, 3)
    by_pts = {pts: area for pts, area in paths}
    right_first = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3))
    up_first = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3))
    assert by_pts[right_first] == 0
    assert by_pts[up_first] == 6


def test_lattice_path_area_counts_squares_below():
    # path R U R: squares below are the one under the second right step
    (pts, area), = [p for p in lattice_paths(2, 1) if p[0][1] == (1, 0) and p[0][2] == (1, 1)]
    assert pts == ((0, 0), (1, 0), (1, 1), (2, 1))
    assert area == 1


# ----------------------------------------------------------------- product


def seg_and_interval():
    h = parse_hypergraph("v0\nv0 v1\n")
    h2 = parse_hypergraph("w1\nw0 w1\n")
    return h, h2


def test_product_on_segment_pair():
    h, h2 = seg_and_interval()
    p = product_boxtimes(h, h2)
    assert p.vertices == ("v0|w0", "v0|w1", "v1|w0", "v1|w1")
    assert p.edge_token_sets == frozenset(
        {
            frozenset({"v0|w1"}),
            frozenset({"v0|w0", "v0|w1"}),
            frozenset({"v0|w1", "v1|w1"}),
            frozenset({"v0|w0", "v1|w0", "v1|w1"}),
            frozenset({"v0|w0", "v0|w1", "v1|w1"}),
        }
    )
    assert len(p.edges) == 5
    assert not p.is_closed()


def test_product_closure_adds_diagonal_only():
    h, h2 = seg_and_interval()
    k = associated_complex(product_boxtimes(h, h2))
    assert len(k.edges) == 11
    assert frozenset({"v0|w0", "v1|w1"}) in k.edge_token_sets
    assert frozenset({"v0|w1", "v1|w0"}) not in k.edge_token_sets


def test_a_product_lives_on_its_factor():
    h, h2 = seg_and_interval()
    box = product_boxtimes(h, h2)
    assert product_boxtimes(h, h2) is box
    # equal but distinct factors build their own, equal product
    g, g2 = Hypergraph(h.vertices, h.edges), Hypergraph(h2.vertices, h2.edges)
    other = product_boxtimes(g, g2)
    assert other == box and other is not box


def test_product_vertex_order_is_index_pairs():
    h = parse_hypergraph("a ab\n")
    h2 = parse_hypergraph("x y\n")
    # token-lexicographic order would put "ab|x" before "a|x"
    assert product_vertices(h, h2) == ("a|x", "a|y", "ab|x", "ab|y")
    assert product_boxtimes(h, h2).vertices == ("a|x", "a|y", "ab|x", "ab|y")


def test_product_rejects_bar_in_factor_tokens():
    h = parse_hypergraph("v0|w0 v1|w1\n")
    ok = parse_hypergraph("a\n")
    with pytest.raises(ValidationError):
        product_boxtimes(h, ok)
    with pytest.raises(ValidationError):
        product_boxtimes(ok, h)


@given(st.integers(0, 3), st.integers(0, 3))
def test_single_edge_product_is_one_shuffle_per_path(p, q):
    h = hypergraph_from_edges([[f"v{i}" for i in range(p + 1)]])
    h2 = hypergraph_from_edges([[f"w{j}" for j in range(q + 1)]])
    prod = product_boxtimes(h, h2)
    assert len(prod.edges_of_dim(p + q)) == comb(p + q, p)
    assert len(prod.edges) == comb(p + q, p)


def product_simplices_by_chains(k, k2):
    """Independent oracle for the product complex simplices.

    A set of vertex pairs is a product simplex exactly when it can be
    ordered as a chain that weakly increases in both coordinates and
    whose coordinate sets are simplices of the factors.
    """
    left = k.edge_token_sets
    right = k2.edge_token_sets
    pairs = [(u, w) for u in k.vertices for w in k2.vertices]
    li = {t: i for i, t in enumerate(k.vertices)}
    ri = {t: i for i, t in enumerate(k2.vertices)}
    found = set()
    for size in range(1, len(pairs) + 1):
        for sub in itertools.combinations(pairs, size):
            chain = sorted(sub, key=lambda p: (li[p[0]], ri[p[1]]))
            rights = [ri[w] for _, w in chain]
            if any(b < a for a, b in zip(rights, rights[1:])):
                continue
            if frozenset(u for u, _ in sub) not in left:
                continue
            if frozenset(w for _, w in sub) not in right:
                continue
            found.add(frozenset(f"{u}|{w}" for u, w in sub))
    return frozenset(found)


@given(small_hypergraphs(max_vertices=3, max_dim=2), small_hypergraphs(max_vertices=3, max_dim=2))
def test_product_complex_matches_chain_oracle(h, h2):
    k, k2 = associated_complex(h), associated_complex(h2)
    assert product_complex(k, k2).edge_token_sets == product_simplices_by_chains(k, k2)


@given(small_hypergraphs(max_vertices=4, max_dim=2), small_hypergraphs(max_vertices=4, max_dim=2))
def test_closure_commutes_with_product(h, h2):
    via_product = associated_complex(product_boxtimes(h, h2))
    via_closures = product_complex(associated_complex(h), associated_complex(h2))
    assert via_product == via_closures


@given(small_hypergraphs(), small_pairs())
def test_adopted_closures_and_products_pass_the_validating_constructors(h, pair):
    h1, h2 = pair
    box = product_boxtimes(h1, h2)
    closures = (h.closure, box.closure, product_complex(h1.closure, h2.closure))
    for k in closures:
        assert type(k) is SimplicialComplex
        assert k == SimplicialComplex(k.vertices, k.edges)
    for p in (box, product_boxtimes(h1.closure, h2.closure)):
        assert type(p) is Hypergraph
        assert p == Hypergraph(p.vertices, p.edges)


def test_product_complex_rejects_open_inputs():
    h = parse_hypergraph("a b\na\nb\n")
    open_h = parse_hypergraph("a b\n")
    with pytest.raises(ValidationError):
        product_complex(h, open_h)


# ------------------------------------------------------------------ random


def test_random_hypergraph_deterministic():
    a = random_hypergraph(6, 3, 0.4, seed=17)
    b = random_hypergraph(6, 3, 0.4, seed=17)
    assert a == b
    assert a != random_hypergraph(6, 3, 0.4, seed=18)


def test_random_hypergraph_degenerate_cases():
    one = random_hypergraph(1, 0, 1.0, seed=0)
    assert one.vertices == ("v0",) and one.edges == ((0,),)
    forced = random_hypergraph(5, 2, 0.0, seed=3)
    assert len(forced.edges) == 1


def test_random_hypergraph_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least one vertex"):
        random_hypergraph(0, 1, 0.5, seed=0)
    with pytest.raises(ValueError, match="max_dim must be non-negative, got -1"):
        random_hypergraph(3, -1, 0.5, seed=0)
    with pytest.raises(ValueError, match="density"):
        random_hypergraph(3, 1, 1.5, seed=0)
    with pytest.raises(ValueError, match="max_dim must be an integer, got 1.5"):
        random_hypergraph(3, 1.5, 0.5, seed=0)
    with pytest.raises(ValueError, match="n_vertices must be an integer, got 3.0"):
        random_hypergraph(3.0, 1, 0.5, seed=0)


@given(st.integers(1, 7), st.integers(0, 3), st.floats(0.0, 1.0), st.integers(0, 999))
def test_random_hypergraph_is_valid_and_bounded(n, d, density, seed):
    h = random_hypergraph(n, d, density, seed)
    assert h.dim <= d
    assert len(h.vertices) <= n
    # construction re-runs the full validation
    assert Hypergraph(h.vertices, h.edges) == h
