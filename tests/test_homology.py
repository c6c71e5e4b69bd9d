"""Boundary matrices, infimum/supremum complexes, and embedded homology."""

import pytest
from hypothesis import given, settings, strategies as st

import hyperhom.homology as homology
from homology_oracle import (
    oracle_boundary_matrix,
    oracle_classical_homology,
    oracle_inf_chain,
    oracle_submodule_homology,
    oracle_sup_chain,
    oracle_tensor_boundary,
    oracle_tensor_boundary_matrix,
)
from hyperhom.abelian import FGAbelianGroup
from hyperhom.errors import IntegrityError, ValidationError
from hyperhom.examples import (
    homology_demo_pair,
    projective_plane,
    tensor_membership_pair,
    triangle_boundary,
    vertex_hypergraph,
)
from hyperhom.homology import (
    INTEGERS,
    RATIONALS,
    ChainElement,
    Coefficient,
    GradedSubmodule,
    boundary_matrix,
    chain_boundary,
    classical_homology,
    embedded_homology,
    facet_coordinates,
    inf_chain,
    mod_p,
    parse_coefficient,
    restricted_boundaries,
    submodule_homology,
    sup_chain,
)
from hyperhom.hypergraph import (
    associated_complex,
    hypergraph_from_edges,
    parse_hypergraph,
    product_boxtimes,
    random_hypergraph,
)
from hyperhom.intlinalg import SparseIntMatrix
from hyperhom.kunneth import TensorChain, TensorContext
from test_kunneth import small_pairs


def small_hypergraphs(max_vertices=6, max_dim=3):
    return st.builds(
        random_hypergraph,
        n_vertices=st.integers(1, max_vertices),
        max_dim=st.integers(0, max_dim),
        density=st.floats(0.1, 0.8),
        seed=st.integers(0, 10**6),
    )


@st.composite
def sparse_wide_hypergraphs(draw, min_width=8, max_width=12):
    """One hyperedge of min_width..max_width vertices plus a few small
    hyperedges; extra vertices hang off the wide one by an edge."""
    width = draw(st.integers(min_width, max_width))
    n = width + draw(st.integers(0, 3))
    small = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True),
            max_size=5,
        )
    )
    anchors = [[draw(st.integers(0, width - 1)), v] for v in range(width, n)]
    edges = [list(range(width))] + small + anchors
    return hypergraph_from_edges([[f"w{v:02d}" for v in e] for e in edges])


ALL_COEFFS = [INTEGERS, RATIONALS, mod_p(2), mod_p(3)]


# ------------------------------------------------------------ coefficients


def test_parse_coefficient():
    assert parse_coefficient("z") == INTEGERS
    assert parse_coefficient("q") == RATIONALS
    assert parse_coefficient("zp:7") == Coefficient("zp", 7)
    assert str(parse_coefficient("zp:13")) == "zp:13"
    assert parse_coefficient("zp:2147483647").p == 2**31 - 1
    for bad in ("zp:4", "zp:1", "zp:2147483659", "zp:x", "gf2", "Z", ""):
        with pytest.raises(ValidationError):
            parse_coefficient(bad)
    with pytest.raises(ValidationError):
        Coefficient("z", 5)


# --------------------------------------------------------------- boundaries


def test_boundary_of_an_edge():
    k = associated_complex(hypergraph_from_edges([["a", "b"]]))
    d1 = boundary_matrix(k.coordinates, 1)
    # rows: {a}, {b}; the edge maps to {b} - {a}
    assert d1.to_rows() == [[-1], [1]]


def test_boundary_degree_zero_has_no_rows():
    k = triangle_boundary()
    d0 = boundary_matrix(k.coordinates, 0)
    assert d0.nrows == 0 and d0.ncols == 3


def test_boundary_squares_to_zero_on_full_simplex():
    c = associated_complex(hypergraph_from_edges([["a", "b", "c", "d"]])).coordinates
    for n in range(1, 4):
        comp = boundary_matrix(c, n) @ boundary_matrix(c, n + 1)
        assert comp.is_zero()


@given(small_hypergraphs())
def test_boundary_squares_to_zero_everywhere(h):
    k = associated_complex(h)
    c = k.coordinates
    for n in range(1, k.dim + 2):
        assert (boundary_matrix(c, n) @ boundary_matrix(c, n + 1)).is_zero()


@settings(max_examples=30)
@given(small_hypergraphs(), sparse_wide_hypergraphs(), small_pairs(), st.data())
def test_boundaries_match_the_face_rule_oracles(h, wide, pair, data):
    # facet coordinates (with overflow rows), closures, and simplex pairs
    for c in (h.coordinates, wide.coordinates, h.closure.coordinates):
        for n in range(c.top_degree + 1):
            assert boundary_matrix(c, n) == oracle_boundary_matrix(c, n)
    ctx = TensorContext.from_hypergraphs(*pair)
    for n in range(ctx.top_degree + 1):
        assert boundary_matrix(ctx, n) == oracle_tensor_boundary_matrix(ctx, n)
        cells = ctx.simplices_of_dim(n)
        if cells:
            nonzero = st.integers(-3, 3).filter(bool)
            coeffs = data.draw(st.dictionaries(st.sampled_from(cells), nonzero))
            t = TensorChain(n, coeffs)
            assert chain_boundary(t) == oracle_tensor_boundary(t)


def test_to_vector_is_none_off_the_cells():
    k = triangle_boundary()
    c = ChainElement(1, {(0, 1): 2, (1, 2): -1})
    assert k.coordinates.from_vector(1, k.coordinates.to_vector(c)) == c
    assert k.coordinates.to_vector(ChainElement.of_simplex((0, 1, 2))) is None
    ctx = TensorContext(k, k)
    t = TensorChain(1, {((0,), (1, 2)): 3, ((0, 2), (1,)): -1})
    assert ctx.from_vector(1, ctx.to_vector(t)) == t
    assert ctx.to_vector(TensorChain.of_pair((0, 1, 2), (0,))) is None


# ---------------------------------------------------------------- infimum


def test_inf_of_path_with_cap():
    h, _ = homology_demo_pair()
    m = inf_chain(h)
    # only the 0-hyperedge {v0} survives; degrees 1 and 2 collapse
    assert [m.basis_rank(n) for n in range(m.top_degree + 1)] == [1, 0, 0, 0]
    pos = m.coordinates.simplex_positions(0)
    assert m.bases[0].column(0) == {pos[(h.vertices.index("v0"),)]: 1}


def test_inf_of_closed_complex_is_full_span():
    k = triangle_boundary()
    m = inf_chain(k)
    assert [m.basis_rank(n) for n in range(m.top_degree + 1)] == [3, 3, 0]


def test_inf_membership_for_edge_path():
    h, _ = tensor_membership_pair()
    m = inf_chain(h)
    pos = m.coordinates.simplex_positions(1)
    v1, v2, v3 = (h.vertices.index(t) for t in ("v1", "v2", "v3"))
    e12 = pos[(v1, v2)]
    e23 = pos[(v2, v3)]
    # boundary of {v1,v2} + {v2,v3} is {v3} - {v1}, inside the hyperedge span
    assert m.contains(1, {e12: 1, e23: 1})
    # but {v1,v2} alone exposes {v2}, which is not a hyperedge
    assert not m.contains(1, {e12: 1})
    assert not m.contains(1, {e23: 1})


# ---------------------------------------------------------------- supremum


def test_sup_adjoins_boundary_of_top_cell():
    h = parse_hypergraph("v0\nv0 v1 v2\n")
    s = sup_chain(h)
    pos = s.coordinates.simplex_positions(1)
    assert s.bases[1].nrows == len(pos) == 3 and s.bases[1].ncols == 1
    assert s.bases[1].column(0) == {pos[(0, 1)]: 1, pos[(0, 2)]: -1, pos[(1, 2)]: 1}
    assert [s.basis_rank(n) for n in range(s.top_degree + 1)] == [1, 1, 1, 0]


def test_sup_of_closed_complex_is_full_span():
    k = triangle_boundary()
    s = sup_chain(k)
    assert [s.basis_rank(n) for n in range(s.top_degree + 1)] == [3, 3, 0]


# ------------------------------------------------------ facet coordinates


def test_coordinates_are_hyperedges_and_their_facets():
    h = parse_hypergraph("v0\nv0 v1 v2\n")
    assert h.coordinates.simplices == (((0,),), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),), ())
    # the faces {v1} and {v2} are no coordinates of degree 0: each gets an
    # overflow row after the row of {v0}
    d1 = h.coordinates.boundaries[1]
    assert d1.nrows == 3
    assert [d1.column(j) for j in range(3)] == [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]


@settings(max_examples=40)
@given(small_hypergraphs())
def test_a_complex_is_its_own_facet_coordinates(h):
    # the general facet route is the reference for the complex's override
    k = associated_complex(h)
    want = facet_coordinates(k)
    assert k.coordinates == want
    assert k.coordinates.boundaries == want.boundaries


def test_face_outside_the_coordinates_is_refused():
    h = parse_hypergraph("v0\nv0 v1 v2\n")
    c = h.coordinates
    # the bare facet {v0,v1}: its face {v1} is no coordinate of degree 0,
    # so only an overflow row shows that its image leaves the span of {v0}
    facet = SparseIntMatrix.from_columns(3, [{c.simplex_positions(1)[(0, 1)]: 1}])
    bases = (
        SparseIntMatrix.identity(1),
        facet,
        SparseIntMatrix(1, 0),
        SparseIntMatrix(0, 0),
    )
    m = GradedSubmodule(c, bases)
    with pytest.raises(IntegrityError, match="outside the degree-0 coordinates"):
        restricted_boundaries(m)


def _basis_chains(m, n):
    b = m.bases[n]
    return [m.coordinates.from_vector(n, b.column(j)) for j in range(b.ncols)]


def _assert_matches_closure_oracle(h):
    for mine, oracle in ((h.inf, oracle_inf_chain(h)), (h.sup, oracle_sup_chain(h))):
        assert mine.top_degree == oracle.top_degree
        for n in range(mine.top_degree + 1):
            assert _basis_chains(mine, n) == _basis_chains(oracle, n)
        for coeff in (INTEGERS, RATIONALS, mod_p(2)):
            assert mine.homology(coeff) == submodule_homology(oracle, coeff), coeff


@settings(max_examples=40)
@given(small_hypergraphs())
def test_facet_coordinates_match_the_closure_oracle(h):
    _assert_matches_closure_oracle(h)


@settings(max_examples=25)
@given(sparse_wide_hypergraphs())
def test_facet_coordinates_match_the_closure_oracle_on_wide_hyperedges(h):
    _assert_matches_closure_oracle(h)


# ----------------------------------------------------- chain property, D@D


@given(small_hypergraphs())
def test_restricted_boundaries_compose_to_zero(h):
    for m in (inf_chain(h), sup_chain(h)):
        d = restricted_boundaries(m)  # raises if the submodule is not stable
        for n in range(1, len(d) - 1):
            assert (d[n] @ d[n + 1]).is_zero()


def test_boundaries_that_do_not_compose_to_zero_are_refused():
    # C_0 = Z, C_1 = Z^2, C_2 = Z with d_1 = [1 0] and d_2 = e_1, so
    # d_1 @ d_2 = 1 although d_1 has the nonzero cycle e_2. Full bases are
    # boundary-stable, so restricted_boundaries accepts the module.
    class Coordinates:
        boundaries = (
            SparseIntMatrix(0, 1),
            SparseIntMatrix.from_rows([[1, 0]]),
            SparseIntMatrix.from_rows([[1], [0]]),
        )
        top_degree = 2

        def simplices_of_dim(self, n):
            return ("cell",) * self.boundaries[n].ncols

    bases = tuple(SparseIntMatrix.identity(d.ncols) for d in Coordinates.boundaries)
    m = GradedSubmodule(Coordinates(), bases)
    restricted_boundaries(m)
    with pytest.raises(IntegrityError):
        submodule_homology(m, INTEGERS)


# ----------------------------------------------------------- worked values


def test_homology_of_demo_pair_over_fields_and_z():
    h, h2 = homology_demo_pair()
    assert embedded_homology(h, RATIONALS) == [1, 0, 0, 0]
    assert embedded_homology(h2, RATIONALS) == [1, 0, 0]
    assert embedded_homology(h, mod_p(2)) == [1, 0, 0, 0]
    assert [str(g) for g in embedded_homology(h, INTEGERS, verify=True)] == [
        "Z",
        "0",
        "0",
        "0",
    ]


def test_homology_of_triangle_boundary():
    tri = triangle_boundary()
    assert [str(g) for g in embedded_homology(tri, INTEGERS, verify=True)] == [
        "Z",
        "Z",
        "0",
    ]
    assert embedded_homology(tri, RATIONALS) == [1, 1, 0]
    assert embedded_homology(tri, mod_p(5)) == [1, 1, 0]


def test_homology_of_single_vertex():
    assert [str(g) for g in embedded_homology(vertex_hypergraph(), INTEGERS, verify=True)] == [
        "Z",
        "0",
    ]


def test_projective_plane_squared_matches_oracle():
    rp2 = projective_plane()
    box = product_boxtimes(rp2, rp2)
    groups = embedded_homology(box, INTEGERS)
    assert [str(g) for g in groups] == ["Z", "Z/2 + Z/2", "Z/2", "Z/2", "0", "0"]
    for m in (inf_chain(box), sup_chain(box)):
        assert submodule_homology(m, INTEGERS) == oracle_submodule_homology(m) == groups


def test_projective_plane_homology():
    rp2 = projective_plane()
    groups = embedded_homology(rp2, INTEGERS, verify=True)
    assert [str(g) for g in groups] == ["Z", "Z/2", "0", "0"]
    assert classical_homology(rp2, INTEGERS) == groups
    assert embedded_homology(rp2, RATIONALS) == [1, 0, 0, 0]
    assert embedded_homology(rp2, mod_p(2)) == [1, 1, 1, 0]
    assert embedded_homology(rp2, mod_p(3)) == [1, 0, 0, 0]


# ------------------------------------------------------------- properties


@settings(max_examples=40)
@given(small_hypergraphs())
def test_inf_and_sup_homology_agree(h):
    for coeff in ALL_COEFFS:
        inf = submodule_homology(inf_chain(h), coeff)
        sup = submodule_homology(sup_chain(h), coeff)
        assert inf == sup, coeff
    for m in (inf_chain(h), sup_chain(h)):
        assert submodule_homology(m, INTEGERS) == oracle_submodule_homology(m)
    # and the bundled verification path accepts the instance
    embedded_homology(h, INTEGERS, verify=True)


def test_infimum_and_supremum_routes_run_cold(spy):
    names = ("inf_chain", "sup_chain", "restricted_boundaries")
    calls = [spy(homology, name) for name in names]
    h, _ = homology_demo_pair()
    groups = embedded_homology(h, INTEGERS, verify=True)
    # the supremum is built and restricted on its own, not read off the infimum
    assert [len(c) for c in calls] == [1, 1, 2]
    assert h.inf is not h.sup and h.inf.bases != h.sup.bases
    # later answers come from the memo, and a caller's edits do not reach it
    want = list(groups)
    groups.append(FGAbelianGroup(7))
    groups[0] = None
    assert embedded_homology(h, INTEGERS) == want
    assert embedded_homology(h, INTEGERS, verify=True) == want
    assert [len(c) for c in calls] == [1, 1, 2]


@settings(max_examples=40)
@given(small_hypergraphs(max_vertices=5))
def test_closed_input_matches_classical_pipeline(h):
    k = associated_complex(h)
    for coeff in ALL_COEFFS:
        assert embedded_homology(k, coeff) == classical_homology(k, coeff)
    # both sides share the invariant-factor kernel: compare with the oracle
    assert classical_homology(k, INTEGERS) == oracle_classical_homology(k)


def betti_from_groups(groups, p, n):
    """Universal-coefficient prediction for Betti_n mod p."""
    here = groups[n]
    below = groups[n - 1] if n > 0 else FGAbelianGroup.trivial()
    def torsion_hits(g):
        return sum(1 for t in g.invariants if t % p == 0)
    return here.rank + torsion_hits(here) + torsion_hits(below)


@settings(max_examples=40)
@given(small_hypergraphs())
def test_universal_coefficients_consistency(h):
    groups = embedded_homology(h, INTEGERS)
    assert embedded_homology(h, RATIONALS) == [g.rank for g in groups]
    for p in (2, 3):
        betti = embedded_homology(h, mod_p(p))
        assert betti == [betti_from_groups(groups, p, n) for n in range(len(groups))]


def test_universal_coefficients_on_projective_plane():
    rp2 = projective_plane()
    groups = embedded_homology(rp2, INTEGERS)
    assert embedded_homology(rp2, mod_p(2)) == [
        betti_from_groups(groups, 2, n) for n in range(len(groups))
    ]
