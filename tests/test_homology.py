"""Boundary matrices, infimum/supremum complexes, and embedded homology."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import hyperhom.homology as homology
from homology_oracle import (
    from_vector,
    oracle_boundary_matrix,
    oracle_classical_homology,
    oracle_column_hnf,
    oracle_factor_homology,
    oracle_inf_chain,
    oracle_restricted_boundaries,
    oracle_submodule_homology,
    oracle_sup_chain,
    oracle_tensor_boundary,
    oracle_tensor_boundary_matrix,
)
from hyperhom.abelian import FGAbelianGroup
from hyperhom.errors import IntegrityError, ValidationError
from hyperhom.fuzz import check_pair
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
    inf_bases_of_span,
    inf_chain,
    mod_p,
    parse_coefficient,
    restricted_boundaries,
    rule_matrix,
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
from hyperhom.intlinalg import SparseIntMatrix, chain_invariant_factors
from hyperhom.kunneth import TensorChain, TensorContext, inf_tensor_basis
from test_intlinalg import conjugated_complexes
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
    # int() reads these as a prime; a tag must be the coefficient's own text
    for bad in ("zp:1_1", "zp:+3", "zp: 3", "zp:03", "zp:3 "):
        with pytest.raises(ValidationError, match="is not written as"):
            parse_coefficient(bad)
    with pytest.raises(ValidationError):
        Coefficient("z", 5)
    # a float modulus would equal the integer one and print a tag that
    # does not parse back; a non-number cannot be compared with the bound
    for bad in (2.0, 2.5, "3", None):
        with pytest.raises(ValidationError, match="must be an integer"):
            Coefficient("zp", bad)


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
    # hyperedge coordinates (with overflow rows), facet coordinates,
    # closures, and simplex pairs: a boundary has the oracle's columns on
    # the hyperedges (pairs), its generators, and no other column
    left, right = pair
    ctx = TensorContext.from_hypergraphs(left, right)
    facets = facet_coordinates(h), facet_coordinates(wide)
    cases = [
        (h.coordinates, oracle_boundary_matrix, lambda s: True),
        (facets[0], oracle_boundary_matrix, lambda s: s in h.edges),
        (facets[1], oracle_boundary_matrix, lambda s: s in wide.edges),
        (h.closure.coordinates, oracle_boundary_matrix, lambda s: True),
        (ctx, oracle_tensor_boundary_matrix, lambda p: p[0] in left.edges and p[1] in right.edges),
    ]
    for c, oracle, is_generator in cases:
        for n in range(c.top_degree + 1):
            d, want = boundary_matrix(c, n), oracle(c, n)
            cells = c.simplices_of_dim(n)
            generators = [j for j, s in enumerate(cells) if is_generator(s)]
            assert list(c.generators[n]) == generators
            # every face of a hyperedge is a facet coordinate: no overflow
            no_overflow = any(c is f for f in facets)
            assert d.nrows == (len(c.simplices_of_dim(n - 1)) if no_overflow else want.nrows)
            assert d.ncols == len(cells)
            for j in range(len(cells)):
                assert d.column(j) == (want.column(j) if j in generators else {})
    # the tensor boundary on random chains
    for n in range(ctx.top_degree + 1):
        cells = ctx.simplices_of_dim(n)
        if cells:
            nonzero = st.integers(-3, 3).filter(bool)
            coeffs = data.draw(st.dictionaries(st.sampled_from(cells), nonzero))
            t = TensorChain(n, coeffs)
            assert chain_boundary(t) == oracle_tensor_boundary(t)


def test_to_vector_is_none_off_the_cells():
    k = triangle_boundary()
    c = ChainElement(1, {(0, 1): 2, (1, 2): -1})
    assert from_vector(k.coordinates, 1, k.coordinates.to_vector(c)) == c
    assert k.coordinates.to_vector(ChainElement.of_simplex((0, 1, 2))) is None
    ctx = TensorContext(k, k)
    t = TensorChain(1, {((0,), (1, 2)): 3, ((0, 2), (1,)): -1})
    assert from_vector(ctx, 1, ctx.to_vector(t)) == t
    assert ctx.to_vector(TensorChain.of_pair((0, 1, 2), (0,))) is None


def test_rule_matrix_on_a_support():
    # the faces of four edges, on the rows of the vertices 1 and 2; the
    # columns of (0, 1) and (1, 2) are off the support
    cells = ((0, 1), (1, 2), (0, 3), (2, 4))
    pos = {(1,): 0, (2,): 1}
    m = rule_matrix(ChainElement.faces, cells, pos, [2, 3])
    # faces outside the rows take overflow rows in order of first
    # occurrence: (0,) -> 2, (3,) -> 3, (4,) -> 4
    assert m.nrows == 5 and m.ncols == 4
    assert [m.column(j) for j in range(4)] == [{}, {}, {2: -1, 3: 1}, {1: -1, 4: 1}]


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


def test_membership_outside_the_degrees_is_refused():
    m = homology_demo_pair()[0].inf
    # a negative degree must not index the bases from the end
    for n in (-2, -1, m.top_degree + 1):
        with pytest.raises(ValueError, match="outside 0.."):
            m.contains(n, {})


@pytest.mark.parametrize("verify", [False, True])
def test_only_the_supremum_builds_facet_coordinates(spy, verify):
    box = product_boxtimes(*tensor_membership_pair())
    facets = spy(homology, "facet_coordinates")
    columns = spy(homology, "boundary_matrix")
    embedded_homology(box, verify=verify)
    assert len(facets) == verify
    # each route builds one boundary column per hyperedge of the product
    # on its own coordinates, and none for a facet
    built: dict[int, int] = {}
    for (c, n), _ in columns:
        cells = c.simplices_of_dim(n)
        assert sorted(cells[j] for j in c.generators[n]) == sorted(box.edges_of_dim(n))
        assert all(not c.boundaries[n].column(j) for j in range(len(cells))
                   if j not in c.generators[n])
        built[id(c)] = built.get(id(c), 0) + len(c.generators[n])
    assert list(built.values()) == [len(box.edges)] * (1 + verify)


# ---------------------------------------------------------------- supremum


def test_sup_adjoins_boundary_of_top_cell():
    h = parse_hypergraph("v0\nv0 v1 v2\n")
    s = sup_chain(h)
    pos = s.coordinates.simplex_positions(1)
    assert s.bases[1].nrows == len(pos) == 3 and s.bases[1].ncols == 1
    assert s.bases[1].column(0) == {pos[(0, 1)]: 1, pos[(0, 2)]: -1, pos[(1, 2)]: 1}
    assert [s.basis_rank(n) for n in range(s.top_degree + 1)] == [1, 1, 1, 0]


def test_sup_basis_is_cycles_then_hyperedges():
    # degree 1: the facets {v0,v1}, {v1,v2}, then the hyperedge {v0,v2};
    # the boundary of the triangle leads on a facet row, and the unit
    # column on the hyperedge comes last
    h = parse_hypergraph("v0\nv0 v2\nv0 v1 v2\n")
    s = sup_chain(h)
    assert s.coordinates.simplices[1] == ((0, 1), (1, 2), (0, 2))
    assert [s.bases[1].column(j) for j in range(2)] == [{0: 1, 1: 1, 2: -1}, {2: 1}]
    # degree 0 is the facet {v2}, then the hyperedge {v0}, and its basis
    # the boundary v2 - v0 of {v0,v2}, then the unit on {v0}
    assert s.coordinates.simplices[0] == ((2,), (0,))
    assert [s.bases[0].column(j) for j in range(2)] == [{0: 1, 1: -1}, {1: 1}]
    # the cycle maps to zero unsolved, the hyperedge to that boundary
    assert s.restricted[1].to_rows() == [[0, 1], [0, 0]]


def test_sup_of_closed_complex_is_full_span():
    k = triangle_boundary()
    s = sup_chain(k)
    assert [s.basis_rank(n) for n in range(s.top_degree + 1)] == [3, 3, 0]


# ------------------------------------------------------ facet coordinates


def test_coordinates_are_hyperedges_and_their_facets():
    h = parse_hypergraph("v0\nv0 v1 v2\n")
    # the infimum's coordinates are the hyperedges, the supremum's put
    # the facets that are no hyperedge before them
    assert h.coordinates.simplices == (((0,),), (), ((0, 1, 2),), ())
    c = facet_coordinates(h)
    assert c.simplices == (((0,),), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),), ())
    assert [list(g) for g in c.generators] == [[0], [], [0], []]
    # the facets have no boundary columns, and the faces of the triangle
    # are coordinates: no overflow rows
    d1, d2 = c.boundaries[1], c.boundaries[2]
    assert d1.nrows == 1 and d1.ncols == 3 and d1.is_zero()
    assert d2.nrows == 3 and d2.column(0) == {0: 1, 1: -1, 2: 1}


def test_generators_are_computed_once_per_coordinates():
    # the boundary of each degree and each restricted boundary read them
    h = parse_hypergraph("v0\nv0 v1 v2\n")
    for c in (h.coordinates, facet_coordinates(h)):
        assert c.generators is c.generators


@settings(max_examples=40)
@given(small_hypergraphs())
def test_a_complex_is_its_own_facet_coordinates(h):
    # a complex's hyperedges are all its simplices, so adding the facets
    # adds nothing
    k = associated_complex(h)
    want = facet_coordinates(k)
    assert k.coordinates.simplices == want.simplices
    assert k.coordinates.generators == want.generators
    assert k.coordinates.boundaries == want.boundaries


def test_face_outside_the_coordinates_is_refused():
    c = parse_hypergraph("v0\nv0 v1\n").coordinates
    # the bare edge {v0,v1}: its face {v1} is no coordinate of degree 0,
    # so only an overflow row shows that its image leaves the span of {v0}
    bases = (SparseIntMatrix.identity(1), SparseIntMatrix.identity(1), SparseIntMatrix(0, 0))
    m = GradedSubmodule(c, bases)
    with pytest.raises(IntegrityError, match="outside the degree-0 coordinates"):
        restricted_boundaries(m)


def test_a_column_off_the_generators_is_refused():
    # the boundary has no column off the generators to read: a basis
    # column there must not pass for a cycle. Here the tensor complex of
    # a triangle and a point would read [Z^2, Z, 0, 0], not [Z, 0, 0, 0]
    ctx = TensorContext(parse_hypergraph("v0 v1 v2\n"), parse_hypergraph("w0\n"))
    pos = ctx.simplex_positions
    bases = (
        SparseIntMatrix.from_columns(3, [{pos(0)[((0,), (0,))]: 1}, {pos(0)[((1,), (0,))]: 1}]),
        SparseIntMatrix.from_columns(3, [{pos(1)[((0, 1), (0,))]: 1}]),
        SparseIntMatrix(1, 0),
        SparseIntMatrix(0, 0),
    )
    m = GradedSubmodule(ctx, bases)
    with pytest.raises(IntegrityError, match="degree-0 basis column 0 has an entry off"):
        submodule_homology(m)
    # the supremum's cycles lead on facet rows: a hand-built copy, which
    # does not know them as cycles, is refused too
    s = parse_hypergraph("v0\nv0 v1 v2\n").sup
    with pytest.raises(IntegrityError, match="degree-1 basis column 0 has an entry off"):
        restricted_boundaries(GradedSubmodule(s.coordinates, s.bases))


def test_a_hypergraph_is_freed_without_the_cycle_collector():
    # the cached routes hold no reference back to the hypergraph, so it
    # goes as soon as the last outside reference does
    h, h2 = tensor_membership_pair()
    gc.disable()
    try:
        embedded_homology(h, verify=True)
        assert check_pair(h, h2) is None
        refs = weakref.ref(h), weakref.ref(h2)
        del h, h2
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_boundary_outside_the_lattice_is_refused():
    # a closed segment: the boundary v1 - v0 of the edge lies in the
    # degree-0 coordinates, but not in the span of v0 alone
    c = parse_hypergraph("v0\nv1\nv0 v1\n").coordinates
    assert c.simplices == (((0,), (1,)), ((0, 1),), ())
    bases = (
        SparseIntMatrix.from_columns(2, [{0: 1}]),
        SparseIntMatrix.identity(1),
        SparseIntMatrix(0, 0),
    )
    m = GradedSubmodule(c, bases)
    with pytest.raises(IntegrityError, match="degree-1 basis column 0 leaves the submodule"):
        restricted_boundaries(m)


@pytest.mark.parametrize(
    "edges, bases, message",
    [
        (
            # degree 0 is the span of v0 and v1 in the path v0-v1-v2-v3:
            # {v0,v1} maps inside it, {v1,v2} and {v2,v3} do not
            "v0\nv1\nv2\nv3\nv0 v1\nv1 v2\nv2 v3\n",
            (
                SparseIntMatrix.from_columns(4, [{0: 1}, {1: 1}]),
                SparseIntMatrix.identity(3),
                SparseIntMatrix(0, 0),
            ),
            "degree-1 basis column 1 leaves the submodule",
        ),
        (
            # degree 0 is {v0} only; the cycle {0,1} + {1,2} - {0,2} has
            # boundary zero, but {0,3} and {2,3} reach v3
            "v0\nv0 v1\nv0 v2\nv0 v3\nv1 v2\nv2 v3\n",
            (
                SparseIntMatrix.identity(1),
                SparseIntMatrix.from_columns(5, [{0: 1, 1: -1, 3: 1}, {2: 1}, {4: 1}]),
                SparseIntMatrix(0, 0),
            ),
            "degree-1 basis column 1 has a face outside the degree-0 coordinates",
        ),
    ],
    ids=["outside-the-lattice", "outside-the-coordinates"],
)
def test_a_refusal_names_the_first_failing_column(edges, bases, message):
    m = GradedSubmodule(parse_hypergraph(edges).coordinates, bases)
    with pytest.raises(IntegrityError, match=message):
        restricted_boundaries(m)


def test_map_in_bases_fetches_each_target_degree_at_most_once(spy):
    calls = spy(GradedSubmodule, "solver")
    m = inf_chain(projective_plane())

    def fetched():
        got = [args[1] for args, _ in calls]
        calls.clear()
        return got

    # degrees 0..3: degree 0 maps to zero and degree 3 has no columns, so
    # only the targets of degrees 1 and 2 are fetched, once each
    restricted_boundaries(m)
    assert fetched() == [0, 1]
    # the identity map with degree 1 sent to zero
    sizes = [len(cells) for cells in m.coordinates.simplices]
    maps = [
        SparseIntMatrix(size, size) if n == 1 else SparseIntMatrix.identity(size)
        for n, size in enumerate(sizes)
    ]
    homology.map_in_bases(m, m, maps, 0, ("off {n}", "outside {n}"))
    assert fetched() == [0, 2]


def _basis_chains(m, n):
    b = m.bases[n]
    return [from_vector(m.coordinates, n, b.column(j)) for j in range(b.ncols)]


def _assert_matches_closure_oracle(h):
    inf, sup = oracle_inf_chain(h), oracle_sup_chain(h)
    k = sup.coordinates
    for mine, oracle in ((h.inf, inf), (h.sup, sup)):
        assert mine.top_degree == oracle.top_degree
        for n in range(mine.top_degree + 1):
            if mine is h.inf:
                assert _basis_chains(mine, n) == _basis_chains(oracle, n)
                continue
            # the supremum basis is an echelon, not canonical: its lattice
            # in the closure coordinates must be the oracle's
            cols = [k.to_vector(c) for c in _basis_chains(mine, n)]
            span = SparseIntMatrix.from_columns(len(k.simplices_of_dim(n)), cols)
            assert oracle_column_hnf(span) == oracle.bases[n]
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


@settings(max_examples=30)
@given(small_hypergraphs(), small_pairs())
def test_restricted_boundaries_match_the_oracle(h, pair):
    h1, h2 = pair
    box = product_boxtimes(h1, h2)
    for m in (h.inf, h.sup, box.inf, box.sup, inf_tensor_basis(h1, h2)):
        assert restricted_boundaries(m) == oracle_restricted_boundaries(m)


@settings(max_examples=30)
@given(small_hypergraphs(), small_pairs())
def test_infimum_bases_are_canonical_as_built(h, pair):
    # the library takes no Hermite pass over the infima; the whole-matrix
    # Hermite oracle must leave every degree as it is
    h1, h2 = pair
    tensor_inf = inf_tensor_basis(h1, h2)
    ctx = tensor_inf.coordinates
    generators = tuple(
        tuple(
            ctx.simplex_positions(n)[(e, e2)]
            for e in h1.edges
            for e2 in h2.edges
            if len(e) + len(e2) == n + 2
        )
        for n in range(ctx.top_degree + 1)
    )
    direct = inf_bases_of_span(ctx.boundaries, generators)
    for bases in (h.inf.bases, product_boxtimes(h1, h2).inf.bases, tensor_inf.bases, direct):
        for b in bases:
            assert oracle_column_hnf(b) == b


# ----------------------------------------------------- chain property, D@D


@given(small_hypergraphs())
def test_restricted_boundaries_compose_to_zero(h):
    for m in (inf_chain(h), sup_chain(h)):
        d = restricted_boundaries(m)  # raises if the submodule is not stable
        for n in range(1, len(d) - 1):
            assert (d[n] @ d[n + 1]).is_zero()


@pytest.mark.parametrize("coeff", ALL_COEFFS, ids=str)
def test_boundaries_that_do_not_compose_to_zero_are_refused(spy, coeff):
    # C_0 = Z, C_1 = Z^2, C_2 = Z with d_1 = [1 0] and d_2 = e_1, so
    # d_1 @ d_2 = 1 although d_1 has the nonzero cycle e_2. Full bases are
    # boundary-stable, so restricted_boundaries accepts the module.
    class Coordinates:
        generators = ((0,), (0, 1), (0,))
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
    # the reduction drops rows only because d @ d = 0: it is never reached
    reduced = spy(homology, "chain_invariant_factors")
    with pytest.raises(IntegrityError, match="is not a degree-1 cycle"):
        submodule_homology(m, coeff)
    assert reduced == []


def test_each_composite_is_formed_once_for_all_rings(spy):
    m = inf_chain(projective_plane())
    products = spy(SparseIntMatrix, "__matmul__")
    for coeff in ALL_COEFFS:
        m.homology(coeff)
    d = m.restricted
    assert len(products) == len(d) - 2 == 2
    for n, ((a, b), _) in enumerate(products, start=2):
        assert a is d[n - 1] and b is d[n]


# ------------------------------------------- reduced route and its oracle


@settings(max_examples=30)
@given(small_hypergraphs(), small_pairs())
def test_reduced_route_matches_the_per_matrix_oracle(h, pair):
    h1, h2 = pair
    box = product_boxtimes(h1, h2)
    for m in (h.inf, h.sup, box.inf, box.sup, inf_tensor_basis(h1, h2)):
        assert submodule_homology(m, INTEGERS) == oracle_factor_homology(m.restricted)


@given(conjugated_complexes())
def test_reduced_route_matches_the_per_matrix_oracle_with_torsion(d):
    factors = chain_invariant_factors(d)
    assert homology._homology_from_factors(d, factors, INTEGERS) == oracle_factor_homology(d)


@pytest.mark.parametrize("coeff, name", [(RATIONALS, "rank"), (mod_p(2), "rank_mod_p")])
def test_field_ranks_read_the_unreduced_restricted_boundaries(spy, coeff, name):
    # a reduction bug must not reach both sides of the certificate: field
    # homology takes no field rank, and the certificate's ranks never see
    # a reduced matrix
    calls = spy(homology, name)
    m = inf_chain(projective_plane())
    m.homology(coeff)
    assert calls == []
    homology.certify_factors(m, coeff)
    got = [args[0] for args, _ in calls]
    assert len(got) == len(m.restricted)
    assert all(a is b for a, b in zip(got, m.restricted))


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
