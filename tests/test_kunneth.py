"""Shuffle and front/back-face maps, tensor boundaries, infimum of the
tensor complex, and the Kunneth checks."""

import pytest
from hypothesis import given, settings, strategies as st

import hyperhom.kunneth as kunneth
from hyperhom.examples import (
    homology_demo_pair,
    projective_plane,
    tensor_membership_pair,
    triangle_boundary,
    vertex_hypergraph,
)
from hyperhom.errors import IntegrityError
from hyperhom.homology import (
    INTEGERS,
    RATIONALS,
    ChainElement,
    GradedSubmodule,
    chain_boundary,
    embedded_homology,
    inf_chain,
    mod_p,
)
from hyperhom.hypergraph import (
    associated_complex,
    hypergraph_from_edges,
    product_boxtimes,
    random_hypergraph,
)
from hyperhom.kunneth import (
    ChainMapReport,
    ProductContext,
    TensorChain,
    TensorContext,
    aw_map,
    ez_map,
    field_kunneth_check,
    inf_tensor_basis,
    kunneth_check,
    restricted_chainmap_check,
    tensor_boundary,
)


def small_pairs(max_vertices=4, max_dim=2):
    one = st.builds(
        random_hypergraph,
        n_vertices=st.integers(1, max_vertices),
        max_dim=st.integers(0, max_dim),
        density=st.floats(0.15, 0.7),
        seed=st.integers(0, 10**6),
    )
    return st.tuples(one, one)


def segment_square():
    seg = hypergraph_from_edges([["0", "1"]])
    return ProductContext.from_hypergraphs(seg, seg)


# ------------------------------------------------------------- shuffle map


def test_ez_on_the_square_all_nine_values():
    ctx = segment_square()
    v0, v1, e = (0,), (1,), (0, 1)
    # product vertex indices: (0,0)->0 (0,1)->1 (1,0)->2 (1,1)->3
    expected = {
        (v0, v0): {(0,): 1},
        (v0, v1): {(1,): 1},
        (v1, v0): {(2,): 1},
        (v1, v1): {(3,): 1},
        (v0, e): {(0, 1): 1},
        (v1, e): {(2, 3): 1},
        (e, v0): {(0, 2): 1},
        (e, v1): {(1, 3): 1},
        (e, e): {(0, 2, 3): 1, (0, 1, 3): -1},
    }
    for pair, want in expected.items():
        assert ez_map(TensorChain.of_pair(*pair), ctx).coeffs == want


def test_ez_staircase_signs_at_the_extremes():
    for p in range(4):
        for q in range(4):
            h = hypergraph_from_edges([[f"v{i}" for i in range(p + 1)]])
            h2 = hypergraph_from_edges([[f"w{j}" for j in range(q + 1)]])
            ctx = ProductContext.from_hypergraphs(h, h2)
            top = tuple(range(p + 1)), tuple(range(q + 1))
            img = ez_map(TensorChain.of_pair(*top), ctx)
            w = q + 1
            bottom_right = tuple(
                [a * w for a in range(p + 1)] + [p * w + b for b in range(1, q + 1)]
            )
            up_left = tuple(
                [b for b in range(q + 1)] + [a * w + q for a in range(1, p + 1)]
            )
            assert img.coeffs[bottom_right] == 1
            assert img.coeffs[up_left] == (1 if (p * q) % 2 == 0 else -1)


def test_ez_rejects_foreign_simplices():
    ctx = segment_square()
    with pytest.raises(ValueError):
        ez_map(TensorChain.of_pair((0, 2), (0,)), ctx)


# ------------------------------------------------------ front/back-face map


def test_aw_on_the_square():
    ctx = segment_square()
    e = (0, 1)
    assert aw_map(ChainElement.of_simplex((0, 2, 3)), ctx).terms == {(e, e): 1}
    assert aw_map(ChainElement.of_simplex((0, 1, 3)), ctx).is_zero()
    assert aw_map(ChainElement.of_simplex((0, 3)), ctx).terms == {
        ((0,), e): 1,
        (e, (1,)): 1,
    }
    assert aw_map(ChainElement.of_simplex((0, 1)), ctx).terms == {((0,), e): 1}
    assert aw_map(ChainElement.of_simplex((2,)), ctx).terms == {((1,), (0,)): 1}


def test_aw_rejects_non_monotone_and_foreign_simplices():
    ctx = segment_square()
    with pytest.raises(ValueError):
        aw_map(ChainElement.of_simplex((1, 2)), ctx)  # (0,1) then (1,0)
    with pytest.raises(ValueError):
        aw_map(ChainElement.of_simplex((0, 5)), ctx)


# -------------------------------------------------------- tensor boundary


def test_tensor_boundary_worked_value():
    # ({v1,v2}+{v2,v3}) (x) {w2,w3} with vertices indexed v1,v2,v3 / w1,w2,w3
    g1 = TensorChain(2, {((0, 1), (1, 2)): 1, ((1, 2), (1, 2)): 1})
    assert tensor_boundary(g1).terms == {
        ((2,), (1, 2)): 1,
        ((0,), (1, 2)): -1,
        ((0, 1), (2,)): -1,
        ((0, 1), (1,)): 1,
        ((1, 2), (2,)): -1,
        ((1, 2), (1,)): 1,
    }


def test_tensor_boundary_of_left_edge_right_vertex():
    t = TensorChain.of_pair((0, 2), (5,))
    assert tensor_boundary(t).terms == {((2,), (5,)): 1, ((0,), (5,)): -1}


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-3, 3).filter(bool),
    st.integers(-3, 3).filter(bool),
)
def test_tensor_boundary_squares_to_zero(p, q, a, b):
    s = tuple(range(p + 1))
    u = tuple(range(q + 1))
    shifted = tuple(i + 1 for i in u)
    t = TensorChain.of_pair(s, u).scaled(a) + TensorChain.of_pair(s, shifted).scaled(b)
    assert tensor_boundary(tensor_boundary(t)).is_zero()


# --------------------------------------------- chain maps on full complexes


@settings(max_examples=30)
@given(small_pairs())
def test_aw_after_ez_is_the_identity_on_basis_tensors(pair):
    h, h2 = pair
    ctx = ProductContext.from_hypergraphs(h, h2)
    tctx = TensorContext(ctx.left, ctx.right)
    for n in range(tctx.top_degree + 1):
        for s, u in tctx.bases[n]:
            t = TensorChain.of_pair(s, u)
            assert aw_map(ez_map(t, ctx), ctx) == t


@settings(max_examples=30)
@given(small_pairs())
def test_both_maps_commute_with_boundaries(pair):
    h, h2 = pair
    ctx = ProductContext.from_hypergraphs(h, h2)
    tctx = TensorContext(ctx.left, ctx.right)
    for n in range(tctx.top_degree + 1):
        for s, u in tctx.bases[n]:
            t = TensorChain.of_pair(s, u)
            assert chain_boundary(ez_map(t, ctx)) == ez_map(tensor_boundary(t), ctx)
        for sx in ctx.product.simplices_of_dim(n):
            c = ChainElement.of_simplex(sx)
            assert tensor_boundary(aw_map(c, ctx)) == aw_map(chain_boundary(c), ctx)


def test_ez_after_aw_differs_from_identity_but_keeps_betti():
    ctx = segment_square()
    diag = ChainElement.of_simplex((0, 3))
    back = ez_map(aw_map(diag, ctx), ctx)
    assert back != diag
    assert back.coeffs == {(0, 1): 1, (1, 3): 1}
    seg = hypergraph_from_edges([["0", "1"]])
    assert field_kunneth_check(seg, seg, RATIONALS).ok


# -------------------------------------------------------- worked chain run


def test_displayed_two_chain_run():
    h, h2 = tensor_membership_pair()
    ctx = ProductContext.from_hypergraphs(h, h2)
    g1 = TensorChain(2, {((0, 1), (1, 2)): 1, ((1, 2), (1, 2)): 1})
    mu_g1 = ez_map(g1, ctx)
    # pair index = 3 * left + right over v1,v2,v3 / w1,w2,w3
    assert mu_g1.coeffs == {
        (1, 4, 5): 1,
        (1, 2, 5): -1,
        (4, 7, 8): 1,
        (4, 5, 8): -1,
    }
    six_terms = {
        (1, 4): 1,
        (1, 2): -1,
        (2, 5): -1,
        (4, 7): 1,
        (7, 8): 1,
        (5, 8): -1,
    }
    assert chain_boundary(mu_g1).coeffs == six_terms
    assert ez_map(tensor_boundary(g1), ctx).coeffs == six_terms


# --------------------------------------------------- infimum of the tensor


def test_inf_tensor_memberships():
    h, h2 = tensor_membership_pair()
    tctx = TensorContext(associated_complex(h), associated_complex(h2))
    inf_t = inf_tensor_basis(h, h2, verify=True)
    v12, v23, v13 = (0, 1), (1, 2), (0, 2)
    w23, w13, w12 = (1, 2), (0, 2), (0, 1)
    g = TensorChain(
        2,
        {(v12, w23): 1, (v13, w13): 1, (v23, w23): 1, (v13, w12): -1, (v13, w23): 1},
    )
    assert inf_t.contains(2, tctx.to_vector(g))
    assert inf_t.contains(2, tctx.to_vector(TensorChain.of_pair(v13, w23)))
    for s, u in [(v12, w23), (v23, w23), (v13, w13), (v13, w12)]:
        assert not inf_t.contains(2, tctx.to_vector(TensorChain.of_pair(s, u)))
    decomposition = [
        TensorChain(2, {(v12, w23): 1, (v23, w23): 1}),
        TensorChain(2, {(v13, w13): 1, (v13, w12): -1}),
        TensorChain.of_pair(v13, w23),
    ]
    total = TensorChain(2, {})
    for part in decomposition:
        assert inf_t.contains(2, tctx.to_vector(part))
        total = total + part
    assert total == g


def test_inf_tensor_of_closed_pair_is_full_span():
    k, k2 = triangle_boundary(), triangle_boundary()
    inf_t = inf_tensor_basis(k, k2, verify=True)
    tctx = TensorContext(k, k2)
    for n in range(inf_t.top_degree + 1):
        assert inf_t.basis_rank(n) == tctx.ambient_rank(n)
    # the tensor context names the rows and is checked like any coordinates
    assert inf_t.coordinates == tctx
    assert tctx.simplices_of_dim(-1) == tctx.simplices_of_dim(inf_t.top_degree + 1) == ()
    point = associated_complex(vertex_hypergraph())
    with pytest.raises(ValueError, match="coordinate count"):
        GradedSubmodule(TensorContext(k, point), inf_t.bases)
    with pytest.raises(ValueError, match="one basis per degree"):
        GradedSubmodule(tctx, inf_t.bases[:-1])


def test_inf_tensor_with_point_factor_mirrors_the_other_factor():
    h, _ = homology_demo_pair()
    inf_t = inf_tensor_basis(vertex_hypergraph(), h, verify=True)
    m = inf_chain(h)
    got = [inf_t.basis_rank(n) for n in range(m.top_degree + 1)]
    want = [m.basis_rank(n) for n in range(m.top_degree + 1)]
    assert got == want


@settings(max_examples=25)
@given(small_pairs(max_vertices=4, max_dim=2))
def test_inf_tensor_dual_route_agrees(pair):
    inf_tensor_basis(*pair, verify=True)  # raises IntegrityError on mismatch


# ------------------------------------------------------------ kunneth check


def test_kunneth_on_demo_pair_over_all_coefficients():
    h, h2 = homology_demo_pair()
    rep = kunneth_check(h, h2)
    assert rep.ok
    assert str(rep.rows[0].product_value) == "Z"
    assert all(str(r.product_value) == "0" for r in rep.rows[1:])
    for coeff in (RATIONALS, mod_p(2), mod_p(3)):
        frep = kunneth_check(h, h2, coeff)
        assert frep.ok
        assert frep.rows[0].product_value == 1
        assert all(r.product_value == 0 for r in frep.rows[1:])


def test_kunneth_point_times_point():
    pt = vertex_hypergraph()
    rep = kunneth_check(pt, pt)
    assert rep.ok and str(rep.rows[0].product_value) == "Z"


def test_kunneth_on_projective_plane_square():
    rp2 = projective_plane()
    rep = kunneth_check(rp2, rp2)
    assert rep.ok
    assert str(rep.rows[3].tor_part) == "Z/2"
    assert str(rep.rows[3].tensor_part) == "0"
    assert str(rep.rows[3].product_value) == "Z/2"
    box = product_boxtimes(rp2, rp2)
    assert [str(g) for g in embedded_homology(box, INTEGERS)] == [
        "Z",
        "Z/2 + Z/2",
        "Z/2",
        "Z/2",
        "0",
        "0",
    ]


def test_field_kunneth_convolution_on_projective_plane():
    rp2 = projective_plane()
    rep = field_kunneth_check(rp2, rp2, mod_p(2))
    assert rep.ok
    assert [r.product_value for r in rep.rows] == [1, 2, 3, 2, 1, 0]
    assert field_kunneth_check(rp2, rp2, RATIONALS).ok
    with pytest.raises(ValueError):
        field_kunneth_check(rp2, rp2, INTEGERS)


def test_kunneth_with_point_factor_keeps_betti():
    h, _ = homology_demo_pair()
    rep = field_kunneth_check(h, vertex_hypergraph(), RATIONALS)
    assert rep.ok
    assert [r.product_value for r in rep.rows[: h.dim + 2]] == embedded_homology(
        h, RATIONALS
    )


@settings(max_examples=15)
@given(small_pairs(max_vertices=4, max_dim=2))
def test_kunneth_property_all_coefficients(pair):
    h, h2 = pair
    for coeff in (INTEGERS, RATIONALS, mod_p(2), mod_p(3)):
        assert kunneth_check(h, h2, coeff).ok


def test_kunneth_report_rendering():
    rep = kunneth_check(*homology_demo_pair())
    text = rep.to_text()
    assert "kunneth check over z" in text and "result: ok" in text
    doc = rep.to_dict()
    assert doc["ok"] is True
    assert doc["degrees"][0]["product"] == "Z"


# ------------------------------------------------------- chain map reports


def test_restricted_chainmap_on_worked_pairs():
    rep = restricted_chainmap_check(*homology_demo_pair())
    assert isinstance(rep, ChainMapReport)
    assert rep.tensor_columns_checked == rep.product_columns_checked == 3
    rep2 = restricted_chainmap_check(*tensor_membership_pair())
    assert rep2.tensor_columns_checked == 16
    assert "verified" in rep2.to_text()
    assert rep2.to_dict()["ok"] is True


@pytest.mark.parametrize("verify", [False, True])
def test_chainmap_check_builds_one_tensor_context(spy, verify):
    contexts = spy(kunneth, "TensorContext")
    restricted_chainmap_check(*tensor_membership_pair(), verify=verify)
    assert len(contexts) == 1


@settings(max_examples=15)
@given(small_pairs(max_vertices=4, max_dim=2))
def test_restricted_chainmap_property(pair):
    restricted_chainmap_check(*pair)  # raises IntegrityError on any failure
