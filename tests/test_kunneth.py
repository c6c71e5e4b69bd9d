"""Shuffle and front/back-face maps, tensor boundaries, infimum of the
tensor complex, and the Kunneth checks."""

import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hyperhom.hypergraph as hypergraph
import hyperhom.kunneth as kunneth
from homology_oracle import oracle_chainmap_check, oracle_front_back, oracle_shuffle
from hyperhom.examples import (
    homology_demo_pair,
    projective_plane,
    tensor_membership_pair,
    triangle_boundary,
    vertex_hypergraph,
)
from hyperhom.errors import IntegrityError
from hyperhom.fuzz import check_pair
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
    to_text,
)
from hyperhom.cli import main
from hyperhom.intlinalg import SparseIntMatrix
from hyperhom.kunneth import (
    ChainMapReport,
    TensorChain,
    TensorContext,
    aw_map,
    ez_map,
    inf_tensor_basis,
    kunneth_check,
    restricted_chainmap_check,
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
    return TensorContext.from_hypergraphs(seg, seg)


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
            ctx = TensorContext.from_hypergraphs(h, h2)
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
    assert not aw_map(ChainElement.of_simplex((0, 1, 3)), ctx).coeffs
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
    # keys out of order or repeated: projections (0, 1) and (0,) would pass
    for sx in [(0, 3, 1), (0, 0), (3, 1)]:
        with pytest.raises(ValueError):
            aw_map(ChainElement.of_simplex(sx), ctx)


@settings(max_examples=100)
@given(small_pairs())
def test_aw_refuses_exactly_the_tuples_outside_the_product_closure(pair):
    # oracle: membership in the closure of the lattice-path product
    h, h2 = pair
    ctx = TensorContext.from_hypergraphs(h, h2)
    closure = set(product_boxtimes(h, h2).closure.edges)
    indices = range(len(h.vertices) * len(h2.vertices) + 1)  # one past the last
    for k in range(1, 5):
        for sx in itertools.combinations(indices, k):
            try:
                aw_map(ChainElement.of_simplex(sx), ctx)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (sx in closure), sx


# -------------------------------------------------------- tensor boundary


def test_tensor_boundary_worked_value():
    # ({v1,v2}+{v2,v3}) (x) {w2,w3} with vertices indexed v1,v2,v3 / w1,w2,w3
    g1 = TensorChain(2, {((0, 1), (1, 2)): 1, ((1, 2), (1, 2)): 1})
    assert chain_boundary(g1).terms == {
        ((2,), (1, 2)): 1,
        ((0,), (1, 2)): -1,
        ((0, 1), (2,)): -1,
        ((0, 1), (1,)): 1,
        ((1, 2), (2,)): -1,
        ((1, 2), (1,)): 1,
    }


def test_tensor_boundary_of_left_edge_right_vertex():
    t = TensorChain.of_pair((0, 2), (5,))
    assert chain_boundary(t).terms == {((2,), (5,)): 1, ((0,), (5,)): -1}


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
    t = TensorChain(p + q, {(s, u): a, (s, shifted): b})
    assert not chain_boundary(chain_boundary(t)).coeffs


# --------------------------------------------- chain maps on full complexes


@settings(max_examples=30)
@given(small_pairs())
def test_aw_after_ez_is_the_identity_on_basis_tensors(pair):
    ctx = TensorContext.from_hypergraphs(*pair)
    for block in ctx.simplices:
        for s, u in block:
            t = TensorChain.of_pair(s, u)
            assert aw_map(ez_map(t, ctx), ctx) == t


@settings(max_examples=30)
@given(small_pairs())
def test_both_maps_commute_with_boundaries(pair):
    h, h2 = pair
    ctx = TensorContext.from_hypergraphs(h, h2)
    for block in ctx.simplices:
        for s, u in block:
            t = TensorChain.of_pair(s, u)
            assert chain_boundary(ez_map(t, ctx)) == ez_map(chain_boundary(t), ctx)
    for sx in product_boxtimes(h, h2).closure.edges:
        c = ChainElement.of_simplex(sx)
        assert chain_boundary(aw_map(c, ctx)) == aw_map(chain_boundary(c), ctx)


def test_ez_after_aw_differs_from_identity_but_keeps_betti():
    ctx = segment_square()
    diag = ChainElement.of_simplex((0, 3))
    back = ez_map(aw_map(diag, ctx), ctx)
    assert back != diag
    assert back.coeffs == {(0, 1): 1, (1, 3): 1}
    seg = hypergraph_from_edges([["0", "1"]])
    assert kunneth_check(seg, seg, RATIONALS).ok


# -------------------------------------------------------- worked chain run


def test_displayed_two_chain_run():
    h, h2 = tensor_membership_pair()
    ctx = TensorContext.from_hypergraphs(h, h2)
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
    assert ez_map(chain_boundary(g1), ctx).coeffs == six_terms


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
        assert inf_t.basis_rank(n) == len(tctx.simplices_of_dim(n))
    # the tensor context names the rows and is checked like any coordinates
    assert inf_t.coordinates == tctx
    assert tctx.simplices_of_dim(-1) == tctx.simplices_of_dim(inf_t.top_degree + 1) == ()
    point = associated_complex(vertex_hypergraph())
    with pytest.raises(ValueError, match="coordinate count"):
        GradedSubmodule(TensorContext(k, point), inf_t.bases)
    with pytest.raises(ValueError, match="one basis per degree"):
        GradedSubmodule(tctx, inf_t.bases[:-1])


def test_a_complex_is_its_own_closure(spy):
    k = associated_complex(projective_plane())
    k2 = associated_complex(triangle_boundary())
    closures = spy(hypergraph, "associated_complex")
    tctx = TensorContext(k, k2)
    assert len(tctx.simplices_of_dim(0)) == len(k.vertices) * len(k2.vertices)
    assert closures == []
    assert k.closure is k and k2.closure is k2


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
    rep = kunneth_check(rp2, rp2, mod_p(2))
    assert rep.ok
    assert [r.product_value for r in rep.rows] == [1, 2, 3, 2, 1, 0]
    assert kunneth_check(rp2, rp2, RATIONALS).ok


def test_kunneth_with_point_factor_keeps_betti():
    h, _ = homology_demo_pair()
    rep = kunneth_check(h, vertex_hypergraph(), RATIONALS)
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


@pytest.mark.parametrize("verify", [False, True])
def test_chainmap_check_builds_one_tensor_context(spy, verify):
    contexts = spy(kunneth, "TensorContext")
    restricted_chainmap_check(*tensor_membership_pair(), verify=verify)
    assert len(contexts) == 1


@pytest.mark.parametrize("verify", [False, True])
def test_chainmap_check_takes_faces_of_hyperedge_pairs_only(spy, verify):
    # the tensor boundary has columns on the generators e (x) e' alone,
    # for the restricted boundaries and the direct infimum alike
    h, h2 = tensor_membership_pair()
    faces = spy(TensorChain, "faces")
    restricted_chainmap_check(h, h2, verify=verify)
    assert {args[0] for args, _ in faces} == set(itertools.product(h.edges, h2.edges))


@pytest.mark.parametrize("verify", [False, True])
def test_a_tensor_basis_column_off_the_hyperedge_pairs_is_refused(monkeypatch, verify):
    # the boundary column of a cell that is no hyperedge pair is empty, so
    # a basis column there must be refused, never read as a cycle
    h, h2 = tensor_membership_pair()
    real = kunneth.inf_tensor_basis

    def planted(*args, **kwargs):
        m = real(*args, **kwargs)
        v2_w1w2 = m.coordinates.simplex_positions(1)[((1,), (0, 1))]
        cols = [m.bases[1].column(j) for j in range(m.bases[1].ncols)] + [{v2_w1w2: 1}]
        bases = list(m.bases)
        bases[1] = SparseIntMatrix.from_columns(m.bases[1].nrows, cols)
        return GradedSubmodule(m.coordinates, tuple(bases))

    monkeypatch.setattr(kunneth, "inf_tensor_basis", planted)
    with pytest.raises(IntegrityError, match="is outside the product infimum"):
        restricted_chainmap_check(h, h2, verify=verify)


def test_chainmap_check_builds_only_the_factor_closures(spy):
    h, h2 = tensor_membership_pair()
    closures = spy(hypergraph, "associated_complex")
    restricted_chainmap_check(h, h2)
    assert [g for (g,), _ in closures] == [h, h2]


def test_the_tensor_rules_look_cells_up_in_the_context_alone(spy):
    # the context owns the tensor cells, so no rule asks a factor closure
    ctx = segment_square()
    cells = [c for n in range(ctx.top_degree + 1) for c in ctx.simplices_of_dim(n)]
    square = product_boxtimes(ctx.left, ctx.right).closure.edges
    lookups = spy(hypergraph.SimplicialComplex, "simplex_positions")
    restricted_chainmap_check(*tensor_membership_pair())
    for s, u in cells:
        ez_map(TensorChain.of_pair(s, u), ctx)
    for sx in square:
        aw_map(ChainElement.of_simplex(sx), ctx)
    assert lookups == []


@settings(max_examples=15)
@given(small_pairs(max_vertices=4, max_dim=2))
def test_restricted_chainmap_property(pair):
    restricted_chainmap_check(*pair)  # raises IntegrityError on any failure


def _chainmap_outcome(check, pair):
    try:
        report = check(*pair)
    except IntegrityError:
        return None
    return report.tensor_columns_checked, report.product_columns_checked


@settings(max_examples=30)
@given(small_pairs())
def test_cell_rules_match_the_oracles(pair):
    # each rule lists an image cell at most once, as rule_matrix requires
    ctx = TensorContext.from_hypergraphs(*pair)
    for block in ctx.simplices:
        for cell in block:
            image = ctx.shuffle(cell)
            assert dict(image) == oracle_shuffle(ctx, cell)
            assert len(dict(image)) == len(image)
    for sx in product_boxtimes(*pair).closure.edges:
        image = ctx.front_back(sx)
        assert dict(image) == oracle_front_back(ctx, sx)
        assert len(dict(image)) == len(image)


def test_chainmap_check_builds_no_chain(spy):
    # the check writes both maps as rule matrices: no chain is built,
    # and neither chain-level map is called
    pair = homology_demo_pair()
    report = oracle_chainmap_check(*pair)
    chains = spy(ChainElement, "__post_init__")
    maps = [spy(kunneth, "ez_map"), spy(kunneth, "aw_map")]
    assert restricted_chainmap_check(*pair) == report
    assert report.tensor_columns_checked and report.product_columns_checked
    assert chains == [] and maps == [[], []]


@settings(max_examples=15)
@given(small_pairs())
def test_chainmap_check_agrees_with_the_chain_level_oracle(pair):
    outcome = _chainmap_outcome(restricted_chainmap_check, pair)
    assert outcome == _chainmap_outcome(oracle_chainmap_check, pair)


_REAL_SHUFFLE, _REAL_FRONT_BACK = TensorContext.shuffle, TensorContext.front_back


def _scaled(image, factor):
    return [(cell, factor * v) for cell, v in image]


def _front_back_off_the_infimum(ctx, sx):
    image = _REAL_FRONT_BACK(ctx, sx)
    # a vertex tensor of the closures that no hyperedge tensor spans
    return image + [(((0,), (0,)), 1)] if len(sx) == 1 else image


PLANTED_FAULTS = {
    "front-back-image-outside-the-tensor-infimum": (
        "front_back",
        _front_back_off_the_infimum,
        "outside the tensor infimum",
    ),
    "shuffle-map-off-the-boundaries": (
        "shuffle",
        lambda ctx, pair: _scaled(
            _REAL_SHUFFLE(ctx, pair), 2 if TensorChain.cell_degree(pair) == 1 else 1
        ),
        "shuffle map does not commute",
    ),
    "front-back-map-off-the-boundaries": (
        "front_back",
        lambda ctx, sx: _scaled(_REAL_FRONT_BACK(ctx, sx), -1 if len(sx) == 2 else 1),
        "front/back-face map does not commute",
    ),
    "broken-round-trip": (
        "front_back",
        lambda ctx, sx: _scaled(_REAL_FRONT_BACK(ctx, sx), 2),
        "is not the identity",
    ),
}


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_planted_chain_map_faults_are_refused(monkeypatch, fault):
    name, planted, message = PLANTED_FAULTS[fault]
    # a closed segment against a segment with one endpoint: the vertex
    # tensor a (x) w0 is off the tensor infimum, and degree 1 has a basis
    # chain with a nonzero boundary
    h = hypergraph_from_edges([["a"], ["b"], ["a", "b"]])
    h2 = hypergraph_from_edges([["w1"], ["w0", "w1"]])
    assert restricted_chainmap_check(h, h2) == oracle_chainmap_check(h, h2)
    monkeypatch.setattr(TensorContext, name, planted)
    with pytest.raises(IntegrityError, match=message):
        restricted_chainmap_check(h, h2)
    with pytest.raises(IntegrityError):
        oracle_chainmap_check(h, h2)
    outcome = check_pair(h, h2)
    assert outcome is not None and outcome[0] == "chain-map"
    assert message in outcome[1]


@settings(max_examples=25)
@given(small_pairs(), st.sampled_from(["z", "zp:2"]))
def test_verify_passes_on_generated_pairs(pair, coeff):
    # --verify runs the redundant routes: infimum vs supremum on each
    # factor and the product, tensored vs direct infimum, the chain maps
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, h in zip("ab", pair):
            path = Path(tmp) / f"{name}.txt"
            path.write_text(to_text(h))
            paths.append(str(path))
        out = Path(tmp) / "out"
        for path in paths:
            argv = ["homology", path, "--coeff", coeff, "--verify", "--out", str(out)]
            assert main(argv) == 0
        argv = ["kunneth", *paths, "--coeff", coeff, "--verify", "--format", "structured"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"]
