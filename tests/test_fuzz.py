"""Campaign engine behavior: determinism, the check battery, shrinking."""

from __future__ import annotations

import pytest

import hyperhom.fuzz as fuzz
import hyperhom.homology as homology
import hyperhom.kunneth as kunneth
from hyperhom.abelian import FGAbelianGroup
from hyperhom.errors import ValidationError
from hyperhom.examples import projective_plane, vertex_hypergraph
from hyperhom.fuzz import FuzzConfig, check_pair, instance_pair, run_fuzz
from hyperhom.hypergraph import (
    Hypergraph,
    hypergraph_from_edges,
    random_hypergraph,
)
from hyperhom.intlinalg import SparseIntMatrix, rank


def test_config_rejects_bad_bounds() -> None:
    with pytest.raises(ValueError, match="count must be non-negative"):
        FuzzConfig(count=-1, seed=0)
    with pytest.raises(ValueError, match="max_vertices must be at least 1"):
        FuzzConfig(count=1, seed=0, max_vertices=0)
    with pytest.raises(ValueError, match="max_dim must be non-negative"):
        FuzzConfig(count=1, seed=0, max_dim=-1)
    FuzzConfig(count=0, seed=0, max_vertices=1, max_dim=0)
    # a factor draws from every subset of up to max_dim + 1 vertices
    with pytest.raises(ValueError, match="1099511627775 candidate hyperedges"):
        FuzzConfig(count=1, seed=0, max_vertices=40, max_dim=39)
    with pytest.raises(ValueError, match="1401291 candidate hyperedges"):
        FuzzConfig(count=1, seed=0, max_vertices=21, max_dim=10)
    FuzzConfig(count=1, seed=0, max_vertices=20, max_dim=19)  # 2^20 - 1
    # a float would pass every bound and fail only inside the campaign
    with pytest.raises(ValueError, match="count must be an integer, got 2.5"):
        FuzzConfig(count=2.5, seed=1)
    with pytest.raises(ValueError, match="max_dim must be an integer, got 2.0"):
        FuzzConfig(count=1, seed=0, max_dim=2.0)


def test_instance_pair_is_deterministic() -> None:
    config = FuzzConfig(count=10, seed=77)
    for index in range(5):
        assert instance_pair(config, index) == instance_pair(config, index)
    pairs = {instance_pair(config, index) for index in range(5)}
    assert len(pairs) > 1


def test_instance_pair_respects_bounds() -> None:
    config = FuzzConfig(count=1, seed=3, max_vertices=4, max_dim=2)
    for index in range(20):
        for g in instance_pair(config, index):
            assert 1 <= len(g.vertices) <= 4
            assert g.dim <= 2


def test_check_pair_passes_on_known_good_instances() -> None:
    h = hypergraph_from_edges([["v0"], ["v0", "v1"]])
    h2 = hypergraph_from_edges([["w1"], ["w0", "w1"]])
    assert check_pair(h, h2) is None


def test_check_pair_computes_each_derived_value_once(spy) -> None:
    h = random_hypergraph(5, 2, 0.5, seed=48611)
    h2 = random_hypergraph(4, 2, 0.6, seed=48612)
    calls = {
        name: spy(homology, name)
        for name in ("inf_chain", "sup_chain", "restricted_boundaries")
    }
    tensor_calls = spy(kunneth, "inf_tensor_basis")
    assert check_pair(h, h2) is None
    # once per hypergraph (both factors and the product) and route, plus
    # the tensor infimum's, which the chain-map check reads
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {"inf_chain": 3, "sup_chain": 3, "restricted_boundaries": 7}
    # one tensor infimum, without the direct recomputation
    assert [kwargs.get("verify", False) for _, kwargs in tensor_calls] == [False]


def test_check_pair_validates_no_hypergraph_it_builds(spy) -> None:
    # the closures, the products and the closures of the products are all
    # built by the library; only the two parsed factors were validated
    h = hypergraph_from_edges([["a", "b", "c"], ["b", "d"], ["d"]])
    h2 = hypergraph_from_edges([["x", "y"], ["y", "z"], ["x", "z"]])
    validated = spy(Hypergraph, "__post_init__")
    closed = spy(Hypergraph, "is_closed")
    assert check_pair(h, h2) is None
    assert validated == [] and closed == []


def test_shuffle_image_outside_the_product_coordinates_is_a_chain_map_failure(
    monkeypatch,
) -> None:
    real_shuffle = kunneth.TensorContext.shuffle

    def leaky_shuffle(ctx, pair):
        degree = kunneth.TensorChain.cell_degree(pair)
        stray = tuple(range(10**6, 10**6 + degree + 1))  # no product vertex
        return real_shuffle(ctx, pair) + [(stray, 1)]

    monkeypatch.setattr(kunneth.TensorContext, "shuffle", leaky_shuffle)
    h = hypergraph_from_edges([["v0"], ["v0", "v1"]])
    h2 = hypergraph_from_edges([["w1"], ["w0", "w1"]])
    outcome = check_pair(h, h2)
    assert outcome is not None and outcome[0] == "chain-map"
    assert "outside the product infimum" in outcome[1]


def test_universal_coefficient_check_catches_a_wrong_field_rank(monkeypatch) -> None:
    # Z/2 ranks taken over Q: RP2's degree-2 boundary then has one rank
    # mod 2 more than its factor 2 allows
    monkeypatch.setattr(homology, "rank_mod_p", lambda d, p: rank(d))
    outcome = check_pair(projective_plane(), vertex_hypergraph())
    assert outcome is not None and outcome[0] == "universal-coefficients"


def test_universal_coefficient_check_catches_a_wrong_invariant_factor(lost_torsion) -> None:
    # the factor and the product lose their Z/2 classes alike, so the
    # inf-sup check and every Kunneth ledger still pass
    outcome = check_pair(projective_plane(), vertex_hypergraph())
    assert outcome is not None and outcome[0] == "universal-coefficients"
    assert "over zp:2" in outcome[1]


def _assert_minimized(report, category: str) -> list:
    """Every failure of ``report`` is in ``category``, and its witness is
    minimized: it fails so, and deleting any one hyperedge does not."""
    assert report.failures
    for f in report.failures:
        assert f.category == category
        pair = (f.left, f.right)
        outcome = check_pair(*pair)
        assert outcome is not None and outcome[0] == category
        for side in (0, 1):
            for idx in range(len(pair[side].edges)):
                smaller = fuzz._without_edge(pair[side], idx)
                if smaller is not None:
                    trial = (smaller, pair[1]) if side == 0 else (pair[0], smaller)
                    outcome = check_pair(*trial)
                    assert outcome is None or outcome[0] != category
    return list(report.failures)


SMALL = FuzzConfig(count=4, seed=3, max_vertices=4, max_dim=2)


def test_a_planted_closure_fault_is_reported_minimized(monkeypatch) -> None:
    # the product of closures forgets every edge of the right factor
    real = fuzz.product_complex

    def forgets_right_edges(k, k2):
        return real(k, hypergraph_from_edges([[v] for v in k2.vertices]).closure)

    monkeypatch.setattr(fuzz, "product_complex", forgets_right_edges)
    for f in _assert_minimized(run_fuzz(SMALL), "closure"):
        assert len(f.left.edges) == len(f.right.edges) == 1
        assert len(f.right.edges[0]) >= 2


def test_a_planted_supremum_fault_is_reported_minimized(monkeypatch) -> None:
    # the supremum forgets the boundaries from above: only the hyperedge
    # span is left, which is boundary-stable only on a closed hypergraph
    real = homology.lattice_sum_basis

    def span_only(image, first):
        return real(SparseIntMatrix(image.nrows, 0), first)

    monkeypatch.setattr(homology, "lattice_sum_basis", span_only)
    for f in _assert_minimized(run_fuzz(SMALL), "inf-sup"):
        assert "leaves the submodule" in f.detail
        assert len(f.left.edges) == len(f.right.edges) == 1
        assert max(len(e) for e in f.left.edges + f.right.edges) >= 2


def test_a_planted_ledger_fault_is_reported_minimized(monkeypatch) -> None:
    # the ledger takes a tensor product where the torsion product belongs
    monkeypatch.setattr(FGAbelianGroup, "tor", FGAbelianGroup.tensor)
    for f in _assert_minimized(run_fuzz(SMALL), "kunneth"):
        assert f.detail == "kunneth mismatch over z"
        # a vertex on each side: H_0 (x) H_0 = Z, posing as Tor in degree 1
        assert [len(e) for e in f.left.edges + f.right.edges] == [1, 1]


def test_a_planted_crash_is_reported_minimized(monkeypatch) -> None:
    # every rank mod 3 raises, so one hyperedge per factor is left
    real = homology.rank_mod_p

    def rank_mod_p(d, p):
        if p == 3:
            raise ZeroDivisionError("planted")
        return real(d, p)

    monkeypatch.setattr(homology, "rank_mod_p", rank_mod_p)
    report = run_fuzz(SMALL)
    assert len(report.failures) == SMALL.count
    for f in _assert_minimized(report, "crash"):
        assert f.detail == "ZeroDivisionError: planted"
        assert len(f.left.edges) == len(f.right.edges) == 1


def test_a_size_refusal_ends_the_campaign_with_its_index(monkeypatch) -> None:
    # refused, not filed as a crash and shrunk: a product of two
    # 20-vertex hyperedges is too large to start on
    wide = hypergraph_from_edges([[f"v{i:02d}" for i in range(20)]])
    pairs = [instance_pair(SMALL, 0), (wide, wide)]
    monkeypatch.setattr(fuzz, "instance_pair", lambda config, index: pairs[index])
    with pytest.raises(ValidationError, match="^fuzz instance 1: the product could have"):
        run_fuzz(FuzzConfig(count=2, seed=SMALL.seed))


def test_small_campaign_is_clean_and_reproducible() -> None:
    config = FuzzConfig(count=12, seed=5)
    first = run_fuzz(config)
    second = run_fuzz(config)
    assert first.ok
    assert first.checked == 12
    assert first.to_text() == second.to_text()
    assert first.to_dict() == second.to_dict()


def test_zero_count_campaign() -> None:
    report = run_fuzz(FuzzConfig(count=0, seed=1))
    assert report.ok and report.checked == 0


def test_shrink_removes_every_inessential_hyperedge(monkeypatch) -> None:
    # synthetic failure that trips whenever the left factor still has an
    # edge with >= 2 vertices, so the true minimum is a single such edge
    def fake_check(h: Hypergraph, h2: Hypergraph):
        if any(len(e) >= 2 for e in h.edges):
            return ("synthetic", "left factor has a fat edge")
        return None

    monkeypatch.setattr(fuzz, "check_pair", fake_check)
    h = hypergraph_from_edges([["a"], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]])
    h2 = hypergraph_from_edges([["x"], ["y"], ["x", "y"]])
    small_h, small_h2 = fuzz.shrink_pair(h, h2, "synthetic")
    assert len(small_h.edges) == 1 and len(small_h.edges[0]) >= 2
    assert len(small_h2.edges) == 1  # a factor can never shrink to nothing
    assert fake_check(small_h, small_h2) is not None


def test_run_fuzz_reports_minimized_failures(monkeypatch) -> None:
    def fake_check(h: Hypergraph, h2: Hypergraph):
        if len(h.edges) > 1:
            return ("synthetic", "too many edges")
        return None

    monkeypatch.setattr(fuzz, "check_pair", fake_check)
    report = fuzz.run_fuzz(FuzzConfig(count=6, seed=11))
    assert not report.ok
    assert report.checked == 6
    for failure in report.failures:
        assert failure.category == "synthetic"
        # minimal configuration that still fails: exactly two hyperedges
        assert len(failure.left.edges) == 2
    text = report.to_text()
    assert "FAILED" in text and "minimized" in text
    assert report.to_dict()["failures"][0]["category"] == "synthetic"
