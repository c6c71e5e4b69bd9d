"""Campaign engine behavior: determinism, the check battery, shrinking."""

from __future__ import annotations

import pytest

import hyperhom.fuzz as fuzz
import hyperhom.homology as homology
import hyperhom.kunneth as kunneth
from hyperhom.examples import projective_plane, vertex_hypergraph
from hyperhom.fuzz import FuzzConfig, check_pair, instance_pair, run_fuzz
from hyperhom.hypergraph import (
    Hypergraph,
    hypergraph_from_edges,
    random_hypergraph,
)
from hyperhom.intlinalg import rank


def test_config_rejects_bad_bounds() -> None:
    with pytest.raises(ValueError, match="count must be non-negative"):
        FuzzConfig(count=-1, seed=0)
    with pytest.raises(ValueError, match="max_vertices must be at least 1"):
        FuzzConfig(count=1, seed=0, max_vertices=0)
    with pytest.raises(ValueError, match="max_dim must be non-negative"):
        FuzzConfig(count=1, seed=0, max_dim=-1)
    FuzzConfig(count=0, seed=0, max_vertices=1, max_dim=0)


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
            assert 1 <= g.n_vertices <= 4
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


def test_shuffle_image_outside_the_product_coordinates_is_a_chain_map_failure(
    monkeypatch,
) -> None:
    real_ez_map = kunneth.ez_map

    def leaky_ez_map(t, ctx):
        stray = tuple(range(10**6, 10**6 + t.degree + 1))  # no product vertex
        return real_ez_map(t, ctx) + homology.ChainElement.of_simplex(stray)

    monkeypatch.setattr(kunneth, "ez_map", leaky_ez_map)
    h = hypergraph_from_edges([["v0"], ["v0", "v1"]])
    h2 = hypergraph_from_edges([["w1"], ["w0", "w1"]])
    outcome = check_pair(h, h2)
    assert outcome is not None and outcome[0] == "chain-map"
    assert "outside the product infimum" in outcome[1]


def test_universal_coefficient_check_catches_a_wrong_field_rank(monkeypatch) -> None:
    # Z/2 ranks taken over Q: RP2 then loses its Z/2 classes consistently in
    # factor and product, so the Z/2 Kunneth ledger still closes.
    monkeypatch.setattr(homology, "rank_mod_p", lambda d, p: rank(d))
    outcome = check_pair(projective_plane(), vertex_hypergraph())
    assert outcome is not None and outcome[0] == "universal-coefficients"


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
