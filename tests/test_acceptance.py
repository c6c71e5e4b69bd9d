"""Release gate: seven checks, each timed and reported on its own line.

Every check prints a verdict and registers it with the terminal summary
hook in conftest, so the pass/fail lines show up at the end of a plain
``pytest`` run. The time budgets are part of the contract: a pass that
blows its budget is a failure.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest
from conftest import ACCEPTANCE_RESULTS

from hyperhom.examples import (
    product_demo_pair,
    projective_plane,
    tensor_membership_pair,
)
from hyperhom.fuzz import FuzzConfig, run_fuzz
from hyperhom.homology import (
    ChainElement,
    INTEGERS,
    RATIONALS,
    classical_homology,
    embedded_homology,
)
from hyperhom.hypergraph import (
    associated_complex,
    hypergraph_from_edges,
    product_boxtimes,
    product_complex,
)
from hyperhom.intlinalg import (
    LatticeSolver,
    SparseIntMatrix,
    column_hnf,
    determinant,
    smith_normal_form,
)
from hyperhom.kunneth import (
    ProductContext,
    TensorChain,
    TensorContext,
    aw_map,
    ez_map,
    inf_tensor_basis,
    kunneth_check,
)


def _record(line: str) -> None:
    ACCEPTANCE_RESULTS.append(line)
    print(line)


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _record(f"criterion {number} FAIL: {label}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        _record(
            f"criterion {number} FAIL: {label} "
            f"(took {elapsed:.2f}s, budget {budget:.0f}s)"
        )
        pytest.fail(f"criterion {number} exceeded its {budget:.0f}s budget")
    timing = f"{elapsed:.2f}s" + (f", budget {budget:.0f}s" if budget else "")
    _record(f"criterion {number} PASS: {label} [{timing}]")


def test_criterion_1_worked_product_and_closure() -> None:
    with criterion(
        1,
        "product of the worked pair has exactly the five hyperedges and "
        "its closure equals the product of closures",
        budget=1.0,
    ):
        h, h2 = product_demo_pair()
        box = product_boxtimes(h, h2)
        assert len(box.edges) == 5
        assert box.edge_token_sets == frozenset(
            {
                frozenset({"v0|w1"}),
                frozenset({"v0|w0", "v0|w1"}),
                frozenset({"v0|w1", "v1|w1"}),
                frozenset({"v0|w0", "v1|w0", "v1|w1"}),
                frozenset({"v0|w0", "v0|w1", "v1|w1"}),
            }
        )
        closed = associated_complex(box)
        assert closed == product_complex(associated_complex(h), associated_complex(h2))
        assert frozenset({"v0|w0", "v1|w1"}) in closed.edge_token_sets


def test_criterion_2_square_chain_map_tables() -> None:
    with criterion(
        2,
        "shuffle and front/back-face values on the square match the "
        "worked tables exactly",
    ):
        seg = hypergraph_from_edges([["0", "1"]])
        ctx = ProductContext.from_hypergraphs(seg, seg)
        # product vertex index is 2*left + right: 0|0, 0|1, 1|0, 1|1
        expected_mu = {
            ((0,), (0,)): {(0,): 1},
            ((0,), (1,)): {(1,): 1},
            ((1,), (0,)): {(2,): 1},
            ((1,), (1,)): {(3,): 1},
            ((0,), (0, 1)): {(0, 1): 1},
            ((1,), (0, 1)): {(2, 3): 1},
            ((0, 1), (0,)): {(0, 2): 1},
            ((0, 1), (1,)): {(1, 3): 1},
            ((0, 1), (0, 1)): {(0, 2, 3): 1, (0, 1, 3): -1},
        }
        for (s, u), image in expected_mu.items():
            got = ez_map(TensorChain.of_pair(s, u), ctx)
            assert got.coeffs == image, (s, u)
        assert aw_map(ChainElement.of_simplex((0, 2, 3)), ctx).terms == {
            ((0, 1), (0, 1)): 1
        }
        assert aw_map(ChainElement.of_simplex((0, 1, 3)), ctx).terms == {}
        assert aw_map(ChainElement.of_simplex((0, 3)), ctx).terms == {
            ((0,), (0, 1)): 1,
            ((0, 1), (1,)): 1,
        }


def test_criterion_3_demo_pair_is_acyclic_over_the_rationals() -> None:
    with criterion(
        3,
        "both demo factors and their product have rank 1 in degree 0 and "
        "rank 0 above, over the rationals",
    ):
        h, h2 = product_demo_pair()
        for g in (h, h2, product_boxtimes(h, h2)):
            values = embedded_homology(g, RATIONALS)
            assert values[0] == 1
            assert all(v == 0 for v in values[1:])


def test_criterion_4_tensor_infimum_memberships() -> None:
    with criterion(
        4,
        "tensor infimum membership: the worked 2-cycle and its three "
        "parts belong, its four single terms do not",
    ):
        h, h2 = tensor_membership_pair()
        tctx = TensorContext(associated_complex(h), associated_complex(h2))
        inf_t = inf_tensor_basis(h, h2)
        v12, v23, v13 = (0, 1), (1, 2), (0, 2)
        w23, w13, w12 = (1, 2), (0, 2), (0, 1)
        g = TensorChain(
            2,
            {
                (v12, w23): 1,
                (v13, w13): 1,
                (v23, w23): 1,
                (v13, w12): -1,
                (v13, w23): 1,
            },
        )
        assert inf_t.contains(2, tctx.to_vector(g))
        assert inf_t.contains(2, tctx.to_vector(TensorChain.of_pair(v13, w23)))
        for s, u in [(v12, w23), (v23, w23), (v13, w13), (v13, w12)]:
            assert not inf_t.contains(2, tctx.to_vector(TensorChain.of_pair(s, u)))
        parts = [
            TensorChain(2, {(v12, w23): 1, (v23, w23): 1}),
            TensorChain(2, {(v13, w13): 1, (v13, w12): -1}),
            TensorChain.of_pair(v13, w23),
        ]
        total = TensorChain(2, {})
        for part in parts:
            assert inf_t.contains(2, tctx.to_vector(part))
            total = total + part
        assert total == g


def test_criterion_5_torsion_kunneth_on_the_projective_plane() -> None:
    with criterion(
        5,
        "projective plane squared: degree 3 is exactly one 2-torsion "
        "class, every kunneth row closes, classical homology agrees",
        budget=60.0,
    ):
        rp2 = projective_plane()
        box = product_boxtimes(rp2, rp2)
        groups = embedded_homology(box, INTEGERS)
        assert groups[3].rank == 0 and groups[3].invariants == (2,)
        report = kunneth_check(rp2, rp2, INTEGERS)
        assert report.ok
        row3 = report.rows[3]
        assert row3.tensor_part.rank == 0 and row3.tensor_part.invariants == ()
        assert row3.tor_part.rank == 0 and row3.tor_part.invariants == (2,)
        classical = classical_homology(associated_complex(box), INTEGERS)
        assert list(groups) == list(classical)


def test_criterion_6_randomized_theorem_battery() -> None:
    with criterion(
        6,
        "200 seeded random pairs pass closure, infimum/supremum, chain "
        "map, kunneth, and universal-coefficient checks",
        budget=600.0,
    ):
        report = run_fuzz(FuzzConfig(count=200, seed=1))
        assert report.checked == 200
        assert report.ok, "\n" + report.to_text()


def test_criterion_7_normal_form_invariants() -> None:
    with criterion(
        7,
        "500 random integer matrices: Smith chain divisibility, "
        "unimodular transforms, pivot-order independence, Hermite "
        "lattice invariance",
        budget=30.0,
    ):
        rng = random.Random(20260814)
        for _ in range(500):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            dense = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
            a = SparseIntMatrix.from_rows(dense, ncols=ncols)
            res = smith_normal_form(a, pivot_order="markowitz")
            res2 = smith_normal_form(a, pivot_order="ordered")
            assert res.d == res2.d
            assert all(x > 0 for x in res.d)
            assert all(res.d[i + 1] % res.d[i] == 0 for i in range(len(res.d) - 1))
            for r in (res, res2):
                assert abs(determinant(r.left)) == 1
                assert abs(determinant(r.right)) == 1
                diag = r.left @ a @ r.right
                for i, j, v in diag.iter_entries():
                    assert i == j and v == r.d[i]
                assert diag.nnz == len(r.d)
            hnf = column_hnf(a)
            perm = list(range(ncols))
            rng.shuffle(perm)
            shuffled = SparseIntMatrix.from_columns(
                nrows, [a.column(j) for j in perm]
            )
            assert column_hnf(shuffled) == hnf
            solver = LatticeSolver(hnf)
            for j in range(ncols):
                assert solver.solve(a.column(j)) is not None
