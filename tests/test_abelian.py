"""Finitely generated abelian groups: canonical form, tensor, Tor.

Oracles: element-order censuses of small groups (enumerated directly),
and presentations pushed through the independent Smith pipeline.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from hyperhom.abelian import FGAbelianGroup, direct_sum, from_presentation
from hyperhom.intlinalg import SparseIntMatrix


def order_census(torsion: list[int]) -> dict[int, int]:
    """Multiset of element orders of Z/t1 + Z/t2 + ... (brute force)."""
    census: dict[int, int] = {}
    for elem in itertools.product(*(range(t) for t in torsion)):
        o = 1
        for x, t in zip(elem, torsion):
            if x:
                o = lcm(o, t // gcd(x, t))
        census[o] = census.get(o, 0) + 1
    return census


small_orders = st.lists(st.integers(min_value=2, max_value=12), min_size=0, max_size=3)


# ------------------------------------------------------------- canonical


def test_canonical_regrouping_examples():
    assert FGAbelianGroup.from_parts(0, [2, 3]).invariants == (6,)
    assert FGAbelianGroup.from_parts(0, [4, 6]).invariants == (2, 12)
    assert FGAbelianGroup.from_parts(0, [2, 2, 4]).invariants == (2, 2, 4)
    assert FGAbelianGroup.from_parts(2, []) == FGAbelianGroup(2)
    assert FGAbelianGroup.cyclic(1) == FGAbelianGroup.trivial()


def test_invalid_chains_rejected():
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (3, 4))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(-1)
    with pytest.raises(ValueError):
        FGAbelianGroup.from_parts(0, [0])


@given(small_orders)
def test_canonical_form_preserves_element_orders(torsion):
    g = FGAbelianGroup.from_parts(0, torsion)
    assert order_census(torsion) == order_census(list(g.invariants))


@given(small_orders)
def test_canonical_form_is_order_independent(torsion):
    g = FGAbelianGroup.from_parts(0, torsion)
    h = FGAbelianGroup.from_parts(0, list(reversed(torsion)))
    assert g == h


# ---------------------------------------------------------- presentation


def test_from_presentation_examples():
    rel = SparseIntMatrix.from_rows([[2, 4], [6, 8]])
    assert from_presentation(rel) == FGAbelianGroup.from_parts(0, [2, 4])
    none = SparseIntMatrix(3, 0)
    assert from_presentation(none) == FGAbelianGroup(3)
    kill = SparseIntMatrix.identity(2)
    assert from_presentation(kill) == FGAbelianGroup.trivial()
    with pytest.raises(ValueError):
        from_presentation(rel, ambient_rank=3)


def test_tensor_of_cyclics_via_presentation_oracle():
    # Z/a (x) Z/b is presented by one generator with relations a and b
    for a in range(2, 10):
        for b in range(2, 10):
            rel = SparseIntMatrix.from_rows([[a, b]])
            expected = from_presentation(rel)
            got = FGAbelianGroup.cyclic(a).tensor(FGAbelianGroup.cyclic(b))
            assert got == expected, (a, b)


# ------------------------------------------------------------ tensor/tor


def test_tensor_examples():
    z2, z4 = FGAbelianGroup.cyclic(2), FGAbelianGroup.cyclic(4)
    assert z2.tensor(z4) == z2
    z = FGAbelianGroup(1)
    g = FGAbelianGroup.from_parts(2, [6])
    assert z.tensor(g) == g
    assert g.tensor(FGAbelianGroup.trivial()) == FGAbelianGroup.trivial()


def test_tor_examples():
    z2 = FGAbelianGroup.cyclic(2)
    assert z2.tor(z2) == z2
    assert FGAbelianGroup(5).tor(z2) == FGAbelianGroup.trivial()
    assert z2.tor(FGAbelianGroup(5)) == FGAbelianGroup.trivial()
    # oracle: #{x in Z/b : a*x = 0} = gcd(a, b), and that kernel is cyclic
    for a in range(2, 12):
        for b in range(2, 12):
            count = sum(1 for x in range(b) if (a * x) % b == 0)
            expected = FGAbelianGroup.cyclic(count)
            got = FGAbelianGroup.cyclic(a).tor(FGAbelianGroup.cyclic(b))
            assert got == expected, (a, b)


@given(small_orders, small_orders)
def test_tensor_commutes(t1, t2):
    g = FGAbelianGroup.from_parts(0, t1)
    h = FGAbelianGroup.from_parts(0, t2)
    assert g.tensor(h) == h.tensor(g)
    assert g.tor(h) == h.tor(g)


@given(small_orders, small_orders, small_orders)
def test_tensor_distributes_over_direct_sum(t1, t2, t3):
    g = FGAbelianGroup.from_parts(1, t1)
    h = FGAbelianGroup.from_parts(0, t2)
    k = FGAbelianGroup.from_parts(1, t3)
    lhs = g.tensor(h.direct_sum(k))
    rhs = g.tensor(h).direct_sum(g.tensor(k))
    assert lhs == rhs


def test_direct_sum_helper():
    gs = [FGAbelianGroup.cyclic(2), FGAbelianGroup(1), FGAbelianGroup.cyclic(3)]
    assert direct_sum(gs) == FGAbelianGroup.from_parts(1, [6])
    assert direct_sum([]) == FGAbelianGroup.trivial()


# ------------------------------------------------------------- rendering


def test_rendering():
    assert str(FGAbelianGroup.trivial()) == "0"
    assert str(FGAbelianGroup(1)) == "Z"
    assert str(FGAbelianGroup(3)) == "Z^3"
    assert str(FGAbelianGroup.from_parts(1, [4, 6])) == "Z + Z/2 + Z/12"
    assert str(FGAbelianGroup.cyclic(2)) == "Z/2"


def test_betti_mod_p():
    g = FGAbelianGroup.from_parts(2, [2, 12])
    assert g.betti_mod_p(2) == 4
    assert g.betti_mod_p(3) == 3
    assert g.betti_mod_p(5) == 2
