"""Exact integer linear algebra, checked against independent oracles.

The oracles here deliberately avoid the library's elimination code:
determinants are expanded over permutations, Smith invariant factors are
recomputed from gcds of k x k minors, and membership questions are
settled by brute-force enumeration where feasible.
"""

from __future__ import annotations

import itertools
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import hyperhom.intlinalg as intlinalg
from homology_oracle import OracleSolver, oracle_column_hnf
from hyperhom.examples import projective_plane
from hyperhom.hypergraph import product_boxtimes
from hyperhom.intlinalg import (
    LatticeSolver,
    SparseIntMatrix,
    _dict_addmul,
    _dict_scale,
    _Echelon,
    chain_invariant_factors,
    column_hnf,
    determinant,
    invariant_factors,
    is_prime,
    kernel_basis,
    lattice_sum_basis,
    rank,
    rank_mod_p,
    smith_normal_form,
    xgcd,
)


# ---------------------------------------------------------------- oracles


def perm_det(rows: list[list[int]]) -> int:
    """Determinant by permutation expansion (exact, independent)."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def minor_gcd_invariants(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors from determinantal divisors: d_k = g_k / g_{k-1}."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, perm_det(sub))
        if g == 0:
            break
        divisors.append(g)
    return tuple(divisors[k] // divisors[k - 1] for k in range(1, len(divisors)))


def dense(mat: SparseIntMatrix) -> list[list[int]]:
    return mat.to_rows()


small_entries = st.integers(min_value=-9, max_value=9)
wide_entries = st.integers(min_value=-30, max_value=30)


@st.composite
def int_matrices(draw, max_dim: int = 4, entries=small_entries):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return SparseIntMatrix.from_rows(rows)


@st.composite
def sparse_int_matrices(draw, max_dim: int = 8):
    """Up to max_dim x max_dim with about two entries per line: shapes on
    which row moves, column moves and the divisibility step all fire."""
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    entries = draw(st.dictionaries(cells, wide_entries, max_size=2 * max(m, n)))
    return SparseIntMatrix(m, n, entries)


# ----------------------------------------------------------------- basics


def test_xgcd_identity():
    for a in range(-8, 9):
        for b in range(-8, 9):
            g, x, y = xgcd(a, b)
            assert g == gcd(a, b)
            assert a * x + b * y == g


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


@given(st.integers(-10, 2**40))
@example(2147483647)
@example(2147483647 * 2147483629)
def test_is_prime_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize(
    "n",
    [
        # the least strong pseudoprimes to the first 1, 2, 3, 4, 9 and 12
        # prime bases
        2047,
        1373653,
        25326001,
        3215031751,
        3825123056546413051,
        318665857834031151167461,
        561,  # a Carmichael number
    ],
)
def test_is_prime_refuses_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_refuses_to_decide_beyond_its_bound():
    assert is_prime(2**61 - 1)
    # the least strong pseudoprime to the first 13 prime bases
    with pytest.raises(ValueError, match="not decided"):
        is_prime(3317044064679887385961981)


def test_matrix_construction_and_equality():
    a = SparseIntMatrix.from_rows([[1, 0], [0, 2]])
    b = SparseIntMatrix(2, 2, {(0, 0): 1, (1, 1): 2})
    assert a == b
    assert a.entry(1, 1) == 2
    assert a.entry(0, 1) == 0
    assert a.nnz == 2
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        SparseIntMatrix.from_rows([[1, 2], [3]])


def test_matmul_and_mat_vec():
    a = SparseIntMatrix.from_rows([[1, 2], [3, 4]])
    b = SparseIntMatrix.from_rows([[0, 1], [1, 0]])
    assert dense(a @ b) == [[2, 1], [4, 3]]
    assert a.apply_to_column({0: 1, 1: 1}) == {0: 3, 1: 7}
    with pytest.raises(ValueError):
        a.apply_to_column({2: 1})


# ------------------------------------------------------------------- SNF


def test_snf_worked_example():
    rows = [[2, 4], [6, 8]]
    expected = minor_gcd_invariants(rows)
    assert expected == (2, 4)
    a = SparseIntMatrix.from_rows(rows)
    res = smith_normal_form(a)
    assert res.d == (2, 4)
    assert res.rank == 2
    assert invariant_factors(a) == (2, 4)


@given(int_matrices())
def test_snf_matches_minor_gcd_oracle(a):
    assert invariant_factors(a) == minor_gcd_invariants(dense(a))


# a pivot other than +-1 that does not divide the rest: (1, 6) and (2, 2, 60)
NON_DIVIDING = [
    SparseIntMatrix.from_rows([[2, 0], [0, 3]]),
    SparseIntMatrix.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]]),
]


@given(
    st.one_of(int_matrices(), sparse_int_matrices()),
    st.sampled_from(["markowitz", "ordered"]),
)
@example(NON_DIVIDING[0], "markowitz")
@example(NON_DIVIDING[0], "ordered")
@example(NON_DIVIDING[1], "markowitz")
@example(NON_DIVIDING[1], "ordered")
def test_snf_transforms_diagonalize(a, pivot_order):
    res = smith_normal_form(a, pivot_order)
    prod = res.left @ a @ res.right
    for i, j, v in prod.iter_entries():
        assert i == j and i < len(res.d) and v == res.d[i]
    assert prod.nnz == len(res.d)
    assert abs(determinant(res.left)) == 1
    assert abs(determinant(res.right)) == 1
    for k in range(len(res.d) - 1):
        assert res.d[k + 1] % res.d[k] == 0
    assert all(v > 0 for v in res.d)


@given(int_matrices())
def test_snf_pivot_orders_agree(a):
    assert smith_normal_form(a, "markowitz").d == smith_normal_form(a, "ordered").d


def test_snf_rejects_unknown_pivot_order():
    with pytest.raises(ValueError):
        smith_normal_form(SparseIntMatrix.identity(1), "fastest")


def test_snf_zero_and_degenerate():
    z = SparseIntMatrix(2, 3)
    res = smith_normal_form(z)
    assert res.d == () and res.rank == 0
    assert res.left == SparseIntMatrix.identity(2)
    assert res.right == SparseIntMatrix.identity(3)
    empty = SparseIntMatrix(0, 4)
    assert invariant_factors(empty) == ()
    wide = SparseIntMatrix.from_rows([[0, 0, 7]])
    assert invariant_factors(wide) == (7,)


def test_snf_matches_sympy_on_random_instances():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    import random

    rng = random.Random(20260814)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        ours = invariant_factors(SparseIntMatrix.from_rows(rows))
        smat = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        theirs = []
        for k in range(min(m, n)):
            v = int(smat[k, k])
            if v:
                theirs.append(abs(v))
        # invariant factors are unique, so the multisets must agree
        assert sorted(ours) == sorted(theirs), (rows, ours, theirs)


# ------------------------------------------------- reduced chain complexes


def _dense_product(a: list[list[int]], b: list[list[int]], inner: int) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [[sum(r[k] * b[k][j] for k in range(inner)) for j in range(cols)] for r in a]


@st.composite
def unimodular_pairs(draw, n: int):
    """(U, U^-1) as dense n x n lists, from elementary moves: adding c
    times row j of U to row i takes c times column i of U^-1 away from
    its column j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    w = [row[:] for row in u]
    if n < 2:
        return u, w
    moves = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
            max_size=3 * n,
        )
    )
    for i, j, c in moves:
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in w:
                row[j] -= c * row[i]
    return u, w


@st.composite
def conjugated_complexes(draw, max_top=3, max_cells=5):
    """An integral chain complex with its torsion in disguise. First a
    diagonal complex: each cell maps to t times a cycle of its own one
    degree down, t among +-1, 2, 3, 4, 6. Then every degree is conjugated
    by a unimodular matrix, so d[n] becomes U[n-1] d[n] U[n]^-1."""
    top = draw(st.integers(1, max_top))
    sizes = [draw(st.integers(0, max_cells)) for _ in range(top + 1)]
    pairs = [draw(unimodular_pairs(k)) for k in sizes]
    d = [SparseIntMatrix(0, sizes[0])]
    sources: set[int] = set()  # cells of the degree below with a nonzero boundary
    for n in range(1, top + 1):
        cycles = [i for i in range(sizes[n - 1]) if i not in sources]
        diag = [[0] * sizes[n] for _ in range(sizes[n - 1])]
        sources = set()
        for j in range(sizes[n]):
            if cycles and draw(st.booleans()):
                i = cycles.pop(draw(st.integers(0, len(cycles) - 1)))
                diag[i][j] = draw(st.sampled_from([1, -1, 2, 3, 4, 6]))
                sources.add(j)
        u_below, w_here = pairs[n - 1][0], pairs[n][1]
        rows = _dense_product(_dense_product(u_below, diag, sizes[n - 1]), w_here, sizes[n])
        d.append(SparseIntMatrix.from_rows(rows, sizes[n]))
    return d


@given(conjugated_complexes())
@example(  # d[2] sends its one cell to twice a cycle, disguised
    [
        SparseIntMatrix(0, 2),
        SparseIntMatrix.from_rows([[1, -1], [0, 0]]),
        SparseIntMatrix.from_rows([[2], [2]]),
    ]
)
def test_reduced_complex_keeps_every_invariant_factor(d):
    for n in range(2, len(d)):
        assert (d[n - 1] @ d[n]).is_zero()
    with mock.patch.object(
        intlinalg, "invariant_factors", wraps=intlinalg.invariant_factors
    ) as residual:
        got = chain_invariant_factors(d)
    assert got == [invariant_factors(m) for m in d]
    # every unit pair is gone before the Smith form of the residual
    for (m,), _ in residual.call_args_list:
        assert all(abs(v) != 1 for _, _, v in m.iter_entries())


def test_only_the_torsion_of_rp2_takes_a_smith_form(spy):
    k = projective_plane()
    d = list(k.coordinates.boundaries)
    residuals = spy(intlinalg, "invariant_factors")
    assert chain_invariant_factors(d) == [invariant_factors(m) for m in d]
    # the 2-torsion of H_1 is all that is left: one 1x1 residual, +-2
    assert [args[0].to_rows() in ([[2]], [[-2]]) for args, _ in residuals] == [True]


def test_reduced_complex_of_empty_degrees():
    assert chain_invariant_factors([]) == []
    d = [SparseIntMatrix(0, 0), SparseIntMatrix(0, 3), SparseIntMatrix(3, 0)]
    assert chain_invariant_factors(d) == [(), (), ()]


# ------------------------------------------------------------------ rank


@given(int_matrices())
def test_rank_equals_snf_rank(a):
    assert rank(a) == len(invariant_factors(a))


@given(
    st.one_of(int_matrices(entries=wide_entries), sparse_int_matrices()),
    st.sampled_from([2, 3, 5, 7]),
)
def test_rank_mod_p_counts_unit_invariant_factors(a, p):
    d = invariant_factors(a)
    assert rank_mod_p(a, p) == sum(1 for v in d if v % p)


def test_rank_mod_p_counts_unit_invariant_factors_on_rp2_squared():
    # the restricted boundaries of both complexes: up to 1400 rows, with
    # invariant factors 2 among the units. Elimination mod p shares no
    # code with the Smith form.
    rp2 = projective_plane()
    box = product_boxtimes(rp2, rp2)
    for a in box.inf.restricted + box.sup.restricted:
        d = invariant_factors(a)
        for p in (2, 3):
            assert rank_mod_p(a, p) == sum(1 for v in d if v % p)


def test_rank_mod_p_requires_prime():
    with pytest.raises(ValueError):
        rank_mod_p(SparseIntMatrix.identity(2), 6)


def test_rank_mod_p_example():
    a = SparseIntMatrix.from_rows([[2, 0], [0, 3]])
    assert rank_mod_p(a, 2) == 1
    assert rank_mod_p(a, 3) == 1
    assert rank_mod_p(a, 5) == 2


# ----------------------------------------------------------- determinant


@given(int_matrices())
def test_determinant_vs_permutation_oracle(a):
    if a.nrows != a.ncols:
        with pytest.raises(ValueError):
            determinant(a)
    else:
        assert determinant(a) == perm_det(dense(a))


# ---------------------------------------------------------------- kernel


def test_kernel_worked_examples():
    # difference map: kernel of [1, -1] is generated by (1, 1)
    a = SparseIntMatrix.from_rows([[1, -1]])
    k = kernel_basis(a)
    assert dense(k) == [[1], [1]]

    # oriented triangle cycle: edges {01},{02},{12}
    d1 = SparseIntMatrix.from_rows([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    k = kernel_basis(d1)
    assert k.ncols == 1
    col = [k.entry(i, 0) for i in range(3)]
    assert col == [1, -1, 1] or col == [-1, 1, -1]

    # saturation: 2x = 0 forces x = 0, the free coordinate stays primitive
    a = SparseIntMatrix.from_rows([[2, 0]])
    assert dense(kernel_basis(a)) == [[0], [1]]


@given(int_matrices())
def test_kernel_is_complete_and_annihilates(a):
    k = kernel_basis(a)
    assert k.ncols == a.ncols - rank(a)
    assert oracle_column_hnf(k) == k
    prod = a @ k
    assert prod.is_zero()
    # doubling the matrix must not change its kernel (saturation)
    doubled = [{i: 2 * v for i, v in a.column(j).items()} for j in range(a.ncols)]
    assert kernel_basis(SparseIntMatrix.from_columns(a.nrows, doubled)) == k


def test_kernel_of_zero_rows():
    a = SparseIntMatrix(0, 3)
    assert kernel_basis(a) == SparseIntMatrix.identity(3)


# ------------------------------------------------------------ expression


def test_express_in_basis_examples():
    solve = LatticeSolver(SparseIntMatrix.from_rows([[2, 0], [0, 1]])).solve
    assert solve({0: 2, 1: 3}) == {0: 1, 1: 3}
    assert solve({0: 1}) is None
    assert solve({0: 0, 1: 0}) == {}
    assert solve({1: 5}) == {1: 5}
    with pytest.raises(ValueError):
        solve({2: 3})
    dependent = SparseIntMatrix.from_rows([[1, 2], [1, 2]])
    with pytest.raises(ValueError):
        LatticeSolver(dependent)


@given(int_matrices(max_dim=3), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_express_round_trip(a, coeffs):
    basis = column_hnf(a)
    if basis.ncols == 0:
        return
    cs = coeffs[: basis.ncols]
    vec = {i: 0 for i in range(basis.nrows)}
    for j, c in enumerate(cs):
        for i in range(basis.nrows):
            vec[i] += c * basis.entry(i, j)
    assert LatticeSolver(basis).solve(vec) == {j: c for j, c in enumerate(cs) if c}


def test_lattice_solver_reuse():
    basis = SparseIntMatrix.from_rows([[3, 0], [0, 2]])
    solver = LatticeSolver(basis)
    assert solver.solve({0: 3, 1: 2}) == {0: 1, 1: 1}
    assert solver.solve({0: 1, 1: 1}) is None
    assert solver.solve({0: 3}) == {0: 1}
    assert solver.solve({1: 1}) is None
    assert solver.solve({0: 0, 1: 0}) == {} and solver.solve({}) == {}
    assert solver.solve({0: 6, 1: -4}) is not None
    assert solver.solve({0: 2, 1: 2}) is None


def test_a_basis_not_in_echelon_form_is_refused_and_the_oracle_solves_it():
    # both columns lead in row 0: independent, but not in echelon form
    basis = SparseIntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="share leading row 0"):
        LatticeSolver(basis)
    assert OracleSolver(basis).solve({0: 2, 1: 1}) == {0: 1, 1: 1}
    with pytest.raises(ValueError, match="is zero"):
        LatticeSolver(SparseIntMatrix.from_rows([[1, 0], [0, 0]]))


def test_a_unit_column_on_a_shared_row_is_not_read_off():
    # column 1 is exactly {1: -1}, but column 0 also has an entry in row 1
    basis = SparseIntMatrix.from_columns(3, [{0: 1, 1: 2}, {1: -1}, {2: 1}])
    solver, oracle = LatticeSolver(basis), OracleSolver(basis)
    for v in ({0: 1, 1: 5, 2: -3}, {1: 5}, {0: 3}, {0: 2, 1: 1, 2: 4}):
        assert solver.solve(v) == oracle.solve(v)
    assert solver.solve({0: 1, 1: 5, 2: -3}) == {0: 1, 1: -3, 2: -3}


@given(
    st.one_of(int_matrices(max_dim=5), int_matrices(max_dim=5, entries=st.integers(-1, 1))),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 9), st.sampled_from([-2, -1, 1, 2])), max_size=3),
    st.lists(st.integers(0, 4), max_size=2),
    st.lists(st.integers(-4, 4), min_size=5, max_size=5),
    st.dictionaries(st.integers(0, 4), st.integers(-3, 3), max_size=2),
)
def test_forward_substitution_matches_the_echelon_oracle(a, kernel, shears, flips, coeffs, noise):
    # bases as the library makes them, then possibly no longer reduced:
    # an earlier column gains f times a later unit column, which keeps
    # the leading rows and the lattice but shares the unit's row, and
    # flipped columns give -1 units. v = basis @ coeffs lies in the
    # lattice, and v plus noise mostly does not
    canonical = kernel_basis(a) if kernel else column_hnf(a)
    cols = [canonical.column(j) for j in range(canonical.ncols)]
    pairs = [
        (j, u)
        for u, col in enumerate(cols)
        if len(col) == 1 and set(col.values()) <= {1, -1}
        for j in range(u)
    ]
    for pick, f in shears:
        if pairs:
            j, u = pairs[pick % len(pairs)]
            _dict_addmul(cols[j], cols[u], f)
    for j in flips:
        if j < len(cols):
            _dict_scale(cols[j], -1)
    basis = SparseIntMatrix.from_columns(canonical.nrows, cols)
    solver, oracle = LatticeSolver(basis), OracleSolver(basis)
    inside: dict[int, int] = {}
    for j, c in enumerate(coeffs[: basis.ncols]):
        _dict_addmul(inside, basis.column(j), c)
    outside = dict(inside)
    _dict_addmul(outside, {i: v for i, v in noise.items() if i < basis.nrows}, 1)
    assert solver.solve(inside) == oracle.solve(inside)
    assert solver.solve(inside) == {j: c for j, c in enumerate(coeffs[: basis.ncols]) if c}
    assert solver.solve(outside) == oracle.solve(outside)


# -------------------------------------------------------------- lattices


def test_lattice_sum_worked_example():
    a = SparseIntMatrix.from_rows([[2], [0]])
    b = SparseIntMatrix.from_rows([[3], [0]])
    s = lattice_sum_basis(a, b)
    assert dense(s) == [[1], [0]]
    assert lattice_sum_basis(b, a) == s


def brute_force_lattice_points(basis: SparseIntMatrix, box: int) -> set[tuple[int, ...]]:
    pts = set()
    ranges = [range(-box, box + 1)] * basis.ncols
    for coeffs in itertools.product(*ranges):
        vec = [0] * basis.nrows
        for j, c in enumerate(coeffs):
            for i in range(basis.nrows):
                vec[i] += c * basis.entry(i, j)
        pts.add(tuple(vec))
    return pts


def test_lattice_ops_against_brute_force():
    a = SparseIntMatrix.from_rows([[2, 1], [0, 3]])
    b = SparseIntMatrix.from_rows([[4, 0], [0, 2]])
    pa = brute_force_lattice_points(a, 8)
    pb = brute_force_lattice_points(b, 8)
    solver = LatticeSolver(lattice_sum_basis(a, b))
    for p in itertools.islice(sorted(pa | pb), 0, 40):
        assert solver.solve(dict(enumerate(p))) is not None


@given(int_matrices(max_dim=3), int_matrices(max_dim=3))
def test_lattice_algebra_properties(a, b):
    if a.nrows != b.nrows:
        return
    s = lattice_sum_basis(a, b)
    if s.ncols:
        sum_solver = LatticeSolver(s)
        for m in (a, b):
            for j in range(m.ncols):
                assert sum_solver.solve(m.column(j)) is not None


# ------------------------------------------------------------------- HNF


@given(int_matrices())
def test_column_hnf_is_canonical_under_column_moves(a):
    h = column_hnf(a)
    cols = [a.column(j) for j in range(a.ncols)]
    cols.reverse()
    if len(cols) >= 2:
        merged = dict(cols[0])
        for k, v in cols[1].items():
            merged[k] = merged.get(k, 0) + 3 * v
        cols[0] = {k: v for k, v in merged.items() if v}
    shuffled = SparseIntMatrix.from_columns(a.nrows, cols)
    assert column_hnf(shuffled) == h


@given(int_matrices())
def test_column_hnf_spans_same_lattice(a):
    h = column_hnf(a)
    assert h.ncols == rank(a)
    if h.ncols == 0:
        return
    solver = LatticeSolver(h)
    for j in range(a.ncols):
        assert solver.solve(a.column(j)) is not None


@given(int_matrices(max_dim=6), st.data())
def test_peeled_column_hnf_matches_the_whole_matrix_oracle(a, data):
    # unit columns, duplicated and negated at will, and columns that live
    # on the unit rows alone (their residual is zero), mixed into a
    # random matrix in a random order
    units = data.draw(
        st.lists(st.tuples(st.integers(0, a.nrows - 1), st.sampled_from([1, -1])), max_size=6)
    )
    unit_rows = sorted({i for i, _ in units})
    shadows = []
    if unit_rows:
        shadows = data.draw(
            st.lists(st.dictionaries(st.sampled_from(unit_rows), small_entries), max_size=3)
        )
    cols = [a.column(j) for j in range(a.ncols)] + [{i: u} for i, u in units] + shadows
    order = data.draw(st.permutations(range(len(cols))))
    m = SparseIntMatrix.from_columns(a.nrows, [cols[k] for k in order])
    assert column_hnf(m) == oracle_column_hnf(m)


def quadratic_canonicalize(ech: _Echelon) -> list[tuple[int, dict[int, int]]]:
    """Reference Hermite back-substitution: for each pivot in ascending
    order, probe every earlier row for an entry in that column."""
    order = sorted(ech.rows)
    for j in order:
        if ech.rows[j][j] < 0:
            _dict_scale(ech.rows[j], -1)
    for idx, j in enumerate(order):
        row = ech.rows[j]
        p = row[j]
        for j2 in order[:idx]:
            other = ech.rows[j2]
            v = other.get(j)
            if v is not None:
                q = v // p
                if q:
                    _dict_addmul(other, row, -q)
    return [(j, ech.rows[j]) for j in order]


@given(int_matrices(max_dim=7))
def test_sparse_back_substitution_matches_quadratic_reference(a):
    # dense entries in -9..9 give non-unit pivots and fill-in; the Hermite
    # form is unique, so both reductions must give identical matrices
    hnf, ker = column_hnf(a), kernel_basis(a)
    with mock.patch.object(_Echelon, "canonicalize", quadratic_canonicalize):
        assert column_hnf(a) == hnf
        assert kernel_basis(a) == ker


def test_lattice_sum_basis_refuses_different_row_counts():
    a = SparseIntMatrix(2, 1)
    b = SparseIntMatrix(3, 1)
    with pytest.raises(ValueError, match="row counts differ"):
        lattice_sum_basis(a, b)
