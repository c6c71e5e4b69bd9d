"""Exact linear algebra over the integers.

Sparse matrices with arbitrary-precision entries, Smith normal form with
unimodular transforms, Hermite-canonical column lattices, saturated
kernels, and lattice sums. No floating point and no
machine-word arithmetic anywhere: entry growth during elimination is
expected and must stay exact.

The lattice bases all come from one engine, ``_Echelon``: an integer
row-echelon store fed with the columns of a matrix. Canonical
(column-style Hermite) bases make lattice equality a plain matrix
equality, which the package leans on for determinism; :class:`LatticeSolver`
solves against them by forward substitution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# Miller-Rabin with the first 13 primes as bases decides every n below
# this bound (Sorenson & Webster, Math. Comp. 86 (2017)); the first 12,
# up to 37, stop at 318 665 857 834 031 151 167 461, a strong pseudoprime
# to all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n below about 3.3e24;
    a larger n raises ValueError rather than risk a wrong answer."""
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality of {n} is not decided below {_PRIME_LIMIT}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    # n - 1 = odd * 2^s; n is a strong probable prime to base a when
    # a^odd = 1 or one of its s squarings hits -1
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _dict_addmul(dst: dict[int, int], src: Mapping[int, int], f: int) -> None:
    """dst += f * src, dropping entries that cancel to zero."""
    if f == 0:
        return
    for k, v in src.items():
        w = dst.get(k, 0) + f * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def _dict_scale(d: dict[int, int], f: int) -> None:
    for k in d:
        d[k] *= f


def _combine(
    u: Mapping[int, int], v: Mapping[int, int], x: int, y: int, z: int, w: int
) -> tuple[dict[int, int], dict[int, int]]:
    """The 2x2 move (u, v) -> (x*u + y*v, z*u + w*v) on sparse lines."""
    s: dict[int, int] = {}
    _dict_addmul(s, u, x)
    _dict_addmul(s, v, y)
    t: dict[int, int] = {}
    _dict_addmul(t, u, z)
    _dict_addmul(t, v, w)
    return s, t


class SparseIntMatrix:
    """Immutable sparse integer matrix with explicit row and column counts.

    Stored column-major; zero entries are absent. Treat instances as
    values: all operations return new matrices.
    """

    __slots__ = ("nrows", "ncols", "_cols")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        entries: Mapping[tuple[int, int], int] | None = None,
    ) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be non-negative")
        self.nrows = nrows
        self.ncols = ncols
        cols: list[dict[int, int]] = [{} for _ in range(ncols)]
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry ({i}, {j}) outside {nrows}x{ncols}")
                if v:
                    cols[j][i] = v
        self._cols = cols

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ncols: int | None = None) -> "SparseIntMatrix":
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        m = cls(len(rows), ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    m._cols[j][i] = v
        return m

    @classmethod
    def from_columns(cls, nrows: int, columns: Sequence[Mapping[int, int]]) -> "SparseIntMatrix":
        """A matrix from sparse columns, for callers outside the library:
        each column is copied, its zero entries are dropped, and every
        row index is checked to lie in 0..nrows-1."""
        m = cls(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                if not 0 <= i < nrows:
                    raise ValueError(f"row index {i} outside 0..{nrows - 1}")
                if v:
                    m._cols[j][i] = v
        return m

    @classmethod
    def _adopt(cls, nrows: int, cols: list[dict[int, int]]) -> "SparseIntMatrix":
        """A matrix that takes the library's own columns as they are: in
        range, without zero entries, and never changed afterwards, so
        matrices may share them. Nothing is copied or checked."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._cols = nrows, len(cols), cols
        return m

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        m = cls(n, n)
        for i in range(n):
            m._cols[i][i] = 1
        return m

    def entry(self, i: int, j: int) -> int:
        return self._cols[j].get(i, 0)

    def column(self, j: int) -> dict[int, int]:
        return dict(self._cols[j])

    def iter_entries(self) -> Iterator[tuple[int, int, int]]:
        for j in range(self.ncols):
            for i in sorted(self._cols[j]):
                yield i, j, self._cols[j][i]

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self._cols)

    def is_zero(self) -> bool:
        return all(not c for c in self._cols)

    def to_rows(self) -> list[list[int]]:
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self._cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def apply_to_column(self, col: Mapping[int, int]) -> dict[int, int]:
        """Matrix times a sparse column vector (dict of coordinate -> value)."""
        out: dict[int, int] = {}
        for j, v in col.items():
            if not 0 <= j < self.ncols:
                raise ValueError(f"column index {j} outside 0..{self.ncols - 1}")
            _dict_addmul(out, self._cols[j], v)
        return out

    def __matmul__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        return SparseIntMatrix._adopt(
            self.nrows, [self.apply_to_column(c) for c in other._cols]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._cols == other._cols
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class _Echelon:
    """Integer row-echelon store: at most one row per pivot column.

    Rows are sparse dicts whose smallest key is their pivot column. The
    span of the stored rows always equals the span of everything ever
    inserted; inserting is a sequence of unimodular two-row moves, so
    feeding in matrix columns turns this into a column-lattice engine.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}

    def insert(self, vec: dict[int, int]) -> None:
        """Insert a vector (consumed) into the lattice."""
        while vec:
            j = min(vec)
            row = self.rows.get(j)
            if row is None:
                self.rows[j] = vec
                return
            a, b = row[j], vec[j]
            if b % a == 0:
                _dict_addmul(vec, row, -(b // a))
            else:
                g, x, y = xgcd(a, b)
                self.rows[j], vec = _combine(row, vec, x, y, -(b // g), a // g)

    def canonicalize(self) -> list[tuple[int, dict[int, int]]]:
        """Hermite-canonical form: positive pivots, entries above each
        pivot reduced into [0, pivot). Returns (pivot, row) sorted by pivot.

        Rows are finished in descending pivot order, so every row used
        for a reduction is already final. A row is reduced only at the
        pivot columns it holds, smallest first: subtracting a final row
        touches columns at and after its pivot, so it never undoes an
        earlier reduction, and any pivot column it fills in is queued.
        """
        rows = self.rows
        order = sorted(rows)
        for j in order:
            if rows[j][j] < 0:
                _dict_scale(rows[j], -1)
        for j in reversed(order):
            row = rows[j]
            todo = [c for c in row if c > j and c in rows]
            heapq.heapify(todo)
            last = j
            while todo:
                c = heapq.heappop(todo)
                v = row.get(c)
                if c == last or v is None:
                    continue
                last = c
                below = rows[c]
                q = v // below[c]
                if q:
                    for k in below:
                        if k > c and k in rows and k not in row:
                            heapq.heappush(todo, k)
                    _dict_addmul(row, below, -q)
        return [(j, rows[j]) for j in order]


def rank(a: SparseIntMatrix) -> int:
    """Rank over the rationals (= rank over the integers)."""
    ech = _Echelon()
    for j in range(a.ncols):
        ech.insert(dict(a._cols[j]))
    return len(ech.rows)


def column_hnf(a: SparseIntMatrix) -> SparseIntMatrix:
    """Canonical basis of the column lattice of ``a``.

    Columns of the result are the Hermite-canonical basis ordered by
    pivot row; two matrices span the same column lattice iff their
    canonical forms are equal.

    Unit columns, exactly {i: +-1}, are peeled off first. They span
    Z^I on their rows I, so the lattice is Z^I plus the other columns
    with the rows I dropped, and only that residual is echelonized. No
    residual basis column has an entry on a row in I, and e_i has one
    entry, on its pivot, so the two merged by pivot row are the
    canonical basis of the whole lattice.
    """
    units = {
        i for c in a._cols if len(c) == 1 for i, v in c.items() if v in (1, -1)
    }
    ech = _Echelon()
    for c in a._cols:
        rest = {i: v for i, v in c.items() if i not in units}
        if rest:
            ech.insert(rest)
    pivots = dict(ech.canonicalize())
    pivots.update((i, {i: 1}) for i in units)
    return SparseIntMatrix._adopt(a.nrows, [pivots[i] for i in sorted(pivots)])


def kernel_basis(a: SparseIntMatrix) -> SparseIntMatrix:
    """Canonical basis (columns) of the integer kernel {x : a @ x = 0}.

    The kernel of an integer matrix is automatically saturated: if k*x
    lies in it for k != 0 then so does x. Computed by echelonizing the
    columns augmented with identity tails; rows whose pivot falls in the
    tail block record integer relations among the columns.
    """
    m, n = a.nrows, a.ncols
    ech = _Echelon()
    for j in range(n):
        vec = dict(a._cols[j])
        vec[m + j] = 1
        ech.insert(vec)
    # only the tail rows are returned, and finishing them needs no other
    # row: a tail row has no entry before its pivot, so none below m
    ech.rows = {pivot: row for pivot, row in ech.rows.items() if pivot >= m}
    cols = [{j - m: v for j, v in row.items()} for _, row in ech.canonicalize()]
    return SparseIntMatrix._adopt(n, cols)


class LatticeSolver:
    """Repeated solves against a fixed basis in echelon form.

    The leading row of a column is its smallest nonzero row. The basis
    columns must have distinct leading rows, as every :func:`column_hnf`
    and :func:`kernel_basis` result has; such columns are independent,
    and a solve is a forward substitution on the leading rows.

    Row i is a private unit row when one column is exactly {i: +-1} and
    no other column has an entry in row i. Its coefficient in a solve is
    read straight off the vector. Every unit pivot of a canonical basis
    is private, but the check is made, so any echelon basis stays exact.
    """

    __slots__ = ("nrows", "_lead")

    def __init__(self, basis: SparseIntMatrix) -> None:
        self.nrows = basis.nrows
        # leading row -> (column index, column, unit): unit is the +-1 of
        # a private unit row and 0 on every other row
        lead: dict[int, tuple[int, dict[int, int], int]] = {}
        units: list[int] = []  # rows of the unit columns
        touched: set[int] = set()  # rows of the other columns
        for j, col in enumerate(basis._cols):
            if not col:
                raise ValueError(f"basis column {j} is zero")
            i = min(col)
            if i in lead:
                raise ValueError(f"basis columns {lead[i][0]} and {j} share leading row {i}")
            if len(col) == 1 and col[i] in (1, -1):
                lead[i] = (j, col, col[i])
                units.append(i)
            else:
                lead[i] = (j, col, 0)
                touched.update(col)
        for i in touched.intersection(units):
            j, col, _ = lead[i]
            lead[i] = (j, col, 0)
        self._lead = lead

    def solve(self, v: Mapping[int, int]) -> dict[int, int] | None:
        """The nonzero coefficients c_j with basis @ c = v, as a dict, or
        None if v is outside the lattice. A private unit row gives its
        coefficient at once, and no other column touches that row; on the
        rest, each step divides the smallest entry left in v by the column
        that leads there, and subtracts."""
        nrows, lead = self.nrows, self._lead
        vec = {}
        out = {}
        for i, val in v.items():
            if not 0 <= i < nrows:
                raise ValueError(f"coordinate {i} outside 0..{nrows - 1}")
            if val:
                hit = lead.get(i)
                if hit is not None and hit[2]:
                    out[hit[0]] = val * hit[2]
                else:
                    vec[i] = val
        while vec:
            i = min(vec)
            hit = lead.get(i)
            if hit is None:
                return None
            j, col, _ = hit
            q, r = divmod(vec[i], col[i])
            if r:
                return None
            out[j] = q
            _dict_addmul(vec, col, -q)
        return out


def lattice_sum_basis(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    """Canonical basis of (column lattice of a) + (column lattice of b)."""
    if a.nrows != b.nrows:
        raise ValueError("row counts differ")
    return column_hnf(SparseIntMatrix._adopt(a.nrows, a._cols + b._cols))


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form: left @ a @ right = diag(d), transforms unimodular.

    d is the ascending divisibility chain of positive invariant factors;
    rank = len(d).
    """

    d: tuple[int, ...]
    left: SparseIntMatrix
    right: SparseIntMatrix
    rank: int


def smith_normal_form(a: SparseIntMatrix, pivot_order: str = "markowitz") -> SNFResult:
    """Smith normal form with unimodular transforms.

    Elimination is one pass over the rows in an order fixed before it
    starts; each row still nonempty on its turn gives one pivot.
    pivot_order picks that order: "ordered" visits the rows top down and
    pivots on the leftmost entry; "markowitz" visits them by their
    starting length (a stable sort) and pivots on the row's entry in the
    sparsest column, ties broken by least magnitude, then by column
    index. The resulting d must not depend on it, which the test suite
    exercises.
    """
    d, left, right = _smith(a, want_transforms=True, pivot_order=pivot_order)
    assert left is not None and right is not None
    return SNFResult(d=d, left=left, right=right, rank=len(d))


def invariant_factors(a: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors of ``a`` (Smith diagonal without the transforms)."""
    d, _, _ = _smith(a, want_transforms=False, pivot_order="markowitz")
    return d


def chain_invariant_factors(d: Sequence[SparseIntMatrix]) -> list[tuple[int, ...]]:
    """Invariant factors of every boundary of a chain complex: entry n
    equals ``invariant_factors(d[n])``.

    ``d[n]`` maps the degree-n cells (its columns) to the degree n-1
    cells (its rows), and every d[n-1] @ d[n] must vanish; the caller
    checks that. Unit pairs are eliminated first, over all degrees
    together (Kaczynski, Mrozek & Slusarek, Comput. Math. Appl. 35
    (1998)). An entry u = d[n][a, b] = +-1 pairs cell a of degree n-1
    with cell b of degree n. In the bases where d[n](b) replaces a and
    j - u d[n][a, j] b replaces every other degree-n cell j, d[n] splits
    into the 1x1 block u and the Schur complement on its other rows and
    columns, so the pair leaves one factor 1. Column a of d[n-1] becomes
    d[n-1] d[n] b = 0. Row b of d[n+1] is, by row a of d[n] d[n+1] = 0,
    -u times the sum over j != b of d[n][a, j] times row j: an integer
    combination of the other rows, so dropping it leaves their lattice
    and the factors of d[n+1] as they were. Each step takes the row with
    the fewest entries that holds a unit, and in it the unit whose
    column has the fewest entries, which bounds the fill-in. What is
    left once no unit remains goes to :func:`invariant_factors`.
    """
    # rows[n][i] and cols[n][j]: row i and column j of d[n] as sparse dicts
    cols = [[dict(c) for c in m._cols] for m in d]
    rows: list[list[dict[int, int]]] = []
    for m, cs in zip(d, cols):
        rs: list[dict[int, int]] = [{} for _ in range(m.nrows)]
        for j, c in enumerate(cs):
            for i, v in c.items():
                rs[i][j] = v
        rows.append(rs)
    units = (1, -1)
    # queue[k] holds (degree, row) for rows of k entries. A row is queued
    # again whenever an update changes it, so an entry for a row that has
    # grown since is stale; one that has shrunk without an update (a
    # column dropped) is taken as it is.
    queue: list[list[tuple[int, int]]] = [[]]

    def enqueue(n: int, i: int, k: int) -> None:
        while k >= len(queue):
            queue.append([])
        queue[k].append((n, i))

    for n, rs in enumerate(rows):
        for i, r in enumerate(rs):
            if r:
                enqueue(n, i, len(r))
    pairs = [0] * len(d)
    k = 1
    while True:
        while k < len(queue) and not queue[k]:
            k += 1
        if k == len(queue):
            break
        n, a = queue[k].pop()
        rs, cs = rows[n], cols[n]
        row_a = rs[a]
        if not row_a or len(row_a) > k:
            continue
        if len(row_a) == 1:
            ((b, v),) = row_a.items()
            if v not in units:
                continue
        else:
            b = min(
                (j for j, v in row_a.items() if v in units),
                key=lambda j: (len(cs[j]), j),
                default=None,
            )
            if b is None:
                continue
        # take row a and column b out of d[n]
        col_b = cs[b]
        u = row_a.pop(b)
        del col_b[a]
        for j in row_a:
            del cs[j][a]
        for i in col_b:
            del rs[i][b]
        rs[a], cs[b] = {}, {}
        # Schur update: row i -= (d[i, b] / u) * row a, and 1 / u = u
        for i, v in col_b.items():
            f = -v * u
            row_i = rs[i]
            for j, w in row_a.items():
                x = row_i.get(j, 0) + f * w
                if x:
                    row_i[j] = cs[j][i] = x
                else:
                    del row_i[j], cs[j][i]
            if row_i:
                enqueue(n, i, len(row_i))
                k = min(k, len(row_i))
        # cell b leaves degree n: its row in d[n+1]
        if n + 1 < len(d):
            above_rows, above_cols = rows[n + 1], cols[n + 1]
            for j in above_rows[b]:
                del above_cols[j][b]
            above_rows[b] = {}
        # cell a leaves degree n-1: its column in d[n-1]
        if n:
            below_rows, below_cols = rows[n - 1], cols[n - 1]
            for i in below_cols[a]:
                del below_rows[i][a]
            below_cols[a] = {}
        pairs[n] += 1
    out = []
    for n, cs in enumerate(cols):
        live = [c for c in cs if c]
        residual: tuple[int, ...] = ()
        if live:
            index = {i: r for r, i in enumerate(sorted({i for c in live for i in c}))}
            residual = invariant_factors(
                SparseIntMatrix._adopt(
                    len(index), [{index[i]: v for i, v in c.items()} for c in live]
                )
            )
        out.append((1,) * pairs[n] + residual)
    return out


def _smith(
    a: SparseIntMatrix, want_transforms: bool, pivot_order: str
) -> tuple[tuple[int, ...], SparseIntMatrix | None, SparseIntMatrix | None]:
    if pivot_order not in ("markowitz", "ordered"):
        raise ValueError(f"unknown pivot order: {pivot_order!r}")
    m, n = a.nrows, a.ncols
    rows: list[dict[int, int]] = [{} for _ in range(m)]
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    for j in range(n):
        for i, v in a._cols[j].items():
            rows[i][j] = v
            cols[j][i] = v
    lt: list[dict[int, int]] | None = None
    rt: list[dict[int, int]] | None = None
    if want_transforms:
        lt = [{i: 1} for i in range(m)]  # row dicts of the cumulative left transform
        rt = [{j: 1} for j in range(n)]  # column dicts of the cumulative right transform

    # Each move acts on lines of one store, keeps the other store's mirror
    # entries in step and carries the transform on that side: row moves are
    # called as (rows, cols, lt), column moves as (cols, rows, rt).

    def addmul(lines, mirror, t, dst: int, src: int, f: int) -> None:
        # line dst += f * line src
        if not f:
            return
        line = lines[dst]
        for k, v in lines[src].items():
            w = line.get(k, 0) + f * v
            if w:
                line[k] = w
                mirror[k][dst] = w
            else:
                del line[k]
                del mirror[k][dst]
        if t is not None:
            _dict_addmul(t[dst], t[src], f)

    def pair(lines, mirror, t, k1: int, k2: int, x: int, y: int, z: int, w: int) -> None:
        # (line k1, line k2) <- (x*l1 + y*l2, z*l1 + w*l2); det must be +-1
        for k in (k1, k2):
            for l in lines[k]:
                del mirror[l][k]
        lines[k1], lines[k2] = _combine(lines[k1], lines[k2], x, y, z, w)
        for k in (k1, k2):
            for l, v in lines[k].items():
                mirror[l][k] = v
        if t is not None:
            t[k1], t[k2] = _combine(t[k1], t[k2], x, y, z, w)

    # Every move combines nonempty lines, so an empty row stays empty, and
    # a pivot's row is empty once the pivot is taken: one pass finds them all.
    order = range(m)
    if pivot_order == "markowitz":
        order = sorted(order, key=lambda i: len(rows[i]))
    pivots: list[tuple[int, int, int]] = []
    for i in order:
        row = rows[i]
        if not row:
            continue
        if pivot_order == "ordered":
            j = min(row)
        else:
            j = min(row, key=lambda l: (len(cols[l]), abs(row[l]), l))
        # clear the pivot's column with row moves, then its row with column
        # moves; a non-divisible entry takes a gcd pair move and restarts.
        # Then a pivot other than +-1 that fails to divide a remaining entry
        # takes in that entry's row, so the next pass shrinks it: each pivot
        # divides all later ones.
        passes = ((rows, cols, lt, i, j), (cols, rows, rt, j, i))
        while True:
            p = rows[i][j]
            for lines, mirror, t, k0, l0 in passes:
                cross = mirror[l0]
                bad = min((k for k, v in cross.items() if k != k0 and v % p), default=None)
                if bad is not None:
                    b = cross[bad]
                    g, x, y = xgcd(p, b)
                    pair(lines, mirror, t, k0, bad, x, y, -(b // g), p // g)
                    break
                for k, v in [(k, v) for k, v in cross.items() if k != k0]:
                    addmul(lines, mirror, t, k, k0, -(v // p))
            else:
                if p in (1, -1):
                    break
                bad = next((k for k, r in enumerate(rows) if any(v % p for v in r.values())), None)
                if bad is None:
                    break
                addmul(rows, cols, lt, i, bad, 1)
        v = rows[i].pop(j)
        cols[j].pop(i)
        if v < 0:
            v = -v
            if lt is not None:
                _dict_scale(lt[i], -1)
        pivots.append((i, j, v))

    d = tuple(v for _, _, v in pivots)
    if not want_transforms:
        return d, None, None

    assert lt is not None and rt is not None
    pivot_rows = [i for i, _, _ in pivots]
    pivot_cols = [j for _, j, _ in pivots]
    row_order = pivot_rows + sorted(set(range(m)) - set(pivot_rows))
    col_order = pivot_cols + sorted(set(range(n)) - set(pivot_cols))
    left = SparseIntMatrix(m, m)
    for new_i, old_i in enumerate(row_order):
        for jj, v in lt[old_i].items():
            left._cols[jj][new_i] = v
    right = SparseIntMatrix._adopt(n, [rt[old_j] for old_j in col_order])
    return d, left, right


def determinant(a: SparseIntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if a.nrows != a.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = a.nrows
    if n == 0:
        return 1
    mat = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def rank_mod_p(a: SparseIntMatrix, p: int) -> int:
    """Rank of ``a`` over the field Z/p (p prime), by sparse elimination.

    Pivot rows are kept monic and keyed by their pivot, their largest
    index; each column of ``a``, reduced mod p, is cleared against them
    in turn and becomes a new pivot row if anything is left. Pivoting on
    the largest index keeps fill-in low on boundary matrices, as in
    persistent homology's column reduction.
    """
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    pivots: dict[int, dict[int, int]] = {}
    for col in a._cols:
        vec = {i: v % p for i, v in col.items() if v % p}
        while vec:
            i = max(vec)
            row = pivots.get(i)
            if row is None:
                inv = pow(vec[i], -1, p)
                pivots[i] = {k: v * inv % p for k, v in vec.items()}
                break
            f = vec[i]
            for k, v in row.items():
                w = (vec.get(k, 0) - f * v) % p
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)
    return len(pivots)
