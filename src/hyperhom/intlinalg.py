"""Exact linear algebra over the integers.

Sparse matrices with arbitrary-precision entries, Smith normal form with
unimodular transforms, Hermite-canonical column lattices, saturated
kernels, and lattice sums. No floating point and no
machine-word arithmetic anywhere: entry growth during elimination is
expected and must stay exact.

The lattice operations all reduce to one engine, ``_Echelon``: an
integer row-echelon store fed with the columns of a matrix. Canonical
(column-style Hermite) bases make lattice equality a plain matrix
equality, which the rest of the package leans on for determinism.
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


def is_prime(n: int) -> bool:
    """Trial-division primality test; moduli here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
        m = cls(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                if not 0 <= i < nrows:
                    raise ValueError(f"row index {i} outside 0..{nrows - 1}")
                if v:
                    m._cols[j][i] = v
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
        prod = SparseIntMatrix(self.nrows, other.ncols)
        for j in range(other.ncols):
            prod._cols[j] = self.apply_to_column(other._cols[j])
        return prod

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


def hstack(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    """Concatenate columns; both matrices must have the same row count."""
    if a.nrows != b.nrows:
        raise ValueError("row counts differ")
    return SparseIntMatrix.from_columns(a.nrows, list(a._cols) + list(b._cols))


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

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Reduce vec against the store without inserting.

        Returns the residue; an empty residue means vec lies in the
        span. A nonzero residue is returned as soon as reduction blocks
        (missing pivot or non-divisible leading entry), which for an
        echelon basis decides membership exactly.
        """
        while vec:
            j = min(vec)
            row = self.rows.get(j)
            if row is None or vec[j] % row[j]:
                return vec
            _dict_addmul(vec, row, -(vec[j] // row[j]))
        return vec

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
    """
    ech = _Echelon()
    for j in range(a.ncols):
        ech.insert(dict(a._cols[j]))
    return SparseIntMatrix.from_columns(a.nrows, [row for _, row in ech.canonicalize()])


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
    cols = []
    for pivot, row in ech.canonicalize():
        if pivot >= m:
            cols.append({j - m: v for j, v in row.items()})
    return SparseIntMatrix.from_columns(n, cols)


class LatticeSolver:
    """Prepared form of a fixed independent basis for repeated solves.

    Answers "express v as an integer combination of the basis columns"
    without re-echelonizing per query.
    """

    __slots__ = ("nrows", "_ech")

    def __init__(self, basis: SparseIntMatrix) -> None:
        self.nrows = basis.nrows
        self._ech = _Echelon()
        for j in range(basis.ncols):
            vec = dict(basis._cols[j])
            vec[basis.nrows + j] = 1
            self._ech.insert(vec)
        mains = sum(1 for p in self._ech.rows if p < basis.nrows)
        if mains != basis.ncols:
            raise ValueError("basis columns are linearly dependent")

    def solve(self, v: Mapping[int, int] | Sequence[int]) -> dict[int, int] | None:
        """The nonzero coefficients c_j with basis @ c = v, as a dict, or
        None if v is outside the lattice."""
        residue = self._ech.reduce(self._to_dict(v))
        if any(j < self.nrows for j in residue):
            return None
        return {j - self.nrows: -val for j, val in residue.items()}

    def contains(self, v: Mapping[int, int] | Sequence[int]) -> bool:
        return self.solve(v) is not None

    def _to_dict(self, v: Mapping[int, int] | Sequence[int]) -> dict[int, int]:
        if isinstance(v, Mapping):
            for i in v:
                if not 0 <= i < self.nrows:
                    raise ValueError(f"coordinate {i} outside 0..{self.nrows - 1}")
            return {i: val for i, val in v.items() if val}
        if len(v) != self.nrows:
            raise ValueError("vector length does not match basis row count")
        return {i: val for i, val in enumerate(v) if val}


def lattice_sum_basis(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    """Canonical basis of (column lattice of a) + (column lattice of b)."""
    if a.nrows != b.nrows:
        raise ValueError("row counts differ")
    return column_hnf(hstack(a, b))


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
    right = SparseIntMatrix.from_columns(n, [rt[old_j] for old_j in col_order])
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
