"""Exact linear algebra over the rationals.

Matrices are plain lists of rows of Fraction.  Every reduction uses the
same deterministic pivot rule (first nonzero column, topmost row), so
echelon forms, kernels and the canonical subspace representatives built on
top of them are reproducible across runs and platforms.  No floating point
enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction

QQ = Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def mat(rows) -> Matrix:
    """Build a matrix of Fractions from nested iterables of numbers."""
    return [[QQ(x) for x in row] for row in rows]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[QQ(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    return [[QQ(1) if i == j else QQ(0) for j in range(n)] for i in range(n)]


def transpose(m: Matrix, ncols: int | None = None) -> Matrix:
    if not m:
        return [[] for _ in range(ncols)] if ncols else []
    return [list(col) for col in zip(*m)]


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (as a copy) with its pivot columns.

    Pivot selection is deterministic: first nonzero column, topmost
    available row.  Zero rows are retained at the bottom, so the result is
    the unique RREF of the input.
    """
    a = [[QQ(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pv = a[r][c]
        a[r] = [v / pv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def right_kernel(m: Matrix, ncols: int | None = None) -> list[Vector]:
    """Canonical basis of {v : m v = 0}.

    One basis vector per free column f, with v[f] = 1 and pivot entries
    read off the RREF.  For an empty matrix ncols must be supplied.
    """
    if not m:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [row[:] for row in identity(ncols)]
    r, pivots = rref(m)
    return _kernel_basis(r, pivots, len(m[0]))


def _kernel_basis(r: Matrix, pivots: list[int], ncols: int) -> list[Vector]:
    """right_kernel's basis, read off an RREF with its pivots."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [QQ(0)] * ncols
        v[f] = QQ(1)
        for k, c in enumerate(pivots):
            v[c] = -r[k][f]
        basis.append(v)
    return basis


def echelon(m: Matrix) -> tuple[Matrix, int, list[Vector]]:
    """(RREF, rank, right-kernel basis); rank + len(kernel) == ncols."""
    r, pivots = rref(m)
    return r, len(pivots), _kernel_basis(r, pivots, len(m[0]) if m else 0)


def det(m: Matrix) -> Fraction:
    """Exact determinant by Gaussian elimination with row swaps."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [[QQ(x) for x in row] for row in m]
    sign = 1
    result = QQ(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return QQ(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        pv = a[c][c]
        result *= pv
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result * sign


def row_space_intersection(a_rows: Matrix, b_rows: Matrix, ncols: int) -> Matrix:
    """Canonical echelon basis of rowspace(a) ∩ rowspace(b)."""
    if not a_rows or not b_rows:
        return []
    na, nb = len(a_rows), len(b_rows)
    stacked = [
        [a_rows[i][j] for i in range(na)] + [-b_rows[i][j] for i in range(nb)]
        for j in range(ncols)
    ]
    combos = right_kernel(stacked, ncols=na + nb)
    vectors = []
    for combo in combos:
        w = [QQ(0)] * ncols
        for i in range(na):
            if combo[i] != 0:
                w = [x + combo[i] * y for x, y in zip(w, a_rows[i])]
        vectors.append(w)
    reduced, pivots = rref(vectors)
    return [reduced[k] for k in range(len(pivots))]
