"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction at the boundary; inside, one
fraction-free core does every elimination on integer rows: each row is
scaled by the lcm of its denominators, and Gauss-Jordan elimination divides
every update exactly by the previous pivot (Bareiss, Math. Comp. 1968).
Callers that build integer rows themselves enter through integer_echelon,
which hands the core each nonzero primitive row once: its outputs depend on
the row space alone, and zero rows and repeats do not change that.  It
returns the echelon form only; integer_kernel builds kernel vectors from it
per requested free column, so a caller that reads a rank, or a few kernel
vectors, pays for no others.  Dividing by the last pivot once at the end
gives the unique reduced row echelon form.  The pivot rule is deterministic (first nonzero column,
topmost row), so echelon forms, kernels and the canonical subspaces built
on them are reproducible.  No floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

QQ = Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _integer_row(row) -> list[int]:
    """row (ints or Fractions) times the lcm of its denominators."""
    dens = [x.denominator for x in row]
    den = lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(row, dens)]


def _eliminate(m, ncols: int) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows m (an
    iterable).

    Returns (echelon, pivots, pivot, sign): one integer row per pivot
    column, equal to the last Bareiss pivot `pivot` (1 if none) there and
    zero at the other pivot columns, and the sign of the row permutation.
    A row that is zero in the pivot column would only be scaled by pivot /
    previous pivot, so it is left as it is and level[i] holds the pivot it
    is scaled to.
    """
    a = [row for row in m if any(row)]
    nrows = len(a)
    level = [1] * nrows
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for p in range(r, nrows):
            if a[p][c]:
                break
        else:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            level[r], level[p] = level[p], level[r]
            sign = -sign
        prow = a[r]
        if level[r] != prev:
            prow = a[r] = [x * prev // level[r] for x in prow]
        pv = prow[c]
        for i in range(nrows):
            row = a[i]
            f = row[c]
            if f and i != r:
                a[i] = [(pv * x - f * y) // level[i] for x, y in zip(row, prow)]
                level[i] = pv
        level[r] = pv
        pivots.append(c)
        prev = pv
    echelon = [row if lv == prev else [x * prev // lv for x in row]
               for row, lv in zip(a, level[:len(pivots)])]
    return echelon, pivots, prev, sign


def _normalised(rows: list[list[int]], pivot: int, nrows: int = 0, ncols: int = 0) -> Matrix:
    """Integer rows over pivot as Fractions, then zero rows of width ncols
    up to nrows."""
    zero = QQ(0)
    out = [[QQ(x, pivot) if x else zero for x in row] for row in rows]
    out.extend([zero] * ncols for _ in range(nrows - len(rows)))
    return out


def free_columns(pivots: list[int], ncols: int) -> list[int]:
    """The columns among range(ncols) that are not pivots, in order."""
    pivot_set = set(pivots)
    return [c for c in range(ncols) if c not in pivot_set]


def _kernel_basis(rows: list[list[int]], pivots: list[int], pivot: int,
                  ncols: int, free) -> list[list[int]]:
    """right_kernel's basis vectors of the free columns `free`, times pivot:
    for each f, pivot at f and -row[f] at each pivot column of the echelon
    rows."""
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = pivot
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def _primitive(v: list[int]) -> list[int]:
    """v over the gcd of its entries (v itself if that is 0 or 1)."""
    c = gcd(*v)
    return [x // c for x in v] if c > 1 else v


def integer_echelon(m: list[list[int]], ncols: int) -> tuple[
        list[list[int]], list[int], int]:
    """Echelon form of integer rows, in integers.

    Returns (echelon, pivots, den): one echelon row per pivot column, the
    reduced row echelon form times its common denominator den > 0.
    Input rows are divided by their content (the gcd of their entries):
    rows that still carry a Bareiss pivot grow with every further
    elimination they are fed into.  Then zero rows and repeats are dropped,
    each primitive row kept once in order of first occurrence.  That cannot
    change the output: every part of it is determined by the row space,
    which those rows do not change.  The catalecticants and constraint
    matrices of torus-fixed points are mostly such rows.  Kernel vectors
    come from integer_kernel, for the free columns a caller reads.
    """
    distinct = {tuple(row): row for row in map(_primitive, filter(any, m))}
    rows, pivots, pivot, _ = _eliminate(distinct.values(), ncols)
    g = gcd(pivot, *[gcd(*row) for row in rows]) * (-1 if pivot < 0 else 1)
    if g != 1:
        rows = [[x // g for x in row] for row in rows]
    return rows, pivots, pivot // g


def integer_kernel(echelon: list[list[int]], pivots: list[int], den: int,
                   ncols: int, free) -> list[list[int]]:
    """right_kernel's basis vectors of the free columns `free` of
    integer_echelon's (echelon, pivots, den), each times the positive
    integer that makes its content 1."""
    return [_primitive(v) for v in _kernel_basis(echelon, pivots, den, ncols, free)]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (as a copy) with its pivot columns.

    Pivot selection is deterministic: first nonzero column, topmost
    available row.  Zero rows are retained at the bottom, so the result is
    the unique RREF of the input.
    """
    ncols = len(m[0]) if m else 0
    rows, pivots, pivot, _ = _eliminate(map(_integer_row, m), ncols)
    return _normalised(rows, pivot, len(m), ncols), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def right_kernel(m: Matrix, ncols: int | None = None) -> list[Vector]:
    """Canonical basis of {v : m v = 0}.

    One basis vector per free column f, with v[f] = 1 and pivot entries
    read off the RREF.  For an empty matrix ncols must be supplied.
    """
    if not m and ncols is None:
        raise ValueError("ncols required for an empty matrix")
    ncols = len(m[0]) if m else ncols
    rows, pivots, pivot, _ = _eliminate(map(_integer_row, m), ncols)
    return _normalised(_kernel_basis(rows, pivots, pivot, ncols, free_columns(pivots, ncols)),
                       pivot)


def det(m: Matrix) -> Fraction:
    """Exact determinant: the last Bareiss pivot of the row-scaled integer
    matrix, with the sign of the row swaps, over the row scales."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, pivot, sign = _eliminate(map(_integer_row, m), n)
    if len(pivots) < n:
        return QQ(0)
    return QQ(sign * pivot, prod(lcm(*[x.denominator for x in row]) for row in m))


def row_space_intersection(a_rows: Matrix, b_rows: Matrix, ncols: int) -> Matrix:
    """Canonical echelon basis of rowspace(a) ∩ rowspace(b): the a-parts
    sum c_i a_i of the kernel vectors of the stacked columns [a | b]."""
    if not a_rows or not b_rows:
        return []
    cols = list(zip(*map(_integer_row, (*a_rows, *b_rows))))
    width = len(a_rows) + len(b_rows)
    rows, pivots, pivot, _ = _eliminate(cols, width)
    combos = _kernel_basis(rows, pivots, pivot, width, free_columns(pivots, width))
    vectors = [[sum(c * x for c, x in zip(combo[:len(a_rows)], col)) for col in cols]
               for combo in combos]
    rows, _, pivot, _ = _eliminate(vectors, ncols)
    return _normalised(rows, pivot)
