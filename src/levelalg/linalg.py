"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction at the boundary; inside, one
elimination loop (_sparse_echelon) does every rank, echelon form and kernel
on sparse integer rows ({column: nonzero entry} dicts).  It reduces each
incoming row against the pivot row of its lead (least) column and divides
the result by its content: the primitive-part rule of Collins (J. ACM 14,
1967) in place of the Bareiss division (Math. Comp. 22, 1968).  The pivot
row of the k-th lead (from 0) is then the primitive vector on the line
that some m <= k + 1 input rows and m - 1 zero columns cut out, so it
divides a vector of m-minors of the input (Cramer): it stays within
Hadamard's bound on the k-th Bareiss row, a vector of (k + 1)-minors, and
where the input is wide it stays far narrower.  A
back-reduction clears each pivot row at the other pivot columns, which
gives the reduced row echelon form row by row over its content.  The pivot
rule is deterministic (first nonzero column) and every output is a function
of the row space alone, so echelon forms, kernels and the canonical
subspaces built on them are reproducible.

The readers: sparse_rank counts the pivots of the forward pass alone;
sparse_kernel reads the primitive kernel vectors, one per free column, off
the back-reduced rows, and echelon_kernel reads them with the columns
reversed, which makes them the reduced echelon basis; integer_echelon
writes the reduced echelon form times its least common denominator.  The
Fraction front ends (rref, rank, right_kernel) scale each row by the lcm of
its denominators and enter through integer_echelon and sparse_kernel.
Dense integer rows enter through _sparse_rows, which drops zero rows and
repeats: the row space, hence every output, does not change.  Its callers
are integer_echelon (so rref, rank and forms.Subspace.from_rows),
right_kernel and forms.subspace_intersect.  The rows of apolarity's
derivative chain, socle and apolar pass and of the tangent route are sparse
from the start and go to the core, or to sparse_rank and sparse_kernel, as
they are; the chain and the socle hold theirs in reversed columns, and the
chain reads its kernels straight off _kernel.  Determinants keep a dense
forward loop of their own (_integer_det): their matrices are small and
square, and a shared loop took about 1.6x as long on them.  No
floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

QQ = Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _integer_row(row) -> list[int]:
    """row (ints or Fractions) times the lcm of its denominators; a row of
    ints is copied as it is."""
    if {int}.issuperset(map(type, row)):
        return list(row)
    dens = [x.denominator for x in row]
    den = lcm(*dens)
    return [x.numerator * (den // d) for x, d in zip(row, dens)]


def _sparse_rows(m) -> list[dict[int, int]]:
    """The integer rows m (an iterable) as {column: nonzero entry} rows, each
    distinct nonzero row once, in order of first occurrence."""
    return [{c: x for c, x in enumerate(row) if x} for row in dict.fromkeys(map(tuple, m))
            if any(row)]


def _sparse_primitive(row: dict) -> dict:
    """The sparse row over the gcd of its entries (row itself if that is 0
    or 1)."""
    g = gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g > 1 else row


def _sparse_combine(pivot: dict, row: dict, c: int) -> dict:
    """a row - b pivot over its content, with a / b = pivot[c] / row[c] in
    lowest terms: row with its entry at c cleared, as a primitive row."""
    g = gcd(pivot[c], row[c])
    a, b = pivot[c] // g, row[c] // g
    out = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
    for k, y in pivot.items():
        x = out.get(k, 0) - b * y
        if x:
            out[k] = x
        else:
            del out[k]
    return _sparse_primitive(out)


def _sparse_echelon(rows, back: bool) -> dict[int, dict[int, int]]:
    """Echelon form of the sparse integer rows ({column: nonzero entry}, an
    iterable) as primitive rows keyed by their lead (least) column: the
    library's one elimination loop, apart from determinants.

    Each incoming row is reduced against the pivot row whose column is its
    lead, then divided by its content, until its lead is no pivot column
    (it becomes a pivot row) or it vanishes.  With back, each pivot row is
    then cleared at the later pivot columns, from the last one up, so that
    it is zero at every other pivot column: up to sign, the rows are the
    reduced row echelon form's over their contents.  Input rows are not
    changed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _sparse_primitive(row)
                break
            row = _sparse_combine(pivot, row, lead)
    if back:
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for k in [k for k in row if k != c and k in pivots]:
                row = _sparse_combine(pivots[k], row, k)
            pivots[c] = row
    return pivots


def _kernel(pivots: dict[int, dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """The right kernel of the back-reduced pivot rows of _sparse_echelon
    over range(ncols), as sparse vectors in column order, one per free
    column f in order: L at f and -row[f] L / row[c] at the pivot column c
    of each row nonzero at f, L the lcm of those row[c], over its content
    (a unit vector if no row is nonzero at f); its last column is f.  Up to
    the positive scale that makes it primitive, it is the Fraction kernel
    vector that is 1 at f and 0 at the other free columns."""
    at_free: dict[int, list] = {}
    for c in sorted(pivots):
        row = pivots[c]
        for f, x in row.items():
            if f != c:
                at_free.setdefault(f, []).append((c, x, row[c]))
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        entries = at_free.get(f)
        if entries is None:
            kernel.append({f: 1})
            continue
        scale = lcm(*[lead for _, _, lead in entries])
        v = {c: -x * (scale // lead) for c, x, lead in entries}
        v[f] = scale
        kernel.append(_sparse_primitive(v))
    return kernel


def sparse_rank(rows) -> int:
    """Rank of the sparse integer rows ({column: nonzero entry}, an
    iterable), by the forward pass of _sparse_echelon alone."""
    return len(_sparse_echelon(rows, False))


def sparse_kernel(rows, ncols: int) -> list[dict[int, int]]:
    """_kernel's basis of the right kernel of the sparse integer rows
    ({column: nonzero entry}, an iterable) over range(ncols)."""
    return _kernel(_sparse_echelon(rows, True), ncols)


def echelon_kernel(rows, ncols: int) -> list[list[int]]:
    """The reduced echelon basis of the right kernel of the sparse integer
    rows ({column: nonzero entry}, an iterable) over range(ncols), as dense
    rows, each primitive with a positive entry at its lead: _kernel of the
    rows with the columns reversed, read back in the original columns in
    reverse order.  The vector of a free column f of the reversed rows is
    zero right of f and at the other free columns, so read back each vector
    starts at its own column, where the others are zero, and they are the
    reduced echelon basis of the kernel up to positive row scales."""
    top = ncols - 1
    pivots = _sparse_echelon(({top - c: x for c, x in row.items()} for row in rows), True)
    return [[v.get(c, 0) for c in range(top, -1, -1)] for v in reversed(_kernel(pivots, ncols))]


def integer_echelon(m, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Echelon form of the integer rows m (an iterable), in integers.

    Returns (echelon, pivots, den): one dense echelon row per pivot column,
    the reduced row echelon form times its least common denominator den >
    0, the lcm of the leads of the back-reduced rows."""
    rows = _sparse_echelon(_sparse_rows(m), True)
    pivots = sorted(rows)
    den = lcm(*[rows[c][c] for c in pivots])
    echelon = []
    for c in pivots:
        v, s = [0] * ncols, den // rows[c][c]
        for k, x in rows[c].items():
            v[k] = x * s
        echelon.append(v)
    return echelon, pivots, den


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (as a copy) with its pivot columns.

    Pivot selection is deterministic: first nonzero column, topmost
    available row.  Zero rows are retained at the bottom, so the result is
    the unique RREF of the input.
    """
    ncols = len(m[0]) if m else 0
    rows, pivots, den = integer_echelon(map(_integer_row, m), ncols)
    zero = QQ(0)
    out = [[QQ(x, den) if x else zero for x in row] for row in rows]
    out.extend([zero] * ncols for _ in range(len(m) - len(rows)))
    return out, pivots


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
    zero = QQ(0)
    return [[QQ(v[c], v[max(v)]) if c in v else zero for c in range(ncols)]
            for v in sparse_kernel(_sparse_rows(map(_integer_row, m)), ncols)]


def _integer_det(m: list) -> int:
    """det of a square integer matrix, unchecked, by fraction-free (Bareiss)
    forward elimination: every division is exact, and each row swap flips
    the sign.  The library's one determinant: det runs it on rows scaled to
    integers, and schubert's skew Schur dimensions on binomial matrices."""
    m = [row[:] for row in m]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1] if size else 1


def det(m: Matrix) -> Fraction:
    """Exact determinant: _integer_det of the rows times the lcms of their
    denominators, over the product of those lcms."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    return QQ(_integer_det(list(map(_integer_row, m))),
              prod(lcm(*[x.denominator for x in row]) for row in m))

