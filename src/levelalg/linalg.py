"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fraction at the boundary; inside, one
fraction-free loop (_bareiss) does every dense elimination on integer rows,
dividing every update exactly by the previous pivot (Bareiss, Math. Comp.
1968).  It runs in two modes.  The Gauss-Jordan mode clears every other row
at each pivot and gives the echelon form; integer_echelon is its one
caller, and the Fraction front ends (rref, right_kernel) enter through it,
each row scaled by the lcm of its denominators.  integer_echelon hands the
loop each nonzero primitive row once: its outputs depend on the row space
alone, and zero rows and repeats do not change that.  It returns the
echelon form only; integer_kernel builds the kernel vectors from it, so a
caller that reads a rank builds none.  Dividing by the last pivot once at
the end gives the unique reduced row echelon form.  The forward mode
updates only the rows below each pivot and gives ranks (integer_rank), and
kernels by back substitution (integer_forward_kernel); echelon_kernel reads
that kernel with the columns reversed, which makes it the reduced echelon
basis.  The pivot rule is deterministic (first nonzero column, topmost
row), so echelon forms, kernels and the canonical subspaces built on them
are reproducible.  Determinants keep a forward loop
of their own (_integer_det): their matrices are small and square, and the
shared loop with a sign flip on each swap took about 1.6x as long on them.

The tangent route alone takes a second core, _sparse_echelon, on sparse
rows ({column: nonzero entry} dicts): it reduces each incoming row against
the pivot row of its lead column and divides the result by its content,
and sparse_rank reads its forward pass while sparse_kernel reads
integer_kernel's vectors off one back-reduction.  Which core a caller
takes follows the measured density of its matrices: the tangent route's
V_i and constraint rows are 9.2% and 3.7% nonzero on the benchmark's
tangent_burch stream, where the dense loop spent most of its time
scanning zeros, while the derivative chain, the apolar pass, inverse
systems and the secant route work on binary matrices 50-55% nonzero, where
the Bareiss loop is faster.  No floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

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


def _bareiss(m, ncols: int, jordan: bool):
    """Fraction-free elimination of the integer rows m (an iterable), zero
    rows dropped: the library's one Bareiss loop.

    The pivot is the topmost row nonzero in the first column that has one,
    and every update divides exactly by the previous pivot.  A row that is
    zero in the pivot column would only be scaled by pivot / previous
    pivot, so it is left as it is and level[i] holds the pivot it is
    scaled to.  Returns (rows, pivots, pivot): one integer row per pivot
    column and the last pivot `pivot` (1 if none).  With jordan, every other
    row is cleared at each pivot, and each row equals `pivot` at its pivot
    column and is zero at the other pivot columns.  Without it only the rows
    below each pivot are updated, and the entries of row k are (k + 1)-minors
    of m.
    """
    a = [row for row in m if any(row)]
    nrows = len(a)
    level = [1] * nrows
    pivots: list[int] = []
    prev = 1
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
        prow = a[r]
        if level[r] != prev:
            prow = a[r] = [x * prev // level[r] for x in prow]
        pv = prow[c]
        for i in range(0 if jordan else r + 1, nrows):
            row = a[i]
            f = row[c]
            if f and i != r:
                a[i] = [(pv * x - f * y) // level[i] for x, y in zip(row, prow)]
                level[i] = pv
        level[r] = pv
        pivots.append(c)
        prev = pv
    if not jordan:
        return a[:len(pivots)], pivots, prev
    echelon = [row if lv == prev else [x * prev // lv for x in row]
               for row, lv in zip(a, level[:len(pivots)])]
    return echelon, pivots, prev


def free_columns(pivots: list[int], ncols: int) -> list[int]:
    """The columns among range(ncols) that are not pivots, in order."""
    pivot_set = set(pivots)
    return [c for c in range(ncols) if c not in pivot_set]


def _primitive(v: list[int]) -> list[int]:
    """v over the gcd of its entries (v itself if that is 0 or 1)."""
    c = gcd(*v)
    return [x // c for x in v] if c > 1 else v


def _intake(m):
    """Each nonzero row of m over its content, once, in order of first
    occurrence."""
    return {tuple(row): row for row in map(_primitive, filter(any, m))}.values()


def integer_echelon(m, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Echelon form of the integer rows m (an iterable), in integers.

    Returns (echelon, pivots, den): one echelon row per pivot column, the
    reduced row echelon form times its common denominator den > 0.
    Input rows are divided by their content (the gcd of their entries):
    rows that still carry a Bareiss pivot grow with every further
    elimination they are fed into.  Then zero rows and repeats are dropped,
    each primitive row kept once in order of first occurrence.  That cannot
    change the output: every part of it is determined by the row space,
    which those rows do not change.  The catalecticants and constraint
    matrices of torus-fixed points are mostly such rows.  Kernel vectors
    come from integer_kernel.
    """
    rows, pivots, pivot = _bareiss(_intake(m), ncols, True)
    g = gcd(pivot, *[gcd(*row) for row in rows]) * (-1 if pivot < 0 else 1)
    if g != 1:
        rows = [[x // g for x in row] for row in rows]
    return rows, pivots, pivot // g


def integer_rank(m, ncols: int) -> int:
    """Rank of the integer rows m (an iterable), by the forward pass of the
    Bareiss loop alone.  Zero rows are dropped; repeats are not looked for,
    as integer_echelon does, since few of the rows ranked here repeat."""
    return len(_bareiss(m, ncols, False)[1])


def integer_kernel(echelon: list[list[int]], pivots: list[int], den: int,
                   ncols: int) -> list[list[int]]:
    """right_kernel's basis from integer_echelon's (echelon, pivots, den),
    one vector per free column f in order: den at f and -row[f] at the
    pivot column of each echelon row, times the positive integer that makes
    its content 1."""
    kernel = []
    for f in free_columns(pivots, ncols):
        v = [0] * ncols
        v[f] = den
        for row, c in zip(echelon, pivots):
            v[c] = -row[f]
        kernel.append(_primitive(v))
    return kernel


def integer_forward_kernel(m, ncols: int) -> list[list[int]]:
    """integer_kernel's basis of the right kernel of the integer rows m (an
    iterable), by the forward pass of the Bareiss loop alone; the rows go
    in as integer_echelon takes them.

    Each kernel vector comes by back substitution in integers.  Let D be
    the last pivot up to sign: the determinant, up to sign, of the pivot
    rows at the pivot columns.  The kernel vector that is D at the free
    column f and 0 at the other free columns then has minors of m as its
    entries, by Cramer's rule, so solving the echelon rows from the bottom
    up divides exactly.  With a kernel small beside the rank this costs
    less than clearing above every pivot.
    """
    rows, pivots, last = _bareiss(_intake(m), ncols, False)
    at_pivots = [[row[c] for c in pivots] for row in rows]
    scale = abs(last)
    kernel = []
    for f in free_columns(pivots, ncols):
        solved = [0] * len(pivots)
        for k in range(len(pivots) - 1, -1, -1):
            s = rows[k][f] * scale + sum(map(mul, at_pivots[k][k + 1:], solved[k + 1:]))
            solved[k] = -s // at_pivots[k][k]
        v = [0] * ncols
        v[f] = scale
        for c, x in zip(pivots, solved):
            v[c] = x
        kernel.append(_primitive(v))
    return kernel


def echelon_kernel(m, ncols: int) -> list[list[int]]:
    """The reduced echelon basis of the right kernel of the integer rows m
    (an iterable), up to positive row scales: integer_forward_kernel's
    basis with the columns reversed.  The vector of a free column f of the
    reversed rows is zero right of f and at the other free columns, so read
    back each vector starts at its own column, where the others are zero."""
    kernel = integer_forward_kernel([row[::-1] for row in m], ncols)
    return [v[::-1] for v in reversed(kernel)]


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
    iterable) as primitive rows keyed by their lead (least) column.

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


def sparse_rank(rows) -> int:
    """Rank of the sparse integer rows ({column: nonzero entry}, an
    iterable), by the forward pass of _sparse_echelon alone."""
    return len(_sparse_echelon(rows, False))


def sparse_kernel(rows, ncols: int) -> list[dict[int, int]]:
    """integer_kernel's basis of the right kernel of the sparse integer rows
    ({column: nonzero entry}, an iterable) over range(ncols), as sparse
    vectors in column order, one per free column f in order.

    With the rows reduced by one back-reduction (_sparse_echelon), the
    vector of f is L at f and -row[f] L / row[c] at the pivot column c of
    each row nonzero at f, L the lcm of those row[c], over its content (a
    unit vector if no row is nonzero at f); its last column is f.
    """
    pivots = _sparse_echelon(rows, True)
    at_free: dict[int, list] = {}
    for c, row in pivots.items():
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
        v = {c: -x * (scale // lead) for c, x, lead in sorted(entries)}
        v[f] = scale
        kernel.append(_sparse_primitive(v))
    return kernel


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
    rows, pivots, den = integer_echelon(map(_integer_row, m), ncols)
    return [[QQ(x, v[f]) for x in v]
            for v, f in zip(integer_kernel(rows, pivots, den, ncols), free_columns(pivots, ncols))]


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

