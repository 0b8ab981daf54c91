"""Exact linear algebra over the rationals, with no floating point.

Matrices are lists of rows of Fraction at the boundary; the front ends
rref, rank, right_kernel and det scale each row to integers.  Inside, one
elimination loop on sparse integer rows ({column: nonzero entry}),
_sparse_echelon, does every rank, echelon form and kernel; its docstring
argues its pivot rule and the size of its rows.  sparse_rank counts the
pivots of a forward pass, sparse_kernel reads the kernel off the
back-reduced rows, echelon_kernel solves for its reduced echelon basis,
integer_echelon writes the reduced echelon form in integers, and
certified_rank ranks modulo a prime and checks the rank exactly.  Dense
rows enter through _sparse_rows; determinants keep a loop of their own.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

QQ = Fraction
PRIME = 2**61 - 1  # certified_rank's modulus, a word-size prime

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
    distinct nonzero row once, in order of first occurrence: dropping zero
    rows and repeats keeps the row space, hence every output of the core."""
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


def _sparse_echelon(rows, back: bool, stop: int | None = None,
                    start: dict | None = None) -> dict[int, dict[int, int]]:
    """Echelon form of the sparse integer rows ({column: nonzero entry}, an
    iterable) as primitive rows keyed by their lead (least) column, in the
    order they became pivot rows: the library's one elimination loop, apart
    from determinants.

    Each incoming row is reduced against the pivot row whose column is its
    lead, then divided by its content, until its lead is no pivot column (it
    becomes a pivot row) or it vanishes: the primitive-part rule of Collins
    (J. ACM 14, 1967) in place of the Bareiss division (Math. Comp. 22,
    1968).  The pivot row of the k-th lead (from 0) is then the primitive
    vector on the line that some m <= k + 1 input rows and m - 1 zero
    columns cut out, so it divides a vector of m-minors of the input
    (Cramer): it stays within Hadamard's bound on the k-th Bareiss row, a
    vector of (k + 1)-minors, and where the input is wide it stays far
    narrower.  The pivot rule is deterministic (first nonzero column) and
    every output is a function of the row space alone, so echelon forms,
    kernels and the canonical subspaces built on them are reproducible.  The
    pivot rows start as those of start (a forward pass of this loop over
    other rows, not changed), or none.  stop is an upper bound on the rank
    of start's rows and rows together that the caller proves (None for no
    bound): once there are stop pivot rows they hold that rank, every later
    row would vanish, and no further row is taken from rows.  With back,
    each pivot row is then cleared at the later pivot columns, from the last
    one up, so that it is zero at every other pivot column: up to sign, the
    rows are the reduced row echelon form's over their contents.  Input rows
    are not changed.
    """
    pivots: dict[int, dict[int, int]] = dict(start) if start else {}
    for row in rows if len(pivots) != stop else ():
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _sparse_primitive(row)
                break
            row = _sparse_combine(pivot, row, lead)
        if len(pivots) == stop:
            break
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
    rows, each primitive with a positive entry at its lead, by the forward
    pass of the core and back substitution (_back_substitution).

    With the columns reversed, the vector v of a free column f is, up to a
    positive scale, 1 at f, 0 at the other free columns and 0 at every
    pivot column right of f; read back in the original columns it starts at
    its own column, where the others are zero, so the vectors are the
    reduced echelon basis up to positive row scales.  A kernel of t vectors
    costs t solves, where clearing every pivot row at the other pivot
    columns costs a combine for each nonzero entry there.
    """
    top = ncols - 1
    pivots = _sparse_echelon(({top - c: x for c, x in row.items()} for row in rows), False)
    return [[v.get(c, 0) for c in range(top, -1, -1)]
            for v in _back_substitution(pivots, range(top, -1, -1))]


def _back_substitution(pivots: dict[int, dict[int, int]], columns) -> list[dict[int, int]]:
    """The right kernel of the forward pivot rows of _sparse_echelon, one
    primitive sparse vector for each free column f of columns (in that
    order): positive at f, 0 at the other free columns and, solving the
    pivot rows from the last pivot column up, 0 at every pivot column right
    of f (such a row is 0 left of its pivot).  Each pivot row c left of f
    fixes v[c] from the entries of v right of c: with s the sum of their
    products with the row and g the gcd of s and row[c], signed as row[c],
    v is scaled by row[c] / g > 0 and v[c] = -s / g, an integer; every scale
    is positive, so v keeps a positive entry at f, and over its content it
    is the primitive vector.  The vector is unique up to scale, so it is
    _kernel's vector of f whatever rows gave the pivots."""
    order = sorted(pivots, reverse=True)
    kernel = []
    for f in columns:
        if f in pivots:
            continue
        v = {f: 1}
        for c in order:
            if c > f:
                continue
            row = pivots[c]
            s = sum(x * v[k] for k, x in row.items() if k in v)
            if s:
                g = gcd(s, row[c]) if row[c] > 0 else -gcd(s, row[c])
                if row[c] != g:
                    v = {k: row[c] // g * x for k, x in v.items()}
                v[c] = -s // g
        kernel.append(_sparse_primitive(v))
    return kernel


def _modular_pivot_rows(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """The indices of the sparse integer rows over range(ncols) that become
    pivot rows in a forward pass mod PRIME: each row, read as a dense list,
    is reduced against the monic pivot row of its lead mod PRIME, until its
    lead is no pivot column (it becomes a pivot row, kept from its lead on)
    or it vanishes.  Entries are reduced mod PRIME only where they are read
    as a lead; a reduction adds less than PRIME^2 to each.  The kept rows
    are independent mod PRIME, hence over Q (a rational dependency, made
    primitive, stays one mod PRIME)."""
    pivots: dict[int, list[int]] = {}
    kept = []
    for index, row in enumerate(rows):
        dense = [0] * ncols
        for k, x in row.items():
            dense[k] = x
        c = min(row, default=ncols)
        while c < ncols:
            x = dense[c] % PRIME
            if not x:
                c += 1
                continue
            pivot = pivots.get(c)
            if pivot is None:
                inverse = pow(x, -1, PRIME)
                pivots[c] = [y * inverse % PRIME for y in dense[c:]]
                kept.append(index)
                break
            dense[c:] = [a - x * b for a, b in zip(dense[c:], pivot)]
            c += 1
    return kept


def certified_rank(rows: list[dict[int, int]], ncols: int) -> tuple[int, list | None]:
    """(rank, kernel) of the sparse integer rows over range(ncols), from the
    rows a forward pass mod PRIME keeps (_modular_pivot_rows): the exact
    core's forward pass over those rows alone, their kernel by
    _back_substitution, and every other row checked against every kernel
    vector, exactly.  If every product vanishes, span(kept) lies in
    span(rows), which lies in ker^perp, of dimension ncols - dim ker, the
    number of kept rows: the rank is that number, and the kernel is
    sparse_kernel's basis.  Otherwise the prime was unlucky, and the rank
    is sparse_rank's, with no kernel (None): it costs time, never a wrong
    answer.  The Las Vegas rank of sparse exact linear algebra (Kaltofen
    and Saunders, AAECC-9, LNCS 539, 1991; Dumas, Saunders and Villard,
    J. Symbolic Comput. 32, 2001).  Where it pays: see
    tangent.tangent_space."""
    kept = _modular_pivot_rows(rows, ncols)
    pivots = _sparse_echelon([rows[i] for i in kept], False)
    kernel = _back_substitution(pivots, range(ncols))
    chosen = set(kept)
    for i, row in enumerate(rows):
        if i not in chosen and any(sum(x * v[k] for k, x in row.items() if k in v)
                                   for v in kernel):
            return sparse_rank(rows), None
    return len(kept), kernel


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
    the sign.  The library's one determinant, kept apart from the core:
    its matrices are small, square and dense."""
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

