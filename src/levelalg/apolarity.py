"""Apolarity: the differentiation action of R on S and everything built on it.

The internal product u.F = u(d/dy1, ..., d/dyn) F makes S a graded R-module.
From it we get catalecticant matrices, Hilbert functions, annihilator
ideals, inverse systems and socles.  Everything is exact kernel/rank
computation; no factorization is ever performed.

The annihilator slices of Lambda in S_d come from its derivative chain
(Macaulay duality; Iarrobino-Kanev, LNM 1721, 1.1): I_j kills exactly
Lambda_j = R_{d-j}.Lambda, h_j = dim Lambda_j, and Lambda_{j-1} =
R_1.Lambda_j.  In divided-power coordinates (b! times the coefficient of
y^b, b! from forms.divided_power_weights) x_k acts by an index shift and
the pairing of R_j with S_j is the dot product, so each I_j is the right
kernel of a spanning set of Lambda_j, one small elimination per degree,
from j = d down to the first degree where I_j = 0, below which every slice
is 0 too.  The spanning set of Lambda_{j-1} is not R_1 times every
echelon row of Lambda_j: x1 contracts every one, and x2, ..., xn only the
rows N_j whose lead no row of x1.Lambda_{j+1} gave, since Lambda_j =
x1.Lambda_{j+1} + span N_j and so x_k.Lambda_j lies in x1.Lambda_j +
x_k.N_j (see _chain_step for the proof).  At n = 2, N_j holds at most t
rows, so a step gets at most h_j + t rows where R_1 times every echelon
row gave it 2 h_j.  The same duality makes R/ann(Lambda) level of socle
degree d and type dim Lambda, so the apolar profile states that socle and
computes none; socle() reads the socle of an arbitrary artin quotient R/I,
which need not be level, off its inverse system: in degree j it is dual to
(I^-1)_j modulo R_1.(I^-1)_{j+1}.

The apolar pass reads the minimal generators off the slices: those of
degree j complement R_1.I_{j-1} in I_j, so there are dim I_j -
rank(R_1.I_{j-1}) of them, and the pass leaves a degree once it has found
that many.  At n = 2 that count is the Hilbert-Burch e_j = -Delta^2 h_j,
known before any elimination: a degree with e_j = 0 is skipped, and the
elimination of R_1.I_{j-1} stops once it holds its rank dim I_j - e_j
(see _apolar_pass for the proofs).

R acts on S in one place, _contract (and _moved, which it calls with the
column maps of every monomial of R_k, and the chain with those of x1 and
of x2, ..., xn apart): in divided-power coordinates x^a acts by the index
shift of forms.monomial_products, and the catalecticants, the internal
product, the derivative chain, the socle and secant's Hankel matrices all
call it.  It takes and returns rows of S as
sparse {column: nonzero entry} rows whose columns count the monomial order
from its end (w_b at column top - b, top = dim S_j - 1): in that order the
kernel linalg's core reads off them is the reduced echelon basis of the
annihilator.  The chain holds Lambda and every Lambda_j in that format,
and the chain and the socle hand _contract's rows to the core as they
are; the catalecticants, the internal product and the Hankel matrices
read them back dense (_dense).  _divided_power_row is the one
place a row is taken to those coordinates (by the weights b! of
forms.divided_power_weights).  _placed is the one multiplication kernel:
it places a sparse row of R at its products with the monomials of R_k,
for the condition rows of an ideal and for R_1 times a slice.  The
slices I_j are sparse rows of R_j in the original columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, cycle

from .errors import (
    AmbientMismatchError,
    DegreeError,
    NotArtinError,
    ZeroSubspaceError,
)
from .forms import (Form, Subspace, _monic_form, divided_power_weights, form_print,
                    monomial_products, space_dim)
from .levelhf import HilbertFunction, e_sequence
from .linalg import (QQ, Matrix, _integer_row, _kernel, _sparse_combine, _sparse_echelon,
                     echelon_kernel, rank, sparse_kernel, sparse_rank)


def internal_product(u: Form, f: Form) -> Form:
    """Apply the operator u in R_j to the form f in S_i, j <= i.

    Differentiation semantics: x^a acts as the partial derivative d^a/dy^a,
    so constants like b!/(b-a)! appear.  Applying in degree j > i is an
    error rather than zero; the pairing is only meaningful for j <= i.
    """
    if u.ring != "R" or f.ring != "S":
        raise AmbientMismatchError("internal product needs u in R and F in S")
    if u.nvars != f.nvars:
        raise AmbientMismatchError("operator and form have different variable counts")
    if u.degree > f.degree:
        raise DegreeError(f"cannot apply a degree-{u.degree} operator to a degree-{f.degree} form")
    n, out_degree = f.nvars, f.degree - u.degree
    # column g of x^a.F in divided-power coordinates is g! times the
    # coefficient of y^g; Fractions throughout, so no sum becomes a float
    moved = zip(*(_dense(row, space_dim(n, out_degree))
                  for row in _contract([_divided_power_row(n, f.degree, f.vector())], n,
                                       u.degree, out_degree)))
    out = [sum((cu * x for cu, x in zip(u.vector(), column) if cu), QQ(0)) / w
           for column, w in zip(moved, divided_power_weights(n, out_degree))]
    return Form.from_vector(n, out_degree, "S", out)


def catalecticant_matrix(lam: Subspace, i: int) -> Matrix:
    """Matrix of the product map R_{d-i} (x) Lambda -> S_i, with rows
    (monomial of R_{d-i}, basis form p of Lambda), monomial outermost, and
    columns the monomials of S_i.  For n = 2 the shape is t(d-i+1) x (i+1).
    Its rank is H(R/ann(Lambda), i).  Read off lam.echelon, whose row p is
    basis form p times its pivot entry s_p (the lcm of the form's
    denominators); each call returns new lists."""
    d = lam.degree
    if not 0 <= i <= d:
        raise DegreeError(f"catalecticant index {i} outside 0..{d}")
    # column g of x^a.F in divided-power coordinates, divided by g!, is the
    # coefficient of y^g: F's integer entry there is a multiple of b!, and
    # g! divides b! for b = a + g; divided by s_p too, it is form p's own
    low = divided_power_weights(lam.nvars, i)
    scales = cycle([v[p] for v, p in zip(lam.echelon, lam.pivots)])
    zero = QQ(0)
    return [[QQ(x // w, s) if x else zero for x, w in zip(_dense(row, len(low)), low)]
            for row, s in zip(_contract(_divided_power_rows(lam), lam.nvars, d - i, i), scales)]


def hilbert_function(lam: Subspace) -> HilbertFunction:
    """h_i = rank of the i-th catalecticant, for 0 <= i <= d."""
    if lam.dim == 0:
        raise ZeroSubspaceError("the zero subspace has no Hilbert function")
    values = [rank(catalecticant_matrix(lam, i)) for i in range(lam.degree + 1)]
    return HilbertFunction.from_values(values)


def ann_slice(lam: Subspace, j: int) -> Subspace:
    """I_j = {u in R_j : u.F = 0 for all F in Lambda}, a subspace of R_j.

    dim I_j + h_j = dim R_j.  For j > d every operator annihilates, so the
    slice is all of R_j.  On a fresh Lambda, 1 <= j <= d takes the steps of
    the derivative chain from d down to j, or down to the first zero slice
    if that lies above j, and no more.  The held sparse rows are read back
    dense here, where the Subspace is built.
    """
    if j < 0:
        raise DegreeError("negative slice degree")
    if j > lam.degree or lam.dim == 0:
        return Subspace.full(lam.nvars, j, "R")
    width = space_dim(lam.nvars, j)
    return Subspace.from_echelon(lam.nvars, j, "R", ([row.get(c, 0) for c in range(width)]
                                                     for row in _ann_rows(lam, j)))


def _ann_rows(lam: Subspace, j: int) -> tuple[dict[int, int], ...]:
    """I_j of ann(Lambda), 0 <= j <= d, Lambda != 0, as _chain_step gives it:
    sparse rows of R_j in the original columns (I_0 = 0: 1 kills no nonzero
    form).  The only place a slice is computed: one derivative chain per
    Lambda instance, run down from d only as far as the lowest degree asked
    for.  While it runs it is kept on lam, which is frozen, as the pair
    (I_d, I_{d-1}, ... so far; rows spanning the next Lambda_i), which each
    step replaces whole, so a step cut short leaves the chain as it was.
    Once it has reached its end, lam holds the slices I_0, ..., I_d with
    their Hilbert function instead, which _slices reads in one step.
    ann_slice, the apolar pass and the tangent route only read the slices.

    The chain stops at the first step whose kernel I_j is empty: every
    lower slice is held as () at once.  Proof: for u in I_{j-1}, x_1 u
    lies in R_1.I_{j-1}, which I_j contains since I is an ideal; I_j = 0
    gives x_1 u = 0, and R is a domain, so u = 0.  Then I_{j-1} = 0, and
    so on down to I_1."""
    if not j:
        return ()
    held = lam.__dict__.get("_slices")
    if held is not None:
        return held[0][j]
    return _run_chain(lam, j)[lam.degree - j]


def _run_chain(lam: Subspace, j: int) -> tuple:
    """The slices I_d, I_{d-1}, ... of the chain held on lam, run down to
    degree j >= 1 or to its end.  Each step gets the span _chain_step
    returned before it, (x1 contracting every echelon row of Lambda_{j+1},
    x2, ..., xn contracting its rows N_{j+1}), and the first gets ((),
    Lambda's divided-power rows): Lambda_{d+1} = 0, and every row of Lambda
    is new.  At its end lam holds (I_0, ..., I_d, h) in place of the
    running chain: h_j = dim R_j - dim I_j."""
    n, d = lam.nvars, lam.degree
    slices, span = lam.__dict__.get("_chain") or ((), ((), _divided_power_rows(lam)))
    while len(slices) <= d - j:
        kernel, span = _chain_step(n, d - len(slices), span)
        slices += (kernel,)
        if not kernel:
            slices += ((),) * (d - len(slices))
        lam.__dict__["_chain"] = slices, span
    if len(slices) == d:
        rows = ((), *reversed(slices))
        lam.__dict__["_slices"] = rows, HilbertFunction.from_values(
            [space_dim(n, i) - len(r) for i, r in enumerate(rows)])
        lam.__dict__.pop("_chain", None)
    return slices


def _slices(lam: Subspace) -> tuple[tuple, HilbertFunction]:
    """The slices I_0, ..., I_d that the chain holds on lam, run to its end,
    and the Hilbert function h_j = dim R_j - dim I_j held with them."""
    held = lam.__dict__.get("_slices")
    if held is None:
        _run_chain(lam, 1)
        held = lam.__dict__["_slices"]
    return held


def _divided_power_rows(lam: Subspace) -> list[dict[int, int]]:
    """Lambda's integer rows in divided-power coordinates, as _contract takes
    them: rows spanning Lambda_d."""
    return [_divided_power_row(lam.nvars, lam.degree, v) for v in lam.echelon]


def _divided_power_row(nvars: int, degree: int, row) -> dict:
    """The coefficient vector row of a form in S_degree in divided-power
    coordinates w_b = b! * (coefficient of y^b), b! = b_1! ... b_n!, as a
    sparse row of _contract's: w_b at column top - b, in increasing column
    order."""
    weights = divided_power_weights(nvars, degree)
    return {k: c * w for k, (c, w) in enumerate(zip(reversed(row), reversed(weights))) if c}


def _dense(row: dict, width: int) -> list:
    """A sparse row of S_m as _contract writes it, of width = dim S_m, read
    back as a dense row in the monomial order (0 where it has no entry)."""
    return [row.get(c, 0) for c in range(width - 1, -1, -1)]


def _contract(rows, nvars: int, k: int, m: int) -> list[dict]:
    """x^a.F for every monomial x^a of R_k (outermost) and every row F, a
    form of S_{k+m} in divided-power coordinates, as rows of S_m in the same
    coordinates: the one place R acts on S, by _moved over the column maps
    of _column_maps.  There x^a.y^b = (b!/g!) y^g for b = a + g, so w_g of
    x^a.F is F's w_b.  A row with its columns in increasing order gives rows
    with theirs in increasing order, since multiplying by x^a keeps the
    monomial order."""
    return _moved(rows, _column_maps(nvars, k, m))


@lru_cache(maxsize=None)
def _column_maps(nvars: int, k: int, m: int) -> tuple[dict[int, int], ...]:
    """For each monomial x^a of R_k, in order, the map taking the column of
    w_b in a row of S_{k+m} to the column of w_g in a row of S_m, b = a + g:
    the shift of x^a in forms.monomial_products(nvars, k, m), read from the
    end of the monomial order, as the rows count their columns (module
    docstring).  Read only, never changed."""
    top = space_dim(nvars, k + m) - 1
    return tuple({top - b: g for g, b in enumerate(reversed(shift))}
                 for shift in monomial_products(nvars, k, m))


def _moved(rows, maps) -> list[dict]:
    """Each sparse row of rows moved by each column map of maps (outermost),
    dropping the columns a map does not take: x^a.F for the monomials x^a
    whose maps are given."""
    return [{at[c]: x for c, x in row.items() if c in at} for at in maps for row in rows]


def _chain_step(nvars: int, j: int, span):
    """I_j, and the span of Lambda_{j-1} (None at j = 1 and where I_j = 0,
    where the chain stops), from the span of Lambda_j, by one elimination
    that takes the shifted rows first.
    A span is a pair (shifted, new) of sparse rows of S_j as _contract
    writes them: shifted spans x1.Lambda_{j+1} (empty at j = d, with
    Lambda_{d+1} = 0), and with new it spans Lambda_j.

    There u.G = sum u_b w_b for u in R_j and G in S_j, so I_j is the right
    kernel of the span.  The shifted rows go into linalg's core first, by a
    forward pass of their own, and the new rows go on from its pivot rows
    (the core's start) into the elimination that is back-reduced.  Exact
    repeats (equal items in equal order) among the nonzero rows, and new
    rows that repeat a shifted one, are dropped before the core.  Counted
    from the end of the monomial order, as they are, the kernel
    linalg._kernel reads off the back-reduced rows, renumbered into the
    original columns and in reverse order, is the reduced echelon basis of
    I_j up to positive row scales: each vector is zero right of its free
    column and at the other free columns, so read back it starts at its own
    column, where the others are zero.  Every row of I_j is written with
    its columns in increasing order, so its first key is its lead, min(row),
    which the tangent route reads: _kernel writes each vector with its
    pivot columns in increasing order and its free column, right of them
    all, last, and the renumbering reads it back from its end.

    The span of Lambda_{j-1}: x1 contracting every back-reduced row, and x2,
    ..., xn contracting only N_j, the back-reduced rows whose lead is no
    lead of the forward pass of the shifted rows.  Proof, at every n: the
    pivot rows of that forward pass span x1.Lambda_{j+1}; they and the rows
    of N_j have distinct leads, h_j of them, so they are independent and
    Lambda_j = x1.Lambda_{j+1} + span N_j.  Contractions commute, so for k
    >= 2, x_k.Lambda_j lies in x1.(x_k.Lambda_{j+1}) + x_k.N_j, within
    x1.Lambda_j + x_k.N_j; hence Lambda_{j-1} = R_1.Lambda_j = x1.Lambda_j
    + sum_k x_k.N_j.  N_j is read by lead, not by position: at n >= 3, x1
    drops every column whose monomial has no y1, so two shifted rows can
    share a lead and one of them then adds a pivot elsewhere or none.  At n
    = 2, Lambda_j = x1.Lambda_{j+1} + x2^{d-j}.Lambda, so N_j holds at most
    t rows, and step j - 1 gets at most h_j + t rows.
    """
    shifted, new = span
    width = space_dim(nvars, j)
    top = width - 1
    first = {tuple(row.items()): row for row in shifted if row}
    later = {tuple(row.items()): row for row in new if row}
    forward = _sparse_echelon(first.values(), False)
    pivots = _sparse_echelon((row for key, row in later.items() if key not in first), True,
                             start=forward)
    kernel = tuple({top - c: x for c, x in reversed(v.items())}
                   for v in reversed(_kernel(pivots, width)))
    if j == 1 or not kernel:
        return kernel, None
    x1, *others = _column_maps(nvars, 1, j - 1)
    spanning = [row for c, row in pivots.items() if c not in forward]
    return kernel, (_moved(pivots.values(), (x1,)), _moved(spanning, others))


def _apolar_pass(lam: Subspace):
    """(Hilbert function, minimal generators) of ann(Lambda), both tuples,
    from the slices I_0 = 0, I_1, ..., I_d and h_j = dim R_j - dim I_j
    that the chain holds on lam (_slices).  Each echelon row of I_j (j <=
    d + 1, with I_{d+1} = R_{d+1}, whose unit rows enter as they are) is
    reduced against the pivot rows of the forward elimination of R_1 *
    I_{j-1} and the generators found before it, each kept as a pivot row
    at its lead, all of them sparse rows; the residual (the one vector of
    row + span zero at every pivot column, up to scale, whatever basis is
    taken) is a generator if nonzero.  Each reduction step divides by the content,
    as each later residual is cross-multiplied against the rows before it,
    and the monic form of a generator is built from it once.  The result
    is kept on lam, which is frozen, for as long as lam lives, so the pass
    runs once per Lambda instance.

    Degree j holds e_j = dim I_j - rank(R_1 * I_{j-1}) generators, read
    off the elimination of R_1 * I_{j-1}, and the pass leaves it once it
    has found them: no later row is reduced.  Proof: the generators of
    degree j complement R_1 * I_{j-1} in I_j.  Each one found is nonzero
    modulo R_1 * I_{j-1} and the ones before it, so R_1 * I_{j-1} and the
    e_j found span a subspace of I_j of dimension dim I_j: all of I_j,
    and every later row has residual 0.  A degree with I_j = 0 holds none
    and is skipped.

    At n = 2, e_j = 2h_{j-1} - h_j - h_{j-2}, so a degree with e_j = 0 is
    skipped before R_1 * I_{j-1} is eliminated, and the elimination of R_1
    * I_{j-1} stops (linalg._sparse_echelon's stop) once it holds dim I_j -
    e_j pivot rows, its rank: every later row of it would vanish, and the
    pivot rows are those the whole elimination would give, so the
    residuals and generators are too.  At n >= 3 the rank is read off the
    elimination of every row.  Proof of the count: A = R/ann(Lambda)
    is level of socle degree d and type t (see apolar_profile), so by
    Hilbert-Burch its minimal resolution is 0 -> R(-d-2)^t -> sum_i
    R(-q_i) -> R -> A, the last module dual to the socle.  Hence
    (1 - z)^2 sum_j h_j z^j = 1 - sum_i z^{q_i} + t z^{d+2}, and every
    q_i <= d + 1 since I_{d+1} = R_{d+1}.  Read at z^j, 1 <= j <= d + 1:
    the number of generators of degree j is -Delta^2 h_j,
    levelhf.e_sequence's count.
    """
    memo = lam.__dict__.get("_apolar_pass")
    if memo is not None:
        return memo
    if lam.dim == 0:
        raise ZeroSubspaceError("the zero subspace has no Hilbert function")
    n, d = lam.nvars, lam.degree
    slices, hf = _slices(lam)
    counts = e_sequence(hf) if n == 2 else None
    out = []
    units = [{c: 1} for c in range(space_dim(n, d + 1))]  # I_{d+1} = R_{d+1}
    for j, rows in enumerate((*slices[1:], units), start=1):
        if not (rows if counts is None else counts[j - 1]):
            continue
        stop = None if counts is None else len(rows) - counts[j - 1]
        pivots = _sparse_echelon(_times_variables(n, j - 1, slices[j - 1]), False, stop)
        need = len(rows) - len(pivots)
        gens = []
        for b in rows:
            if len(gens) == need:
                break
            r = _residual(b, pivots)
            if r:
                pivots[min(r)] = r
                gens.append(_monic_form(n, j, "R", sorted(r.items())))
        if gens:
            out.append((j, tuple(gens)))
    memo = lam.__dict__["_apolar_pass"] = (hf, tuple(out))
    return memo


def _residual(b: dict[int, int], pivots) -> dict[int, int]:
    """The sparse row b reduced against the primitive sparse rows pivots,
    keyed by their distinct leads, at every pivot column in column order,
    as a sparse primitive row: a row with lead c is zero left of c, so each
    step keeps the columns cleared before it.  The result is zero at every
    pivot column, and empty iff b lies in the span of the pivot rows; b, a
    row of a slice, is primitive itself, and is read, never changed."""
    row = b
    for c in sorted(pivots):
        if c in row:
            row = _sparse_combine(pivots[c], row, c)
    return row


def minimal_generators(lam: Subspace) -> list[tuple[int, list[Form]]]:
    """Minimal generators of ann(Lambda), degree by degree through d+1.

    Generators in degree j are a canonical complement of R_1 * I_{j-1}
    inside I_j; past d + 1, I_j = R_j = R_1 * I_{j-1} holds none.  So by
    graded Nakayama the list is a minimal generating set of ann(Lambda) for
    every n, and for n = 2 its counts are the e-sequence of the Hilbert
    function.  apolar_profile, minimal_generators and secant_decompose
    share one apolar pass per Lambda instance, which reads the slices of the
    derivative chain held on Lambda; each call returns new lists.

    The pass leaves each degree once it holds its dim I_j -
    rank(R_1 * I_{j-1}) generators, and for n = 2 skips each degree where
    that count e_j is 0; see _apolar_pass for the proofs.
    """
    if lam.dim == 0:
        raise ZeroSubspaceError("ann of the zero subspace is the whole ring")
    return [(degree, list(forms)) for degree, forms in _apolar_pass(lam)[1]]


def inverse_system_slice(gens: list[Form], nvars: int, d: int) -> Subspace:
    """(I^{-1})_d for the ideal generated by gens: all F killed by every gen.

    The kernel of _condition_rows, in divided-power coordinates w_b, taken
    to monomial coordinates by the integers d!/b!: the coefficient of y^b
    is w_b / b!, and the common factor d! clears the denominators.  The
    kernel is linalg.echelon_kernel's reduced echelon basis.  A positive
    column scale keeps the zero pattern of the reduced echelon rows and the
    sign of each pivot, so the scaled rows are the reduced echelon rows of
    the slice up to positive row scales."""
    _check_generators(gens, nvars)
    weights = divided_power_weights(nvars, d)
    scales = [weights[0] // w for w in weights]
    kernel = echelon_kernel(_condition_rows(gens, nvars, d), len(weights))
    return Subspace.from_echelon(nvars, d, "S", ([x * c for x, c in zip(v, scales)]
                                                 for v in kernel))


def _condition_rows(gens: list[Form], nvars: int, d: int) -> list[dict[int, int]]:
    """The coefficient vectors of x^c * g in R_d, for every nonzero generator
    g of degree q <= d, scaled to integers, and every monomial x^c of
    R_{d-q}, as sparse rows: rows spanning I_d, I the ideal the gens
    generate.  They are the conditions on F in S_d in divided-power
    coordinates w_b = b! * (coefficient of y^b): the coefficient of y^c in
    g.F is (x^c g).w / c!, since u.F = sum u_b w_b for u in R_d;
    inverse_system_slice and socle read their kernel.  At n = 2 they are
    shifted copies of g's coefficients.  Column c of monomial_products(n,
    q, d - q), the table the tangent route reads, places them."""
    rows = []
    for g in gens:
        if g.degree <= d and not g.is_zero:
            coefficients = _integer_row(g.vector())
            rows += _placed(zip(*monomial_products(nvars, g.degree, d - g.degree)),
                            [{m: x for m, x in enumerate(coefficients) if x}])
    return rows


def _times_variables(nvars: int, degree: int, rows):
    """x_i * b for every variable x_i and sparse row b of R_degree: a
    spanning set of R_1 * span(rows), as sparse rows, each built only when
    it is taken (a generator)."""
    return _placed(monomial_products(nvars, 1, degree), rows)


def _placed(shifts, rows):
    """For each shift (shift outermost) and sparse row ({column: nonzero
    entry}), the sparse row holding row[m] at shift[m]: x^c * b for the
    monomial x^c whose products a shift indexes.  A generator, so a reader
    that stops early (the binary pass, at its Hilbert-Burch rank) builds no
    row it does not take."""
    return ({shift[m]: c for m, c in row.items()} for shift in shifts for row in rows)


def _check_generators(gens: list[Form], nvars: int):
    if any(g.ring != "R" or g.nvars != nvars for g in gens):
        raise AmbientMismatchError(f"ideal generators must live in R with {nvars} variables")


def socle(gens: list[Form], nvars: int) -> list[tuple[int, int]]:
    """Per-degree socle dimensions of R/(gens): (j, dimension) for each
    degree j where the socle is nonzero.

    The socle in degree j is {u in (R/I)_j : x_i u = 0 in (R/I)_{j+1} for
    every i}.  The quotient must be artin: its Hilbert function has to
    vanish in degree b = (the sum of the n largest generator degrees) - n +
    2, or in degree 0 if b < 0, otherwise NotArtinError.  By Macaulay
    duality (Iarrobino-Kanev, LNM 1721, 1.1) the socle in degree j is dual
    to (I^-1)_j modulo R_1.(I^-1)_{j+1}: u in (R/I)_j kills
    R_1.(I^-1)_{j+1} iff every x_i u kills (I^-1)_{j+1}, iff every x_i u
    lies in I_{j+1}.  So (I^-1)_j is taken, in divided-power coordinates,
    as the kernel of _condition_rows up to the first that is 0 (linalg's
    sparse_kernel, in the columns _contract reads), and the
    socle dimension in degree j is dim (I^-1)_j - rank(R_1.(I^-1)_{j+1}),
    by one rank (linalg.sparse_rank) per degree.  An artin quotient need
    not be level, unlike the apolar profile's.
    """
    gens = [g for g in gens if not g.is_zero]
    if len(gens) < nvars:
        raise NotArtinError(
            f"{len(gens)} generators cannot cut out an artin quotient of a "
            f"{nvars}-variable ring"
        )
    _check_generators(gens, nvars)
    # a negative bound needs three constant generators, and a constant
    # makes the quotient zero in degree 0
    bound = max(sum(sorted(g.degree for g in gens)[-nvars:]) - nvars + 2, 0)
    dual = []  # (I^-1)_0, (I^-1)_1, ... as long as they are nonzero
    for j in count():
        if j > bound:
            raise NotArtinError(
                f"Hilbert function of the quotient has not vanished by degree {bound}"
            )
        top = space_dim(nvars, j) - 1
        rows = sparse_kernel(({top - c: x for c, x in row.items()}
                              for row in _condition_rows(gens, nvars, j)), top + 1)
        if not rows:
            break
        dual.append(rows)
    if not dual:
        raise NotArtinError("the generators span the unit ideal; the quotient is zero")
    out = []
    for j, (rows, above) in enumerate(zip(dual, dual[1:] + [[]])):
        s = len(rows) - sparse_rank(_contract(above, nvars, 1, j))
        if s > 0:
            out.append((j, s))
    return out


@dataclass(frozen=True)
class ApolarProfile:
    """Aggregated apolarity data of a subspace Lambda in S_d: the Hilbert
    function and minimal generators of R/ann(Lambda), and its socle as
    ((degree, dim), ...).  apolar_profile fills in ((d, dim Lambda),), which
    Macaulay duality gives; is_level, type (dim Soc, the sum over every
    degree) and socle_degree read the field, whatever socle it was built
    with."""

    lam: Subspace
    hilbert: HilbertFunction
    generators: tuple  # ((degree, (forms...)), ...)
    socle: tuple  # ((degree, dim), ...)

    @property
    def is_level(self) -> bool:
        return len(self.socle) == 1

    @property
    def type(self) -> int:
        return sum(s for _, s in self.socle)

    @property
    def socle_degree(self) -> int:
        return self.socle[-1][0]

    def kv_lines(self) -> list[tuple[str, object]]:
        """The (key, value) lines of the hilbert subcommand: LEVEL a bool,
        TYPE and SOCLE_DEGREE ints, the others str."""
        return [("HILBERT", self.hilbert.format()), *_generator_lines(self.generators),
                ("SOCLE", "; ".join(f"{j}:{s}" for j, s in self.socle)),
                ("LEVEL", self.is_level), ("TYPE", self.type),
                ("SOCLE_DEGREE", self.socle_degree)]


def _generator_lines(generators) -> list[tuple[str, str]]:
    """The GENERATORS.j lines of (degree, forms) pairs of minimal generators."""
    return [(f"GENERATORS.{degree}", form_print(g)) for degree, forms in generators
            for g in forms]


def apolar_profile(lam: Subspace) -> ApolarProfile:
    """Hilbert function and minimal generators from the apolar pass that
    apolar_profile, minimal_generators and secant_decompose share, once per
    Lambda instance; the socle is ((d, t),) with t = dim Lambda.

    By Macaulay duality (Iarrobino-Kanev, LNM 1721, 1.1) R/ann(Lambda) is
    level of socle degree d and type t for every nonzero Lambda in S_d.
    Proof: write I = ann(Lambda) and Lambda_j = R_{d-j}.Lambda, so that
    I_j is the annihilator of Lambda_j in R_j and Lambda_j = R_1.Lambda_{j+1}.
    Take j < d and u in R_j with x_k u in I_{j+1} for every k.  Then
    u.(x_k.G) = (x_k u).G = 0 for each G in Lambda_{j+1}, so u kills
    R_1.Lambda_{j+1} = Lambda_j, and u is in I_j: no socle below d.  In
    degree d the socle is all of (R/I)_d, dual to Lambda, of dimension t.
    """
    hf, gens = _apolar_pass(lam)
    return ApolarProfile(lam, hf, gens, ((lam.degree, lam.dim),))
