"""Apolarity: the differentiation action of R on S and everything built on it.

The internal product u.F = u(d/dy1, ..., d/dyn) F makes S a graded R-module.
From it we get catalecticant matrices, Hilbert functions, annihilator ideals,
inverse systems and socles, by exact kernel and rank computations, with no
factorization.  The arguments rest on Macaulay duality (Iarrobino-Kanev, LNM
1721, 1.1), each in the function that relies on it: the slices of ann(Lambda)
in _slices (the divisibility read) and _chain_step (the span rule and the dim
S_j stop), the minimal generators in _apolar_pass (the stop bound dim I_j -
f_j), the level property in apolar_profile, the socle of an artin quotient in
socle.  R acts on S only in _contract, and multiplies R only in _placed.
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

    For j > d every operator annihilates, so the slice is all of R_j.  For
    0 <= j <= d it is read off the slices held on Lambda (see _slices), all
    of which a first read computes, whatever j it asks for.
    """
    if j < 0:
        raise DegreeError("negative slice degree")
    if j > lam.degree or lam.dim == 0:
        return Subspace.full(lam.nvars, j, "R")
    width = space_dim(lam.nvars, j)
    return Subspace.from_echelon(lam.nvars, j, "R", ([row.get(c, 0) for c in range(width)]
                                                     for row in _slices(lam)[0][j]))


def _slices(lam: Subspace) -> tuple[tuple, HilbertFunction]:
    """The slices I_0, ..., I_d of ann(Lambda), Lambda != 0, as sparse rows
    of R_j in the original columns, each with its columns in increasing
    order, so that its first key is its lead (I_0 = 0, as 1 kills no
    nonzero form), and h_j = dim R_j - dim I_j.  By Macaulay duality I_j
    is the annihilator in R_j of Lambda_j = R_{d-j}.Lambda =
    R_1.Lambda_{j+1}, so h_j = dim Lambda_j.  The only place a slice is
    computed: once per Lambda instance, on the first read, and held on
    lam, which is frozen, for every reader, in one step.  Nothing is held
    until the slices are whole, so a step that raises leaves lam as it was.

    Where some echelon row of Lambda has more than one nonzero entry, the
    slices are the derivative chain's (_eliminated_slices).  Where every one
    is a unit vector (Lambda is spanned by monomials: every Burch point and
    monomial subspace), they are read off divisibility, with no elimination,
    and are the chain's, row for row and key for key, with the same h.
    Proof: x^a.y^b = (b!/(b-a)!) y^{b-a} if a <= b and 0 otherwise, so if
    Lambda_j is spanned by the monomials y^g, g in G_j, then Lambda_{j-1} is
    spanned by the y^g with g + e_k in G_j for some k: the divisors of
    degree j - 1 of the monomials of Lambda_j, read off
    forms.monomial_products(n, 1, j - 1), where g x_k has index shift_k[g].
    G_d is Lambda's pivots, and h_j = |G_j|.  At equal degree x^a.y^b = a!
    if a = b and 0 otherwise: the pairing of R_j with S_j is diagonal on
    monomials, so u kills Lambda_j iff u has no term x^g, g in G_j, and I_j
    is spanned by the x^c, c outside G_j.  Its reduced echelon basis is
    those unit rows in increasing column order, and the chain's rows are
    that basis up to positive scales, each primitive (linalg._kernel), so
    each is {c: 1}.  The read stops where the chain does: at the first j
    with I_j = 0 (G_j = all of S_j) or at j = 1, with every slice below it
    () and h_j = dim R_j there."""
    held = lam.__dict__.get("_slices")
    if held is not None:
        return held
    n, d = lam.nvars, lam.degree
    if any(len(v) - v.count(0) > 1 for v in lam.echelon):
        held = _eliminated_slices(lam)
    else:
        # h_j = dim S_j until the read reaches j; span holds G_j's columns
        rows, h, span = [()] * (d + 1), [space_dim(n, j) for j in range(d + 1)], set(lam.pivots)
        for j in range(d, 0, -1):
            rows[j] = tuple({c: 1} for c in range(h[j]) if c not in span)
            h[j] = len(span)
            if j == 1 or not rows[j]:
                break
            span = {g for shift in monomial_products(n, 1, j - 1)
                    for g, c in enumerate(shift) if c in span}
        held = tuple(rows), HilbertFunction.from_values(h)
    lam.__dict__["_slices"] = held
    return held


def _eliminated_slices(lam: Subspace) -> tuple[tuple, HilbertFunction]:
    """The slices and Hilbert function of _slices, Lambda != 0, by the
    derivative chain, one _chain_step a degree, and not held on lam.

    Each step gets the span the step before it returned (see _chain_step),
    and the first, at d, gets ((), Lambda's divided-power rows):
    Lambda_{d+1} = 0, and every row of Lambda is new.  At d = 0 no step
    runs.  The chain stops at the first step that returns no span, at j =
    1 or where the kernel I_j is empty: every lower slice is then ().
    Proof: for u in I_{j-1}, x_1 u lies in R_1.I_{j-1}, which I_j contains
    since I is an ideal; I_j = 0 gives x_1 u = 0, and R is a domain, so u
    = 0.  Then I_{j-1} = 0, and so on down to I_1."""
    n, d = lam.nvars, lam.degree
    rows, span = [()] * (d + 1), ((), _divided_power_rows(lam))
    for j in range(d, 0, -1):
        rows[j], span = _chain_step(n, j, span)
        if span is None:
            break
    return tuple(rows), HilbertFunction.from_values(
        [space_dim(n, j) - len(r) for j, r in enumerate(rows)])


def _divided_power_rows(lam: Subspace) -> list[dict[int, int]]:
    """Lambda's integer rows in divided-power coordinates, as _contract takes
    them: rows spanning Lambda_d."""
    return [_divided_power_row(lam.nvars, lam.degree, v) for v in lam.echelon]


def _divided_power_row(nvars: int, degree: int, row) -> dict:
    """The coefficient vector row of a form in S_degree in divided-power
    coordinates w_b = b! * (coefficient of y^b), b! = b_1! ... b_n!, as a
    sparse row of _contract's: w_b at column top - b, in increasing column
    order.  The one place a row is taken to those coordinates."""
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
    x^a.F is F's w_b: x^a acts by the index shift of
    forms.monomial_products.  A row of S_j is a sparse {column: nonzero
    entry} row whose columns count the monomial order from its end (w_b at
    column top - b, top = dim S_j - 1), the order in which linalg's core
    reads the annihilator's reduced echelon basis off the rows (see
    _chain_step); _dense reads one back in the monomial order.  A row with
    its columns in increasing order gives rows with theirs in increasing
    order, since multiplying by x^a keeps the monomial order."""
    return _moved(rows, _column_maps(nvars, k, m))


@lru_cache(maxsize=None)
def _column_maps(nvars: int, k: int, m: int) -> tuple[dict[int, int], ...]:
    """For each monomial x^a of R_k, in order, the map taking the column of
    w_b in a row of S_{k+m} to the column of w_g in a row of S_m, b = a + g:
    the shift of x^a in forms.monomial_products(nvars, k, m), read from the
    end of the monomial order, as the rows count their columns (see
    _contract).  Read only, never changed."""
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
    that takes the shifted rows first.  A span is a pair (shifted, new) of
    sparse rows of S_j as _contract writes them: shifted spans
    x1.Lambda_{j+1} (empty at j = d, with Lambda_{d+1} = 0), and with new it
    spans Lambda_j.

    There u.G = sum u_b w_b for u in R_j and G in S_j, so I_j is the right
    kernel of the span.  The shifted rows go into linalg's core first, by a
    forward pass of their own, and the new rows go on from its pivot rows
    (the core's start) into the elimination that is back-reduced.  The rows
    go in as they come: a zero row is skipped, and a row in the span of the
    pivot rows before it (a repeat, say) vanishes in the core and leaves
    them as they were, so the pivot rows, the kernel and the next span are
    those of the rows without it.  Counted from the end of the monomial
    order, as they are, the kernel linalg._kernel reads off the back-reduced
    rows, renumbered into the original columns and in reverse order, is the
    reduced echelon basis of I_j up to positive row scales, by the argument
    of linalg.echelon_kernel (_kernel's vectors are
    linalg._back_substitution's).  Every row of I_j is written with its
    columns in increasing order, so its first key is its lead, min(row):
    _kernel writes each vector with its pivot columns in increasing order
    and its free column, right of them all, last, and the renumbering reads
    it back from its end.

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

    The back-reduced elimination stops (linalg._sparse_echelon's stop) at
    dim S_j pivot rows: the span lies in S_j, so its rank is at most dim
    S_j, and once it has that many every later row would vanish.  A step
    whose pivots reach dim S_j has I_j = 0 and is the chain's last.
    """
    shifted, new = span
    width = space_dim(nvars, j)
    top = width - 1
    forward = _sparse_echelon(shifted, False)
    pivots = _sparse_echelon(new, True, width, forward)
    kernel = tuple({top - c: x for c, x in reversed(v.items())}
                   for v in reversed(_kernel(pivots, width)))
    if j == 1 or not kernel:
        return kernel, None
    x1, *others = _column_maps(nvars, 1, j - 1)
    spanning = [row for c, row in pivots.items() if c not in forward]
    return kernel, (_moved(pivots.values(), (x1,)), _moved(spanning, others))


def _apolar_pass(lam: Subspace):
    """(Hilbert function, minimal generators) of ann(Lambda), both tuples,
    from the slices I_0 = 0, I_1, ..., I_d and h held on lam (see _slices).
    Each echelon row of I_j (j <= d + 1, with I_{d+1} = R_{d+1}, whose unit
    rows enter as they are) is reduced against the pivot rows of the forward
    elimination of R_1 * I_{j-1} and the generators found before it, each
    kept as a pivot row at its lead, all of them sparse rows; the residual
    (the one vector of row + span zero at every pivot column, up to scale,
    whatever basis is taken) is a generator if nonzero.  The result is kept
    on lam, which is frozen, for as long as lam lives, so the pass runs once
    per Lambda instance.

    Degree j holds e_j = dim I_j - rank(R_1 * I_{j-1}) generators, read
    off the elimination of R_1 * I_{j-1}, and the pass leaves it once it
    has found them: no later row is reduced.  Proof: the generators of
    degree j complement R_1 * I_{j-1} in I_j.  Each one found is nonzero
    modulo R_1 * I_{j-1} and the ones before it, so R_1 * I_{j-1} and the
    e_j found span a subspace of I_j of dimension dim I_j: all of I_j,
    and every later row has residual 0.  A degree with I_j = 0 holds none
    and is skipped.

    The elimination of R_1 * I_{j-1} stops (linalg._sparse_echelon's stop)
    once it holds dim I_j - f_j pivot rows, f_j a lower bound on e_j:
    f_j = e_j at n = 2 (below) and 0 at every other n.  Proof: R_1 * I_{j-1}
    lies in I_j, since I is an ideal, so its rank dim I_j - e_j is at most
    dim I_j - f_j.  Once the elimination holds that many pivot rows it holds
    the rank, every later row of it would vanish, and the pivot rows are
    those the whole elimination would give, so the residuals and generators
    are too.  At n >= 3, where a degree often holds no generator (dense
    spans are compressed: Iarrobino, Trans. AMS 285, 1984), such a degree
    takes the rows up to the first that bring the rank to dim I_j, and
    reduces none.  At n = 2, e_j = 2h_{j-1} - h_j - h_{j-2} is known before
    any elimination, so a degree with e_j = 0 is skipped before R_1 *
    I_{j-1} is eliminated.  Proof of the count: A = R/ann(Lambda) is level
    of socle degree d and type t (see apolar_profile), so by Hilbert-Burch
    its minimal resolution is 0 -> R(-d-2)^t -> sum_i R(-q_i) -> R -> A, the
    last module dual to the socle.  Hence
        (1 - z)^2 sum_j h_j z^j = 1 - sum_i z^{q_i} + t z^{d+2},
    and every q_i <= d + 1 since I_{d+1} = R_{d+1}.  Read at z^j, 1 <= j <=
    d + 1: the number of generators of degree j is -Delta^2 h_j, that is
    levelhf.e_sequence's count.
    """
    memo = lam.__dict__.get("_apolar_pass")
    if memo is not None:
        return memo
    if lam.dim == 0:
        raise ZeroSubspaceError("the zero subspace has no Hilbert function")
    n, d = lam.nvars, lam.degree
    slices, hf = _slices(lam)
    least = e_sequence(hf) if n == 2 else [0] * (d + 1)  # f_1, ..., f_{d+1}
    out = []
    units = [{c: 1} for c in range(space_dim(n, d + 1))]  # I_{d+1} = R_{d+1}
    for j, rows in enumerate((*slices[1:], units), start=1):
        if not (least[j - 1] if n == 2 else rows):
            continue
        pivots = _sparse_echelon(_times_variables(n, j - 1, slices[j - 1]), False,
                                 len(rows) - least[j - 1])
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
    function.  The generators come from the apolar pass (see _apolar_pass);
    each call returns new lists.
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
    g.F is (x^c g).w / c!, since u.F = sum u_b w_b for u in R_d.  At n = 2
    they are shifted copies of g's coefficients.  Column c of
    monomial_products(n, q, d - q) places them."""
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
    that stops early (see _apolar_pass) builds no row it does not take."""
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
    to (I^-1)_j modulo R_1.(I^-1)_{j+1}: u in (R/I)_j kills R_1.(I^-1)_{j+1}
    iff every x_i u kills (I^-1)_{j+1}, iff every x_i u lies in I_{j+1}.  So
    (I^-1)_j is taken, in divided-power coordinates, as the kernel of
    _condition_rows up to the first that is 0 (linalg's sparse_kernel, in
    the columns _contract reads), and the socle dimension in degree j is dim
    (I^-1)_j - rank(R_1.(I^-1)_{j+1}), by one rank (linalg.sparse_rank) per
    degree.  An artin quotient need not be level, unlike the apolar
    profile's.
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
    ((degree, dim), ...).  apolar_profile fills in ((d, dim Lambda),);
    is_level, type (dim Soc, the sum over every degree) and socle_degree
    read the field, whatever socle it was built with."""

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
    """Hilbert function and minimal generators from the apolar pass (see
    _apolar_pass); the socle is ((d, t),) with t = dim Lambda.

    By Macaulay duality (Iarrobino-Kanev, LNM 1721, 1.1) R/ann(Lambda) is
    level of socle degree d and type t for every nonzero Lambda in S_d.
    Proof: with I = ann(Lambda), I_j is the annihilator of Lambda_j in R_j
    (see _slices).  Take j < d and u in R_j with x_k u in I_{j+1} for every
    k.  Then u.(x_k.G) = (x_k u).G = 0 for each G in Lambda_{j+1}, so u
    kills R_1.Lambda_{j+1} = Lambda_j, and u is in I_j: no socle below d.
    In degree d the socle is all of (R/I)_d, dual to Lambda, of dimension
    t.
    """
    hf, gens = _apolar_pass(lam)
    return ApolarProfile(lam, hf, gens, ((lam.degree, lam.dim),))
