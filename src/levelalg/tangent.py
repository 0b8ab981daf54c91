"""Tangent spaces to the level strata, by exact linear algebra.

The tangent space at Lambda in G(t, S_d) to the stratum of its Hilbert
function h is Hom_R(I, A)_0, with I = ann(Lambda) and A = R/I
(Iarrobino-Kanev, LNM 1721; Kleppe, J. Algebra 200, 1998).  It is computed
on I_d inside R_d: a map omega: I_d -> R_d/I_d is tangent when, for every
i and every u in I_i, sum_M omega(u x^M) (x) y^M lies in the image V_i of
(R/I)_i in (R_d/I_d) (x) S_{d-i}.  This works for any number of variables;
for n = 2 the dimension must equal sum e_l h_l (levelhf.dim_stratum), and
for n >= 3 the tests check it against Hom_R(I, A)_0 built from the
generators and syzygies of I.  The route choice is argued in
tangent_space, the lead rule in _lead_generators, the graph route in _forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm

from .apolarity import _slices
from .errors import DegreeError, HilbertMismatchError, ZeroSubspaceError
from .forms import Subspace, monomial_products, space_dim
from .levelhf import HilbertFunction
from .linalg import QQ, certified_rank, sparse_kernel, sparse_rank

# where linalg.certified_rank ranks the constraint rows (see tangent_space)
MODULAR_NVARS, MODULAR_BITS = 3, 61


@dataclass(frozen=True)
class TangentSpace:
    """Tangent space at a basepoint: its dimension, the shape of the
    constraint matrix that cuts it out, and the basepoint's Hilbert
    function.  `basis` holds Hom(I_d, R_d/I_d) matrices (rows: the echelon
    basis of I_d, columns: the monomials of R_d that are no pivot of I_d);
    it is built on first access from `constraints`, which is (rows, width,
    kernel, forest): on the row route the sparse integer constraint rows,
    the block width, their kernel where the route certified one
    (linalg.certified_rank), else None, and None; on the graph route no
    rows, the width, None and the union-find forest of _forest, whose
    components give the basis."""

    basepoint: Subspace
    dimension: int
    constraint_shape: tuple[int, int]
    hilbert: HilbertFunction
    constraints: tuple = field(compare=False, repr=False)

    @cached_property
    def basis(self) -> tuple:
        """linalg.right_kernel's canonical basis of the constraints, each
        vector cut into blocks of the width: linalg.sparse_kernel's
        primitive vectors (or the certified kernel, or the forest's
        component indicators, the same vectors), each over its entry at its
        free column."""
        rows, width, kernel, forest = self.constraints
        ncols = self.constraint_shape[1]
        if forest is not None:
            kernel = _components(forest)
        elif kernel is None:
            kernel = sparse_kernel(rows, ncols)
        basis = []
        for v in kernel:
            den = v[max(v)]  # at its free column
            vector = [QQ(0)] * ncols
            for k, x in v.items():
                vector[k] = QQ(x, den)
            basis.append(tuple(tuple(vector[b:b + width]) for b in range(0, ncols, width)))
        return tuple(basis)


def tangent_space(lam: Subspace, h: HilbertFunction | None = None,
                  degrees=None) -> TangentSpace:
    """Tangent space at Lambda to the stratum of its Hilbert function.

    The unknowns are the entries of omega: I_d -> R_d/I_d; the conditions
    are those of the rows of I_i that the lead rule keeps (see
    _lead_generators), read off the slices held on Lambda (see
    apolarity._slices), in integers.

    The route choice, read off the input alone.  Where every echelon row of
    I_d is a unit vector (I_d is spanned by monomials, as at every Burch
    point and monomial subspace, or I_d = 0), the conditions are the edges
    of a graph, ranked by a union-find with no row built (the graph route;
    see _forest).  Elsewhere (the row route) V_i's functionals are
    linalg.sparse_kernel's, the rational ones times positive factors, so
    every constraint row keeps its zero set, and the constraint rows are
    ranked by the forward pass of linalg.sparse_rank, their kernel left to
    the first access to the basis; or, at n >= MODULAR_NVARS where some
    entry is wider than MODULAR_BITS (its prime's width), by
    linalg.certified_rank, whose kernel the basis then reads.  That routine
    pays on wide rows of which many are dependent, as at power-sum spans in
    three or more variables; below the rule the rows stay narrow and
    dependent ones are rare, and the forward pass is the cheaper rank.

    `degrees` restricts the constraints to a subset of 1..d-1 (the default),
    i.e. computes the tangent space of an intersection of fewer rank loci;
    dropping degrees can only grow the space.  The Hilbert function is
    checked in every degree whatever `degrees` holds.
    """
    if lam.dim == 0:
        raise ZeroSubspaceError("tangent space needs a nonzero subspace")
    n, d = lam.nvars, lam.degree
    wanted = list(range(1, d) if degrees is None else degrees)
    if any(not 0 <= i <= d for i in wanted):
        raise DegreeError(f"constraint degrees {wanted} not all in 0..{d}")
    slices, hilbert = _slices(lam)
    if h is not None and hilbert.values != h.values:
        raise HilbertMismatchError(
            f"subspace has Hilbert function {hilbert.format()}, not {h.format()}")
    dim_id = len(slices[d])
    tq = space_dim(n, d) - dim_id  # dim R_d/I_d
    ncols = dim_id * tq
    # the block offset of the echelon row of I_d at each lead, the column of
    # its unknowns omega_{k, c} less c
    offset = {next(iter(u)): k * tq for k, u in enumerate(slices[d])}
    generators = _lead_generators(slices, n, d, set(wanted))
    if all(len(u) == 1 for u in slices[d]):
        nrows, rank, forest = _forest(generators, offset, n, d, tq)
        return TangentSpace(lam, ncols - rank, (nrows, ncols), hilbert,
                            ((), tq, None, forest))
    # one positive integer times each monomial of R_d mod I_d, read at the
    # monomials that are no pivot of I_d
    residuals = _monomial_residuals(slices[d], space_dim(n, d))
    rows: list[dict[int, int]] = []
    for i, kept, ii_pivots in generators:
        nlow = space_dim(n, d - i)
        shift = monomial_products(n, i, d - i)
        # V_i: for each complement monomial w of R_i, the vector
        # sum_M (w x^M mod I_d) (x) y^M, coordinates (c over comp_d, M)
        v_rows = []
        for pos, products in enumerate(shift):
            if pos in ii_pivots:
                continue
            row = {}
            for m_idx, k in enumerate(products):
                for c, x in residuals[k]:
                    row[c * nlow + m_idx] = x
            v_rows.append(row)
        # membership in V_i: its right kernel holds the residual functionals
        # z_l = e_l - sum_k V_k[l] e_{piv_k} of its RREF rows V_k, one per
        # non-pivot coordinate l
        functionals = [[divmod(a, nlow) + (x,) for a, x in z.items()]
                       for z in sparse_kernel(v_rows, tq * nlow)]
        for u in kept:
            # gamma[m_idx]: (block offset of I_d basis vector k, its coefficient
            # in u * x^M) for the nonzero coefficients
            gamma = [[] for _ in range(nlow)]
            for q, uq in u.items():
                for m_idx, r in enumerate(shift[q]):
                    at = offset.get(r)
                    if at is not None:
                        gamma[m_idx].append((at, uq))
            # z_l applied to sum_k gamma[k][m_idx] omega_{k, c} at (c, m_idx)
            for func in functionals:
                row: dict[int, int] = {}
                for c_idx, m_idx, coeff in func:
                    for at, g in gamma[m_idx]:
                        at += c_idx
                        row[at] = row.get(at, 0) + coeff * g
                row = {k: x for k, x in row.items() if x}
                if row:
                    rows.append(row)
    # the dimension is the number of unknowns less the rank; the basis is
    # left to the first access, and so is the kernel, unless the modular
    # route certified it (the route choice above)
    if n >= MODULAR_NVARS and any(x.bit_length() > MODULAR_BITS
                                  for row in rows for x in row.values()):
        rank, kernel = certified_rank(rows, ncols)
    else:
        rank, kernel = sparse_rank(rows), None
    return TangentSpace(lam, ncols - rank, (len(rows), ncols), hilbert,
                        (rows, tq, kernel, None))


def _lead_generators(slices, n: int, d: int, wanted: set) -> list:
    """(i, kept, leads) for each degree i in wanted, 0 < i < d, that keeps a
    row of I_i by the lead rule: kept the rows of I_i whose lead is not x_k
    times a lead of I_{i-1}, when degree i - 1 is constrained (I_0 = 0),
    and leads the set of every lead of I_i.

    The lead rule leaves the tangent space as it is.  Proof: the conditions
    are R-linear, so the generators of I already cut out the tangent space:
    if w witnesses the condition of u, x_k w witnesses that of x_k u, so
    degree i - 1, when constrained, imposes those of R_1 I_{i-1}.  The
    slices are reduced echelon for an order that multiplying by x_k keeps
    (first nonzero index), so a dropped row minus x_k times a row of degree
    i - 1 has a later lead: the kept rows span I_i modulo R_1 I_{i-1}, and
    the tangent space does not change."""
    out = []
    lower: set[int] = set()  # x_k times the leads of I_{i-1}, if constrained
    for i, ii_rows in enumerate(slices[1:d], start=1):
        if not ii_rows or i not in wanted:
            lower = set()
            continue
        leads = [next(iter(u)) for u in ii_rows]
        kept = [u for u, p in zip(ii_rows, leads) if p not in lower]
        lower = {xk[p] for xk in monomial_products(n, 1, i) for p in leads}
        if kept:
            out.append((i, kept, set(leads)))
    return out


def _forest(generators, offset, n: int, d: int, tq: int) -> tuple:
    """The graph route: (number of constraint rows, their rank, forest) where
    every echelon row of I_d is a unit vector, with no row built.  forest
    is the parent list of a union-find over the unknowns omega_{k, c}
    (column k tq + c) and a ground vertex after them.

    Proof.  The pairing of R_d with S_d is diagonal on monomials, so I_d =
    Lambda^perp is spanned by monomials iff Lambda is; then every slice is
    (apolarity._slices reads them off divisibility): every row of I_i, and
    so every kept generator u, is a unit vector x^q, and u x^M is the pivot
    monomial of the row k(M) of I_d for every M of degree d - i.  Each
    residual of a monomial of R_d mod I_d is empty (a pivot monomial) or one
    entry D at one free position, D the lcm of the unit leads.  So, with f_c
    the monomial at free position c, the column (c, M) of V_i is touched by
    the row of w = f_c / x^M where x^M divides f_c (w is no pivot of I_i, as
    w x^M is none of I_d) and by no row where it does not (_quotients): the
    rows of V_i have disjoint supports and every entry D, and each is
    nonzero (a w that is no pivot of I_i = (I_d : R_{d-i}) has some w x^M
    that is none of I_d).  Over their contents they are their own reduced
    echelon form, and linalg.sparse_kernel's functional at a column (c, M)
    that leads no row is e_(c, M) if no row touches it, else e_(c, M) -
    e_(c', M') with (c', M') the lead (least column) of the row that holds
    it; a lead gives none.  Applied to u these give the residuals: for each
    (u, column) pair exactly one nonzero row, omega_{k(M), c} (an untouched
    column) or omega_{k(M), c} - omega_{k(M'), c'}, times the entry of u,
    and k(M) != k(M') since a row of V_i holds one column for each M.  So
    each row has +-1 at two distinct unknowns, or 1 at one, over its
    content: the incidence rows of the graph whose edges join the two
    unknowns, or the one to ground, with ground's column dropped.  The rank
    of a graph's incidence rows is the number of edges of a spanning forest
    (the edges of a cycle sum to zero with signs, a forest's are
    independent, and ground's column is minus the sum of its component's
    others), the edges a union-find joins two roots by.  The kernel is the
    vectors constant on each component and 0 on ground's: the indicator
    vector of each component without ground.  The rows of such a component C
    span the sum-zero vectors on C, whose reduced echelon form has every
    column of C but the largest as a pivot, so C's largest column is its one
    free column and C's indicator, over its entry there, is sparse_kernel's
    vector of that column; over all components these come in the order of
    their largest columns (a component's columns are no other's).  Here each
    union hangs the smaller root under the larger and ground is numbered
    after every unknown, and path halving only moves a vertex under a later
    one, so every parent follows its child: ground stays a root, and each
    other root is its component's largest column (_components)."""
    ground = len(offset) * tq
    parent = list(range(ground + 1))
    # the monomials of R_d that are no pivot of I_d, by free position c
    free = [k for k in range(space_dim(n, d)) if k not in offset]
    nrows = rank = 0
    for i, kept, _ in generators:
        # the edges of the columns (c, M) of V_i that lead no V_i row, in
        # column order: (M, c, M', c') with (c', M') the lead of the row of
        # w = f_c / x^M, or (M, c, None, None) where x^M does not divide f_c
        edges, lead_of, over = [], {}, _quotients(n, i, d - i)
        for c, f in enumerate(free):
            for m_idx, w in enumerate(over[f]):
                if w is None:
                    edges.append((m_idx, c, None, None))
                elif w in lead_of:
                    edges.append((m_idx, c) + lead_of[w])
                else:
                    lead_of[w] = (m_idx, c)
        nrows += len(kept) * len(edges)
        shift = monomial_products(n, i, d - i)
        for u in kept:
            # the block offset of the row of I_d at u x^M, for each M
            at = [offset[r] for r in shift[next(iter(u))]]
            for m_idx, c, m_lead, c_lead in edges:
                a = at[m_idx] + c
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                if m_lead is None:
                    b = ground
                else:
                    b = at[m_lead] + c_lead
                    while parent[b] != b:
                        parent[b] = b = parent[parent[b]]
                if a != b:
                    rank += 1
                    if a < b:
                        parent[a] = b
                    else:
                        parent[b] = a
    return nrows, rank, parent


@lru_cache(maxsize=None)
def _quotients(n: int, a: int, b: int) -> tuple:
    """[k][m]: the index of the k-th monomial of degree a + b over the m-th
    of degree b, or None where that one does not divide it (the inverse of
    forms.monomial_products)."""
    out = [[None] * space_dim(n, b) for _ in range(space_dim(n, a + b))]
    for w, products in enumerate(monomial_products(n, a, b)):
        for m, k in enumerate(products):
            out[k][m] = w
    return tuple(map(tuple, out))


def _components(forest) -> list[dict[int, int]]:
    """The indicator vector {column: 1} of each component of the union-find
    forest of _forest that does not hold ground (its last vertex), in the
    order of their largest columns: its roots.  Every parent follows its
    child, so one sweep down reads each root."""
    root = list(forest)
    for a in range(len(root) - 1, -1, -1):
        root[a] = root[root[a]]
    ground = len(root) - 1
    components: dict[int, dict[int, int]] = {}
    for a in range(ground):
        if root[a] != ground:
            components.setdefault(root[a], {})[a] = 1
    return [components[r] for r in sorted(components)]


def _monomial_residuals(rows, width: int) -> list:
    """Each monomial reduced mod the span of integer reduced echelon rows
    (sparse rows, each led by its first key), as a sequence of (position,
    entry) pairs over the non-pivot positions p (numbered in order) and scaled by D, the
    lcm of the leads: -v[p] D / lead for the pivot monomial of row v (minus
    the rest of its RREF row, which is zero at the other pivots), D times a
    unit vector for any other monomial.  One sweep from the last monomial
    down, which numbers each non-pivot position before a row reads it."""
    by_pivot = {next(iter(v)): v for v in rows}
    scale = lcm(*[v[p] for p, v in by_pivot.items()])
    out: list = [()] * width
    position = {}
    free = width - len(by_pivot)
    for o in range(width - 1, -1, -1):
        v = by_pivot.get(o)
        if v is None:
            free -= 1
            position[o] = free
            out[o] = ((free, scale),)
        elif len(v) > 1:
            factor = scale // v[o]
            out[o] = [(position[p], -x * factor) for p, x in v.items() if p != o]
    return out


# Kept only because perfbench/workloads.py and perfbench/record_reference.py
# call this name; it goes when ROADMAP item 1 changes the benchmark.
tangent_space_dual = tangent_space
