"""Tangent spaces to the level strata, by exact linear algebra.

The tangent space at Lambda in G(t, S_d) to the stratum of its Hilbert
function h is Hom_R(I, A)_0, with I = ann(Lambda) and A = R/I
(Iarrobino-Kanev, LNM 1721; Kleppe, J. Algebra 200, 1998).  It is computed
on I_d inside R_d: a map omega: I_d -> R_d/I_d is tangent when, for every
i and every u in I_i, sum_M omega(u x^M) (x) y^M lies in the image V_i of
(R/I)_i in (R_d/I_d) (x) S_{d-i}.  This works for any number of variables;
for n = 2 the dimension must equal sum e_l h_l (levelhf.dim_stratum), and
for n >= 3 the tests check it against Hom_R(I, A)_0 built from the
generators and syzygies of I.

The route reads the slices I_j held on Lambda, computed once per Lambda
instance for every reader down the derivative chain of Lambda (one small
elimination a degree; see apolarity), and h_j = dim R_j - dim I_j, held
with them and read in one step.  The slices are sparse {column: entry}
rows, each the reduced echelon row times a positive factor, so a row's lead
is its least column; the chain writes every row with its columns in
increasing order (apolarity._chain_step), so the route reads that lead as
the row's first key, next(iter(row)), in the lead rule, in the block offsets
of I_d and in the residuals, where min(row) would scan the row.  A degree
whose slice is empty is skipped before any lead is read.  The route stays
in integers, and its matrices are
sparse: over the seed-1 two-pass tangent_burch stream of the benchmark the
V_i rows are 9.2% nonzero and the constraint rows 3.7%.  So the residuals,
the V_i rows, the functionals and the constraint rows are {column: entry}
rows too, the form linalg's one elimination core takes, which keeps every
row over its content.  The functionals linalg.sparse_kernel reads off each
V_i are the rational ones times positive factors, so every constraint keeps
its zero set.  The dimension is the number of unknowns less the rank of the
constraint rows, which linalg.sparse_rank takes by a forward pass alone
(but see the route choice); the TangentSpace keeps those rows and takes
their sparse_kernel only on the first access to its basis.

The route choice.  At n >= 3 (MODULAR_NVARS), when some constraint entry
is wider than the 61-bit prime of linalg.certified_rank (MODULAR_BITS),
the rank is that routine's instead: a forward pass mod the prime picks the
rows that become pivots, the exact core eliminates those alone, and every
other row is checked, exactly, against the kernel they give, which the
TangentSpace then keeps as its basis's kernel.  The rule reads the input
alone.  Below it the core's content division keeps the pivot rows narrow
and dependent rows are rare: the 133 points of the benchmark's
tangent_burch pool give 1,440 constraint rows of rank 1,410, with entries
1 bit wide, and there the certified route took 10.8 ms a pass where
sparse_rank took 0.9 ms (on 2 vCPUs).  At the seeded power-sum span (n, d,
t, s) = (4, 6, 2, 5), 212 of the 330 rows are dependent and the exact pivot
rows reach 609 bits: the route with the certified rank takes 0.7 s, the
basis included, where the exact rank and basis took 4.0 s.

The lead rule.  The conditions are R-linear, so the generators of I
already cut out the tangent space.  In degree i the route drops the rows of
I_i whose lead is x_k times a lead of I_{i-1}, when degree i-1 is
constrained too: if w witnesses the condition of u, x_k w witnesses that of
x_k u.  The slices are reduced echelon for an order that multiplying by x_k
keeps (first nonzero index), so a dropped row minus x_k times a row of
degree i-1 has a later lead: the kept rows span I_i modulo R_1 I_{i-1}, and
the tangent space does not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

from .apolarity import _slices
from .errors import DegreeError, HilbertMismatchError, ZeroSubspaceError
from .forms import Subspace, monomial_products, space_dim
from .levelhf import HilbertFunction
from .linalg import QQ, certified_rank, sparse_kernel, sparse_rank

# The constraint rows are ranked by linalg.certified_rank, not sparse_rank,
# at n >= MODULAR_NVARS when some entry is wider than MODULAR_BITS, the
# width of its prime (module docstring)
MODULAR_NVARS, MODULAR_BITS = 3, 61


@dataclass(frozen=True)
class TangentSpace:
    """Tangent space at a basepoint: its dimension, the shape of the
    constraint matrix that cuts it out, and the basepoint's Hilbert
    function.  `basis` holds Hom(I_d, R_d/I_d) matrices (rows: the echelon
    basis of I_d, columns: the monomials of R_d that are no pivot of I_d);
    it is built on first access from `constraints`, the sparse integer
    constraint rows, the block width and their kernel where the route
    certified one (linalg.certified_rank), else None."""

    basepoint: Subspace
    dimension: int
    constraint_shape: tuple[int, int]
    hilbert: HilbertFunction
    constraints: tuple = field(compare=False, repr=False)

    @cached_property
    def basis(self) -> tuple:
        """linalg.right_kernel's canonical basis of the constraints, each
        vector cut into blocks of the width: linalg.sparse_kernel's
        primitive vectors (or the certified kernel, the same vectors), each
        over its entry at its free column."""
        rows, width, kernel = self.constraints
        ncols = self.constraint_shape[1]
        basis = []
        for v in sparse_kernel(rows, ncols) if kernel is None else kernel:
            den = v[max(v)]  # at its free column
            vector = [QQ(0)] * ncols
            for k, x in v.items():
                vector[k] = QQ(x, den)
            basis.append(tuple(tuple(vector[b:b + width]) for b in range(0, ncols, width)))
        return tuple(basis)


def tangent_space(lam: Subspace, h: HilbertFunction | None = None,
                  degrees=None) -> TangentSpace:
    """Tangent space at Lambda to the stratum of its Hilbert function.

    The unknowns are the entries of omega: I_d -> R_d/I_d.  By the lead rule
    (module docstring) only the echelon rows of I_i whose lead is not x_k
    times a lead of I_{i-1} are used, and V_i is built and eliminated only
    in the degrees where one is.  Every row is a sparse {column: entry}
    row, eliminated by linalg.sparse_kernel (V_i) and linalg.sparse_rank
    (the constraint rows); they are 3.7-9.2% nonzero on the benchmark's
    stream.  At n >= 3 power-sum spans the constraint rows are denser
    (27-43%) and carry entries of up to hundreds of bits; where one is
    wider than 61 bits, linalg.certified_rank ranks them (the route choice
    of the module docstring).

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
    # the slices I_j held on lam, each a sparse row, its RREF row times a
    # positive factor; h_j = dim R_j - dim I_j
    slices, hilbert = _slices(lam)
    if h is not None and hilbert.values != h.values:
        raise HilbertMismatchError(
            f"subspace has Hilbert function {hilbert.format()}, not {h.format()}")
    wanted = set(wanted)
    dim_id = len(slices[d])
    tq = space_dim(n, d) - dim_id  # dim R_d/I_d
    # the block offset of the echelon row of I_d at each lead, the column of
    # its unknowns omega_{k, c} less c
    offset = {next(iter(u)): k * tq for k, u in enumerate(slices[d])}
    # one positive integer times each monomial of R_d mod I_d, read at the
    # monomials that are no pivot of I_d
    residuals = _monomial_residuals(slices[d], space_dim(n, d))
    rows: list[dict[int, int]] = []
    lower: set[int] = set()  # x_k times the leads of I_{i-1}, if constrained; I_0 = 0
    for i, ii_rows in enumerate(slices[1:d], start=1):
        if not ii_rows or i not in wanted:
            lower = set()
            continue
        leads = [next(iter(u)) for u in ii_rows]
        kept = [u for u, p in zip(ii_rows, leads) if p not in lower]
        lower = {xk[p] for xk in monomial_products(n, 1, i) for p in leads}
        if not kept:
            continue
        ii_pivots = set(leads)
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
        # membership in V_i: the right kernel of V_i holds, up to positive
        # factors, the residual functionals z_l = e_l - sum_k V_k[l] e_{piv_k}
        # of its RREF rows V_k, one per non-pivot coordinate l
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
    # route certified it (module docstring)
    ncols = dim_id * tq
    if n >= MODULAR_NVARS and any(x.bit_length() > MODULAR_BITS
                                  for row in rows for x in row.values()):
        rank, kernel = certified_rank(rows, ncols)
    else:
        rank, kernel = sparse_rank(rows), None
    return TangentSpace(lam, ncols - rank, (len(rows), ncols), hilbert, (rows, tq, kernel))


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
