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
is its least column.  The route stays in integers, and its matrices are
sparse: over the seed-1 two-pass tangent_burch stream of the benchmark the
V_i rows are 9.2% nonzero and the constraint rows 3.7%.  So the residuals,
the V_i rows, the functionals and the constraint rows are {column: entry}
rows too, the form linalg's one elimination core takes, which keeps every
row over its content.  The functionals linalg.sparse_kernel reads off each
V_i are the rational ones times positive factors, so every constraint keeps
its zero set.  The dimension is the number of unknowns less the rank of the
constraint rows, which linalg.sparse_rank takes by a forward pass alone;
the TangentSpace keeps those rows and takes their sparse_kernel
only on the first access to its basis.

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
from .linalg import QQ, sparse_kernel, sparse_rank


@dataclass(frozen=True)
class TangentSpace:
    """Tangent space at a basepoint: its dimension, the shape of the
    constraint matrix that cuts it out, and the basepoint's Hilbert
    function.  `basis` holds Hom(I_d, R_d/I_d) matrices (rows: the echelon
    basis of I_d, columns: the monomials of R_d that are no pivot of I_d);
    it is built on first access from `constraints`, the sparse integer
    constraint rows and the block width."""

    basepoint: Subspace
    dimension: int
    constraint_shape: tuple[int, int]
    hilbert: HilbertFunction
    constraints: tuple = field(compare=False, repr=False)

    @cached_property
    def basis(self) -> tuple:
        """linalg.right_kernel's canonical basis of the constraints, each
        vector cut into blocks of the width: linalg.sparse_kernel's
        primitive vectors, each over its entry at its free column."""
        rows, width = self.constraints
        ncols = self.constraint_shape[1]
        basis = []
        for v in sparse_kernel(rows, ncols):
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
    (27-43%) but carry entries of up to hundreds of bits, and there the
    core's content division keeps each pivot row small where a Bareiss
    row grows into a minor of the input.

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
    dim_id = len(slices[d])
    coordinate = {min(u): k for k, u in enumerate(slices[d])}  # of u x^M in I_d
    tq = space_dim(n, d) - dim_id  # dim R_d/I_d
    # one positive integer times each monomial of R_d mod I_d, read at the
    # monomials that are no pivot of I_d
    residuals = _monomial_residuals(slices[d], space_dim(n, d))
    rows: list[dict[int, int]] = []
    lower: set[int] = set()  # x_k times the leads of I_{i-1}, if constrained; I_0 = 0
    for i, ii_rows in enumerate(slices[1:d], start=1):
        leads = [min(u) for u in ii_rows]
        kept = [u for u, p in zip(ii_rows, leads) if p not in lower]
        lower = ({xk[p] for xk in monomial_products(n, 1, i) for p in leads}
                 if i in wanted else set())
        if not kept or i not in wanted:
            continue
        ii_pivots = set(leads)
        nlow = space_dim(n, d - i)
        shift = monomial_products(n, i, d - i)
        # V_i: for each complement monomial w of R_i, the vector
        # sum_M (w x^M mod I_d) (x) y^M, coordinates (c over comp_d, M)
        v_rows = [{c * nlow + m_idx: x for m_idx, k in enumerate(shift[pos])
                   for c, x in residuals[k].items()}
                  for pos in range(space_dim(n, i)) if pos not in ii_pivots]
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
                    if r in coordinate:
                        gamma[m_idx].append((coordinate[r] * tq, uq))
            # z_l applied to sum_k gamma[k][m_idx] omega_{k, c} at (c, m_idx)
            for func in functionals:
                row: dict[int, int] = {}
                for c_idx, m_idx, coeff in func:
                    for offset, g in gamma[m_idx]:
                        row[offset + c_idx] = row.get(offset + c_idx, 0) + coeff * g
                row = {k: x for k, x in row.items() if x}
                if row:
                    rows.append(row)
    # the dimension is the number of unknowns less the rank; the kernel
    # and the basis are left to the first access
    ncols = dim_id * tq
    return TangentSpace(lam, ncols - sparse_rank(rows), (len(rows), ncols), hilbert,
                        (rows, tq))


def _monomial_residuals(rows, width: int) -> list[dict[int, int]]:
    """Each monomial reduced mod the span of integer reduced echelon rows
    (sparse rows), as a sparse row over the non-pivot positions p (numbered
    in order) and scaled by D, the lcm of the leads: -v[p] D / lead for the
    pivot monomial of row v (minus the rest of its RREF row, which is zero
    at the other pivots), D times a unit vector for any other monomial."""
    by_pivot = {min(v): v for v in rows}
    scale = lcm(*[v[p] for p, v in by_pivot.items()])
    position = {p: k for k, p in enumerate(p for p in range(width) if p not in by_pivot)}
    return [{position[p]: -x * (scale // v[o]) for p, x in v.items() if p != o}
            if (v := by_pivot.get(o)) else {position[o]: scale}
            for o in range(width)]


# Kept only because perfbench/workloads.py and perfbench/record_reference.py
# call this name; it goes when ROADMAP item 1 changes the benchmark.
tangent_space_dual = tangent_space
