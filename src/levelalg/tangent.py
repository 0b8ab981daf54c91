"""Tangent spaces to the level strata, by exact linear algebra.

A tangent vector at Lambda in G(t, S_d) is a map tau: Lambda -> S_d/Lambda.
It is tangent to the stratum of the Hilbert function h exactly when, for
every i, pushing tau through the product map R_{d-i} (x) Lambda -> S_i
kills the kernel of that map modulo Lambda_i.  The dual route runs the same
computation on I_d inside R_d.  Both routes work for any number of
variables; for n = 2 the dimension must equal sum e_l h_l, and the n >= 3
output is validated only by internal consistency.

Both routes stay in integers, building each matrix once and eliminating it
once with linalg.integer_echelon; the relations and residual functionals
linalg.integer_kernel builds from it are the rational ones times positive
factors, so every constraint keeps its zero set.  Kernel vectors are built
only for the free columns a route reads.  The final elimination gives the
dimension, the number of unknowns less the rank; the TangentSpace keeps its
integer echelon form and builds the basis from it on first access.  Each
route checks h against the Hilbert function read off what it computes
anyway, and returns it.  On the primal route one elimination of the
catalecticant cat_i gives h_i and the functionals of its cokernel
S_i / Lambda_i, built only for the free columns the lead rule keeps in a
constrained degree; its transpose, which gives the relations, is eliminated
only where a functional is kept, since each constraint pairs a relation
with a functional.  The dual route reads the slices I_j held on Lambda,
computed once per Lambda instance for every reader down the derivative
chain of Lambda (one small elimination a degree; see apolarity), and
h_j = dim R_j - dim I_j.

The lead rule.  The conditions are R-linear, so the generators of
I = ann(Lambda) already cut out the tangent space Hom_R(I, A)_0
(Iarrobino-Kanev, LNM 1721; Kleppe, J. Algebra 200, 1998).  In degree i
each route drops the rows whose lead is x_k times a lead of degree i-1:
- dual: if w witnesses the condition of u, x_k w witnesses that of x_k u;
- primal: the condition of (relation w, functional x_k v) is that of
  (x_k w, v) in degree i-1, so degree i-1 must be constrained too.
Both row sets are reduced echelon for an order that multiplying by x_k
keeps (first nonzero index for the slices, last for the kernel vectors), so
a dropped row minus x_k times a row of degree i-1 has a later lead: the kept
rows span I_i modulo R_1 I_{i-1}, and the tangent space does not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .apolarity import _action_table, _ann_rows, _monomial_residuals, integer_catalecticant
from .errors import DegreeError, HilbertMismatchError, ZeroSubspaceError
from .forms import Subspace, _lead, monomial_products, space_dim
from .levelhf import HilbertFunction, dim_stratum
from .linalg import QQ, free_columns, integer_echelon, integer_kernel, transpose


@dataclass(frozen=True)
class TangentSpace:
    """Tangent space at a basepoint: its dimension, the shape of the
    constraint matrix that cuts it out, and the basepoint's Hilbert
    function.  `basis` holds Hom(Lambda, S_d/Lambda) matrices in the echelon
    coordinates (rows: basis of Lambda, columns: complement monomials of
    S_d; on the dual route I_d and R_d/I_d); it is built on first access
    from `echelon`, the integer echelon form of the constraint rows and the
    block width."""

    basepoint: Subspace
    dimension: int
    constraint_shape: tuple[int, int]
    hilbert: HilbertFunction
    echelon: tuple = field(compare=False, repr=False)

    @cached_property
    def basis(self) -> tuple:
        """linalg.right_kernel's canonical basis of the constraints: each
        integer kernel vector over its entry at its free column, cut into
        blocks of the width."""
        rows, pivots, den, width = self.echelon
        ncols = self.constraint_shape[1]
        free, zero = free_columns(pivots, ncols), QQ(0)
        kernel = integer_kernel(rows, pivots, den, ncols, free)
        return tuple(tuple(tuple(row[b:b + width]) for b in range(0, ncols, width))
                     for row in ([QQ(x, v[f]) if x else zero for x in v]
                                 for v, f in zip(kernel, free)))


def tangent_dim_formula(h: HilbertFunction) -> int:
    """sum over l of e_l H(A, l): the n = 2 closed form for the dimension."""
    return dim_stratum(h)


def _verified(values: list[int], h: HilbertFunction | None) -> HilbertFunction:
    actual = HilbertFunction.from_values(values)
    if h is not None and actual.values != h.values:
        raise HilbertMismatchError(
            f"subspace has Hilbert function {actual.format()}, not {h.format()}"
        )
    return actual


def _solved(lam: Subspace, rows: list[list[int]], nblocks: int, width: int,
            hilbert: HilbertFunction) -> TangentSpace:
    """The tangent space cut out by integer constraint rows over nblocks x
    width unknowns, row-major: its dimension is the number of unknowns less
    the rank, and its basis is left to the first access."""
    ncols = nblocks * width
    echelon, pivots, den = integer_echelon(rows, ncols)
    return TangentSpace(lam, ncols - len(pivots), (len(rows), ncols), hilbert,
                        (echelon, pivots, den, width))


def tangent_space(lam: Subspace, h: HilbertFunction | None = None,
                  degrees=None) -> TangentSpace:
    """Tangent space at Lambda to the stratum of its Hilbert function.

    Unknowns are the entries of tau; for each degree i with nontrivial
    kernel of the product map alpha_i, each kernel vector contributes one
    linear condition per complement coordinate of Lambda_i in S_i.  One
    elimination of cat_i gives h_i and those coordinates; by the lead rule
    (module docstring) a coordinate whose functional ends at x_k times a
    free column of cat_{i-1}, a constrained degree, is left out, and its
    functional is never built.  The kernel
    vectors (relations, from cat_i transposed) are computed only in the
    wanted degrees where a coordinate is kept, since elsewhere no condition
    is left.

    `degrees` restricts the constraints to a subset of 1..d-1 (the default),
    i.e. computes the tangent space of an intersection of fewer rank loci;
    dropping degrees can only grow the space.  The Hilbert function is
    checked in every degree whatever `degrees` holds.
    """
    if lam.dim == 0:
        raise ZeroSubspaceError("tangent space needs a nonzero subspace")
    n, d, t = lam.nvars, lam.degree, lam.dim
    wanted = list(range(1, d) if degrees is None else degrees)
    comp_d = lam.complement_positions()
    width_d = len(comp_d)
    if any(not 0 <= i <= d for i in wanted):
        raise DegreeError(f"constraint degrees {wanted} not all in 0..{d}")
    # h_0 = 1, and Lambda_0 = S_0 leaves no constraint and no free column
    values, rows, lower = [1], [], set()
    for i in range(1, d + 1):
        # one elimination of cat_i gives h_i and its right kernel: coordinate
        # ell of the residual mod Lambda_i, up to a positive factor, is the
        # pairing with z_ell.  Where Lambda_i = S_i there is none, and the
        # relations could only feed empty blocks.
        cat, scales = integer_catalecticant(lam, i)
        width_i = space_dim(n, i)
        echelon, pivots, den = integer_echelon(cat, width_i)
        values.append(len(pivots))
        # a functional ends at its free column; those ending at x_k times a
        # free column of cat_{i-1}, a constrained degree, add no condition
        free = free_columns(pivots, width_i)
        kept = [f for f in free if f not in lower]
        lower = ({xk[f] for xk in monomial_products(n, 1, i) for f in free}
                 if i in wanted else set())
        if not kept or i not in wanted:
            continue
        functionals = integer_kernel(echelon, pivots, den, width_i, kept)
        # the relations among the rows of cat_i, from cat_i^T; times the row
        # scales they relate the basis forms
        t_echelon, t_pivots, t_den = integer_echelon(transpose(cat), len(cat))
        relations = integer_kernel(t_echelon, t_pivots, t_den, len(cat),
                                   free_columns(t_pivots, len(cat)))
        residual = [[(ell, z[o]) for ell, z in enumerate(functionals) if z[o]]
                    for o in range(width_i)]
        # relation coordinate (x^M, p) times each complement monomial g of
        # S_d in basis form p's image: x^M . g mod Lambda_i, spread over the
        # (ell, unknown of tau(F_p) at g) cells of the constraint block
        spread = [[(ell, p * width_d + g_idx, scales[p] * entries[g][1] * x)
                   for g_idx, g in enumerate(comp_d) if g in entries
                   for ell, x in residual[entries[g][0]]]
                  for entries in _action_table(n, d - i, d) for p in range(t)]
        for w in relations:
            block = [[0] * (t * width_d) for _ in functionals]
            for r, c in enumerate(w):
                if c:
                    for ell, col, x in spread[r]:
                        block[ell][col] += c * x
            rows.extend(row for row in block if any(row))
    return _solved(lam, rows, t, width_d, _verified(values, h))


def tangent_space_dual(lam: Subspace, h: HilbertFunction | None = None) -> TangentSpace:
    """The same tangent space computed on I_d inside R_d.

    An omega: I_d -> R_d/I_d is tangent iff for every i and every u in I_i,
    sum_M omega(u x^M) (x) y^M lands in the image of (R/I)_i under the
    beta-style inclusion into (R_d/I_d) (x) S_{d-i}.  By the lead rule
    (module docstring) only the echelon rows of I_i whose lead is not x_k
    times a lead of I_{i-1} are used, and V_i is built and eliminated only
    in the degrees where one is.
    """
    if lam.dim == 0:
        raise ZeroSubspaceError("tangent space needs a nonzero subspace")
    n, d = lam.nvars, lam.degree
    # the slices I_j held on lam, each row its RREF row times a positive
    # factor; h_j = dim R_j - dim I_j
    slices = [_ann_rows(lam, j) for j in range(d + 1)]
    hilbert = _verified([space_dim(n, j) - len(rows) for j, rows in enumerate(slices)], h)
    dim_id = len(slices[d])
    coordinate = {_lead(u): k for k, u in enumerate(slices[d])}  # of u x^M in I_d
    tq = space_dim(n, d) - dim_id  # dim R_d/I_d
    # one positive integer times each monomial of R_d mod I_d, read at
    # comp_d, the monomials that are no pivot of I_d
    residuals = _monomial_residuals(slices[d], space_dim(n, d))
    rows: list[list[int]] = []
    lower: set[int] = set()  # x_k times the leads of I_{i-1}; I_0 = 0
    for i, ii_rows in enumerate(slices[1:d], start=1):
        leads = [_lead(u) for u in ii_rows]
        kept = [u for u, p in zip(ii_rows, leads) if p not in lower]
        lower = {xk[p] for xk in monomial_products(n, 1, i) for p in leads}
        if not kept:
            continue
        ii_pivots = set(leads)
        nlow = space_dim(n, d - i)
        shift = monomial_products(n, i, d - i)
        # V_i: for each complement monomial w of R_i, the vector
        # sum_M (w x^M mod I_d) (x) y^M, coordinates (c over comp_d, M)
        v_rows = [[residuals[shift[pos][m_idx]][c_idx]
                   for c_idx in range(tq) for m_idx in range(nlow)]
                  for pos in range(space_dim(n, i)) if pos not in ii_pivots]
        # membership in V_i: the right kernel of V_i holds, up to positive
        # factors, the residual functionals z_l = e_l - sum_k V_k[l] e_{piv_k}
        # of its RREF rows V_k, one per non-pivot coordinate l
        v_echelon, v_pivots, v_den = integer_echelon(v_rows, tq * nlow)
        kernel = integer_kernel(v_echelon, v_pivots, v_den, tq * nlow,
                                free_columns(v_pivots, tq * nlow))
        functionals = [[divmod(a, nlow) + (x,) for a, x in enumerate(z) if x] for z in kernel]
        for u in kept:
            # gamma[m_idx]: (block offset of I_d basis vector k, its coefficient
            # in u * x^M) for the nonzero coefficients
            gamma = [[] for _ in range(nlow)]
            for q, uq in enumerate(u):
                if uq:
                    for m_idx, r in enumerate(shift[q]):
                        if r in coordinate:
                            gamma[m_idx].append((coordinate[r] * tq, uq))
            # z_l applied to sum_k gamma[k][m_idx] omega_{k, c} at (c, m_idx)
            for func in functionals:
                row = [0] * (dim_id * tq)
                for c_idx, m_idx, coeff in func:
                    for offset, g in gamma[m_idx]:
                        row[offset + c_idx] += coeff * g
                if any(row):
                    rows.append(row)
    return _solved(lam, rows, dim_id, tq, hilbert)
