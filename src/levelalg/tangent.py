"""Tangent spaces to the level strata, by exact linear algebra.

A tangent vector at Lambda in G(t, S_d) is a map tau: Lambda -> S_d/Lambda.
It is tangent to the stratum of the Hilbert function h exactly when, for
every i, pushing tau through the product map R_{d-i} (x) Lambda -> S_i
kills the kernel of that map modulo Lambda_i.  The dual route runs the same
computation on I_d inside R_d.  Both routes work for any number of
variables; for n = 2 the dimension must equal sum e_l h_l, and the n >= 3
output is validated only by internal consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apolarity import _action_table, ann_slice, catalecticant_matrix, hilbert_function
from .errors import HilbertMismatchError, ZeroSubspaceError
from .forms import Form, Subspace, monomial_index, monomials
from .levelhf import HilbertFunction, dim_stratum
from .linalg import QQ, right_kernel, rref, transpose


@dataclass(frozen=True)
class TangentSpace:
    """Tangent space at a basepoint, with a basis of Hom(Lambda, S_d/Lambda)
    matrices in the echelon coordinates (rows: basis of Lambda, columns:
    complement monomials of S_d)."""

    basepoint: Subspace
    dimension: int
    basis: tuple
    constraint_shape: tuple[int, int]


def tangent_dim_formula(h: HilbertFunction) -> int:
    """sum over l of e_l H(A, l): the n = 2 closed form for the dimension."""
    return dim_stratum(h)


def _check_hf(lam: Subspace, h: HilbertFunction | None) -> HilbertFunction:
    actual = hilbert_function(lam)
    if h is not None and tuple(actual.values) != tuple(h.values):
        raise HilbertMismatchError(
            f"subspace has Hilbert function {actual.format()}, not {h.format()}"
        )
    return actual


def tangent_space(lam: Subspace, h: HilbertFunction | None = None,
                  degrees=None) -> TangentSpace:
    """Tangent space at Lambda to the stratum of its Hilbert function.

    Unknowns are the entries of tau; for each degree i with nontrivial
    kernel of the product map alpha_i, each kernel vector contributes one
    linear condition per complement coordinate of Lambda_i in S_i.

    `degrees` restricts the constraints to a subset of 1..d-1 (the default),
    i.e. computes the tangent space of an intersection of fewer rank loci;
    dropping degrees can only grow the space.
    """
    if lam.dim == 0:
        raise ZeroSubspaceError("tangent space needs a nonzero subspace")
    _check_hf(lam, h)
    n, d, t = lam.nvars, lam.degree, lam.dim
    comp_d = lam.complement_positions()
    ncols = t * len(comp_d)
    rows: list[list] = []
    for i in (range(1, d) if degrees is None else degrees):
        cat = catalecticant_matrix(lam, i)
        kernel = right_kernel(transpose(cat), ncols=len(cat))
        if not kernel:
            continue
        lam_i = Subspace.from_rows(n, i, "S", cat)
        comp_i = lam_i.complement_positions()
        if not comp_i:
            continue
        quotient = lam_i.monomial_residuals()
        zero = [QQ(0)] * len(comp_i)
        # residual coordinates of x^M . (complement monomial g), reduced mod Lambda_i
        reduced: list[list[list]] = []
        for entries in _action_table(n, d - i, d):
            per_m = []
            for g in comp_d:
                hit = entries.get(g)
                per_m.append(zero if hit is None
                             else [hit[1] * x for x in quotient[hit[0]]])
            reduced.append(per_m)
        nmons = len(reduced)
        for kv in kernel:
            # kernel coordinates are ordered (monomial outer, basis form inner)
            for ell in range(len(comp_i)):
                row = [QQ(0)] * ncols
                for m_idx in range(nmons):
                    for p in range(t):
                        c = kv[m_idx * t + p]
                        if c == 0:
                            continue
                        per_m = reduced[m_idx]
                        for g_idx in range(len(comp_d)):
                            val = per_m[g_idx][ell]
                            if val != 0:
                                row[p * len(comp_d) + g_idx] += c * val
                if any(x != 0 for x in row):
                    rows.append(row)
    kernel_basis = right_kernel(rows, ncols=ncols)
    basis = tuple(
        tuple(tuple(v[p * len(comp_d) + g] for g in range(len(comp_d)))
              for p in range(t))
        for v in kernel_basis
    )
    return TangentSpace(lam, len(kernel_basis), basis, (len(rows), ncols))


def tangent_space_dual(lam: Subspace, h: HilbertFunction | None = None) -> TangentSpace:
    """The same tangent space computed on I_d inside R_d.

    An omega: I_d -> R_d/I_d is tangent iff for every i and every u in I_i,
    sum_M omega(u x^M) (x) y^M lands in the image of (R/I)_i under the
    beta-style inclusion into (R_d/I_d) (x) S_{d-i}.
    """
    if lam.dim == 0:
        raise ZeroSubspaceError("tangent space needs a nonzero subspace")
    _check_hf(lam, h)
    n, d = lam.nvars, lam.degree
    id_slice = ann_slice(lam, d).subspace
    dim_id = id_slice.dim
    comp_d = id_slice.complement_positions()  # coordinates of R_d/I_d
    tq = len(comp_d)
    ncols = dim_id * tq
    residuals = id_slice.monomial_residuals()
    index_d = monomial_index(n, d)
    rows: list[list] = []
    for i in range(1, d):
        ii = ann_slice(lam, i).subspace
        if ii.dim == 0:
            continue
        mons_low = monomials(n, d - i)
        comp_i = ii.complement_positions()
        mons_i = monomials(n, i)
        # V_i: for each complement monomial w of R_i, the vector
        # sum_M (w x^M mod I_d) (x) y^M, coordinates (c over comp_d, M)
        amb = tq * len(mons_low)
        v_rows = []
        for pos in comp_i:
            vec = [QQ(0)] * amb
            for m_idx, m_exp in enumerate(mons_low):
                w_m = tuple(a + b for a, b in zip(mons_i[pos], m_exp))
                for c_idx, x in enumerate(residuals[index_d[w_m]]):
                    vec[c_idx * len(mons_low) + m_idx] = x
            v_rows.append(vec)
        v_echelon, v_pivots = rref(v_rows)
        v_basis = [v_echelon[k] for k in range(len(v_pivots))]
        v_pivot_set = set(v_pivots)
        v_comp = [c for c in range(amb) if c not in v_pivot_set]
        if not v_comp:
            continue
        for u in ii.basis:
            # gamma[k][m_idx]: coefficient of I_d basis vector k in u * x^M
            gamma = [[QQ(0)] * len(mons_low) for _ in range(dim_id)]
            for m_idx, m_exp in enumerate(mons_low):
                prod = u * Form.monomial(n, "R", m_exp)
                vec = prod.vector()
                for k, piv in enumerate(id_slice.pivots):
                    gamma[k][m_idx] = vec[piv]
            # symbolic E(u) has entry over (c_idx, m_idx):
            #   sum_k gamma[k][m_idx] * omega_{k, c_idx}
            # membership in V_i: reduce numerically coordinate-functionals.
            # Build the matrix of E(u) as a linear map omega -> ambient vec,
            # then impose complement coordinates of the reduction = 0.
            e_matrix = []  # ambient coordinate -> row over unknowns
            for c_idx in range(tq):
                for m_idx in range(len(mons_low)):
                    row = [QQ(0)] * ncols
                    for k in range(dim_id):
                        g = gamma[k][m_idx]
                        if g != 0:
                            row[k * tq + c_idx] = g
                    e_matrix.append(row)
            # reduce the symbolic ambient vector against the V_i echelon:
            # residual(coord) = E(coord) - sum_k E(pivot_k) * basis_k(coord)
            for ell in v_comp:
                row = list(e_matrix[ell])
                for k, piv in enumerate(v_pivots):
                    coeff = v_basis[k][ell]
                    if coeff != 0:
                        prow = e_matrix[piv]
                        row = [x - coeff * y for x, y in zip(row, prow)]
                if any(x != 0 for x in row):
                    rows.append(row)
    kernel_basis = right_kernel(rows, ncols=ncols)
    basis = tuple(
        tuple(tuple(v[k * tq + c] for c in range(tq)) for k in range(dim_id))
        for v in kernel_basis
    )
    return TangentSpace(lam, len(kernel_basis), basis, (len(rows), ncols))
