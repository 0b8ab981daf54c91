import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (_action_table, all_level_hfs, burch_point, complement_positions,
                      moved_burch_point, monomial_residuals, power_sum_span)
from levelalg import apolarity, linalg, tangent
from levelalg.apolarity import _slices
from levelalg.apolarity import (
    ann_slice,
    catalecticant_matrix,
    hilbert_function,
    internal_product,
    minimal_generators,
)
from levelalg.errors import HilbertMismatchError, ZeroSubspaceError
from levelalg.forms import (Form, Subspace, form_print, monomial_index, monomial_products,
                            monomials, parse_subspace_lines, space_dim)
from levelalg.levelhf import (
    HilbertFunction,
    dim_stratum,
    enumerate_level_hf,
    grassmannian_dim,
    minmax_hf,
)
from levelalg.linalg import QQ, right_kernel, rref, sparse_kernel
from levelalg.tangent import tangent_space


def transpose(m):
    return [list(col) for col in zip(*m)]


def test_formula_example_15():
    assert dim_stratum(HilbertFunction.parse("1,2,3,4,5,5,4,3,0")) == 9


def test_formula_25_values():
    dims = [dim_stratum(h) for h in enumerate_level_hf(2, 5)]
    assert dims == [2, 5, 6, 8]


def test_formula_minimal_function_is_t():
    for t, d in [(1, 5), (2, 6), (3, 8), (4, 9)]:
        hmin, _, _ = minmax_hf(t, d)
        assert dim_stratum(hmin) == t


def test_open_stratum_tangent_is_whole_grassmannian(rng):
    for t, d in [(2, 5), (3, 7)]:
        _, hmax, _ = minmax_hf(t, d)
        lam = moved_burch_point(hmax, rng)
        ts = tangent_space(lam)
        assert ts.dimension == grassmannian_dim(t, d)


def test_25_h1_tangent_dimension_is_two(rng):
    h = HilbertFunction.parse("1,2,2,2,2,2,0")
    assert tangent_space(burch_point(h), h).dimension == 2
    assert tangent_space(moved_burch_point(h, rng), h).dimension == 2


def test_example_15_tangent_dimension_is_nine():
    h = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")
    assert tangent_space(burch_point(h), h).dimension == 9


def test_dual_route_agrees(rng):
    # with the primal Fraction reference and the n = 2 closed formula
    for h in all_level_hfs(2, 6):
        lam = burch_point(h)
        assert tangent_space(lam).dimension == _fraction_tangent_space(lam)[0] == \
            dim_stratum(h), h.format()
    h = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")
    lam = moved_burch_point(h, rng)
    assert tangent_space(lam).dimension == _fraction_tangent_space(lam)[0] == 9


def test_dropping_constraints_grows_dimension():
    h = HilbertFunction.parse("1,2,3,3,3,2,0")
    lam = burch_point(h)
    full = tangent_space(lam).dimension
    for i in range(1, 5):
        partial = tangent_space(lam, degrees=[j for j in range(1, 5) if j != i])
        assert partial.dimension >= full


def test_hilbert_mismatch_rejected():
    h = HilbertFunction.parse("1,2,3,3,3,2,0")
    lam = burch_point(h)
    with pytest.raises(HilbertMismatchError):
        tangent_space(lam, HilbertFunction.parse("1,2,2,2,2,2,0"))


def test_basis_maps_have_declared_shape():
    h = HilbertFunction.parse("1,2,2,2,2,2,0")
    lam = burch_point(h)
    ts = tangent_space(lam, h)
    assert len(ts.basis) == ts.dimension
    # Hom(I_d, R_d/I_d): dim I_d = dim R_d - t rows of t entries
    for mat in ts.basis:
        assert len(mat) == lam.ambient_dim - lam.dim
        assert all(len(row) == lam.dim for row in mat)


def test_three_variable_internal_consistency(rng):
    # no closed dimension formula for n >= 3: Hom_R(I, A)_0 and the primal
    # Fraction reference instead
    forms = [
        Form.make(3, 3, "S", {m: rng.randint(-4, 4) for m in monomials(3, 3)})
        for _ in range(2)
    ]
    lam = Subspace.span(3, 3, "S", forms)
    if lam.dim == 2:
        dimension = tangent_space(lam).dimension
        assert dimension == _hom_dimension(lam) == _fraction_tangent_space(lam)[0]
        assert dimension <= lam.dim * (lam.ambient_dim - lam.dim)


def test_le22_tangent_at_bottom_stratum_is_two():
    # the single rank condition in degree 2 already cuts the tangent space
    # to dimension 2, the dimension of the stratum closure
    h1 = HilbertFunction.parse("1,2,2,2,2,2,0")
    lam = burch_point(h1)
    assert tangent_space(lam, degrees=[2]).dimension == 2


def test_dual_route_on_a_large_case(rng):
    h = HilbertFunction.parse("1,2,3,4,5,5,5,4,3,0")  # (3, 9)
    lam = moved_burch_point(h, rng)
    assert tangent_space(lam).dimension == dim_stratum(h) == _hom_dimension(lam)


def test_hilbert_mismatch_rejected_by_the_dual_route():
    lam = burch_point(HilbertFunction.parse("1,2,3,3,3,2,0"))
    with pytest.raises(HilbertMismatchError, match="not 1,2,2,2,2,2,0"):
        tangent_space(lam, HilbertFunction.parse("1,2,2,2,2,2,0"))


def test_hilbert_mismatch_rejected_outside_the_constrained_degrees():
    # h_2 = 3 is right; the check still covers h_3 = 3 against 2
    lam = burch_point(HilbertFunction.parse("1,2,3,3,3,2,0"))
    with pytest.raises(HilbertMismatchError):
        tangent_space(lam, HilbertFunction.parse("1,2,3,2,2,2,0"), degrees=[2])


def test_zero_subspace_rejected_by_both_routes():
    # the route and the Hom_R(I, A)_0 oracle
    for route in (tangent_space, _hom_dimension):
        with pytest.raises(ZeroSubspaceError):
            route(Subspace.zero(2, 4, "S"))


# -- differential tests against the rational routes and Hom_R(I, A)_0 -------

def _times_variables(n, degree, positions):
    """The positions in degree + 1 of x_k times the monomials at `positions`
    of degree `degree`, for every variable x_k."""
    index = monomial_index(n, degree + 1)
    return {index[tuple(e + (j == k) for j, e in enumerate(monomials(n, degree)[p]))]
            for p in positions for k in range(n)}


def _fraction_tangent_space(lam, degrees=None):
    """The primal route with Fraction constraint rows, as it was before the
    integer rewrite: the reference the integer route must reproduce, with
    the constraints of `degrees` only when it is given.  The dimension and
    basis come from every constraint row; the shape counts the rows the
    lead rule keeps: those of the functionals whose free column is not x_k
    times a free column of the previous degree, when that one is
    constrained."""
    n, d, t = lam.nvars, lam.degree, lam.dim
    comp_d = complement_positions(lam)
    ncols = t * len(comp_d)
    rows, kept, lower = [], 0, set()
    for i in range(1, d):
        if degrees is not None and i not in degrees:
            lower = set()
            continue
        cat = catalecticant_matrix(lam, i)
        lam_i = Subspace.from_rows(n, i, "S", cat)
        comp_i = complement_positions(lam_i)
        new = {ell for ell, f in enumerate(comp_i) if f not in lower}
        lower = _times_variables(n, i, comp_i)
        kernel = right_kernel(transpose(cat), ncols=len(cat))
        if not kernel or not comp_i:
            continue
        quotient = monomial_residuals(lam_i)
        zero = [QQ(0)] * len(comp_i)
        reduced = []
        for entries in _action_table(n, d - i, d):
            reduced.append([zero if entries.get(g) is None
                            else [entries[g][1] * x for x in quotient[entries[g][0]]]
                            for g in comp_d])
        for kv in kernel:
            for ell in range(len(comp_i)):
                row = [QQ(0)] * ncols
                for m_idx, per_m in enumerate(reduced):
                    for p in range(t):
                        c = kv[m_idx * t + p]
                        if c:
                            for g_idx in range(len(comp_d)):
                                row[p * len(comp_d) + g_idx] += c * per_m[g_idx][ell]
                if any(x != 0 for x in row):
                    rows.append(row)
                    kept += ell in new
    kernel_basis = right_kernel(rows, ncols=ncols)
    basis = tuple(tuple(tuple(v[p * len(comp_d) + g] for g in range(len(comp_d)))
                        for p in range(t)) for v in kernel_basis)
    return len(kernel_basis), basis, (kept, ncols)


def _fraction_tangent_space_dual(lam, degrees=None):
    """The dual route with Form products and Fraction row reductions, as it
    was before the integer rewrite, with the constraints of `degrees` only
    when it is given.  The dimension and basis come from every constraint
    row; the shape counts the rows the lead rule keeps: those of the
    elements of I_i whose pivot is not x_k times a pivot of I_{i-1}, when
    that one is constrained."""
    n, d = lam.nvars, lam.degree
    id_slice = ann_slice(lam, d)
    dim_id = id_slice.dim
    comp_d = complement_positions(id_slice)
    tq = len(comp_d)
    ncols = dim_id * tq
    residuals = monomial_residuals(id_slice)
    index_d = monomial_index(n, d)
    rows, kept, lower = [], 0, set()
    for i in range(1, d):
        if degrees is not None and i not in degrees:
            lower = set()
            continue
        ii = ann_slice(lam, i)
        new = {k for k, p in enumerate(ii.pivots) if p not in lower}
        lower = _times_variables(n, i, ii.pivots)
        if ii.dim == 0:
            continue
        mons_low, mons_i = monomials(n, d - i), monomials(n, i)
        amb = tq * len(mons_low)
        v_rows = []
        for pos in complement_positions(ii):
            vec = [QQ(0)] * amb
            for m_idx, m_exp in enumerate(mons_low):
                w_m = tuple(a + b for a, b in zip(mons_i[pos], m_exp))
                for c_idx, x in enumerate(residuals[index_d[w_m]]):
                    vec[c_idx * len(mons_low) + m_idx] = x
            v_rows.append(vec)
        v_echelon, v_pivots = rref(v_rows)
        v_comp = [c for c in range(amb) if c not in set(v_pivots)]
        if not v_comp:
            continue
        for u_idx, u in enumerate(ii.basis):
            # gamma[k][m_idx]: coefficient of I_d basis vector k in u * x^M
            products = [(u * Form.monomial(n, "R", m_exp)).vector() for m_exp in mons_low]
            gamma = [[vec[piv] for vec in products] for piv in id_slice.pivots]
            e_matrix = []
            for c_idx in range(tq):
                for m_idx in range(len(mons_low)):
                    row = [QQ(0)] * ncols
                    for k in range(dim_id):
                        row[k * tq + c_idx] = gamma[k][m_idx]
                    e_matrix.append(row)
            for ell in v_comp:
                row = list(e_matrix[ell])
                for k, piv in enumerate(v_pivots):
                    coeff = v_echelon[k][ell]
                    if coeff != 0:
                        row = [x - coeff * y for x, y in zip(row, e_matrix[piv])]
                if any(x != 0 for x in row):
                    rows.append(row)
                    kept += u_idx in new
    kernel_basis = right_kernel(rows, ncols=ncols)
    basis = tuple(tuple(tuple(v[k * tq + c] for c in range(tq)) for k in range(dim_id))
                  for v in kernel_basis)
    return len(kernel_basis), basis, (kept, ncols)


def _hom_dimension(lam):
    """dim Hom_R(I, A)_0 for I = ann(Lambda) and A = R/I, in Fractions, from
    a presentation of I: one unknown block phi(g) in A_{deg g} for each
    generator g of degree <= d (A vanishes above d), and for each syzygy
    sum_k a_k g_k = 0 of degree j <= d the conditions sum_k a_k phi(g_k) = 0
    in A_j, read modulo I_j.  A_j has the basis of the monomials that are
    no pivot of I_j."""
    n, d = lam.nvars, lam.degree
    gens = [g for degree, forms in minimal_generators(lam) if degree <= d for g in forms]
    slices = [ann_slice(lam, j) for j in range(d + 1)]
    offsets, ncols = [], 0
    for g in gens:
        offsets.append(ncols)
        ncols += len(complement_positions(slices[g.degree]))
    rows = []
    for j in range(1, d + 1):
        # the syzygies of degree j: relations among the x^M g_k in R_j
        columns = [(k, m) for k, g in enumerate(gens) if g.degree <= j
                   for m in monomials(n, j - g.degree)]
        if not columns:
            continue
        products = [(Form.monomial(n, "R", m) * gens[k]).vector() for k, m in columns]
        residuals, index = monomial_residuals(slices[j]), monomial_index(n, j)
        for syzygy in right_kernel(transpose(products)):
            block = [[QQ(0)] * ncols for _ in complement_positions(slices[j])]
            for (k, m), a in zip(columns, syzygy):
                if not a:
                    continue
                basis_mons = monomials(n, gens[k].degree)
                for b_idx, b in enumerate(complement_positions(slices[gens[k].degree])):
                    product = index[tuple(x + y for x, y in zip(m, basis_mons[b]))]
                    for ell, x in enumerate(residuals[product]):
                        block[ell][offsets[k] + b_idx] += a * x
            rows.extend(block)
    return len(right_kernel(rows, ncols=ncols))


# the ternary monomial subspaces of the benchmark, and three that are not monomial
TERNARY = (
    ("y1^2", "y2^2", "y3^2"),
    ("y1^3", "y2^3", "y3^3"),
    ("y1^2*y2", "y2^2*y3", "y3^2*y1"),
    ("y1^4", "y2^4"),
    ("y1^4", "y2^4", "y3^4"),
    ("y1^3*y2", "y2^3*y3", "y3^3*y1"),
    ("y1^2*y2^2", "y3^4"),
    ("y1*y2*y3^2", "y1^4", "y2^4"),
    ("y1^3 + y2^3 + y3^3",),
    ("y1^3 + y2^3 + y3^3 + y1*y2*y3",),
    ("y1^4 + y2^4 + y3^4", "y1^2*y2*y3"),
)

# spans in four variables, none of them monomial
QUATERNARY = (
    ("y1^2 + y2^2 + y3^2 + y4^2",),
    ("y1^3 + y2^3 + y3^3 + y4^3",),
    ("y1*y2*y3 + y2*y3*y4", "y1^3 - y4^3"),
    ("y1^2*y2 + y3^2*y4", "y2^3 + y1*y3*y4", "y4^3 - 2*y1^2*y3"),
)


def _differential_points(rng):
    for h in all_level_hfs(4, 10):
        yield h.format(), burch_point(h)
        yield h.format() + " moved", moved_burch_point(h, rng)
    for lines in TERNARY:
        yield " | ".join(lines), parse_subspace_lines(lines, nvars=3)


def _check_against_the_rational_routes(lam, name):
    ts = tangent_space(lam)
    assert (ts.dimension, ts.basis, ts.constraint_shape) == \
        _fraction_tangent_space_dual(lam), name
    assert ts.dimension == _fraction_tangent_space(lam)[0], name
    assert ts.hilbert == hilbert_function(lam), name


def test_integer_routes_match_the_rational_routes(rng):
    for name, lam in _differential_points(rng):
        _check_against_the_rational_routes(lam, name)


@st.composite
def _subspaces(draw):
    """Spans of one to three forms in y1..yn, n in {2, 3, 4}, each with two
    to five terms, so that most spans are not monomial."""
    n = draw(st.sampled_from((2, 3, 4)))
    d = draw(st.integers(2, {2: 7, 3: 4, 4: 3}[n]))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(st.sampled_from(monomials(n, d)), min_size=2, max_size=5,
                                unique=True))
        forms.append(Form.make(n, d, "S", {m: draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
                                           for m in support}))
    return Subspace.span(n, d, "S", forms)


@settings(max_examples=150, deadline=None)
@given(_subspaces())
def test_random_subspaces_match_the_rational_routes(lam):
    # the lead rule drops rows by their lead alone; off the monomial locus
    # the dropped rows are combinations, not copies, of the kept ones
    name = [form_print(f) for f in lam.basis]
    _check_against_the_rational_routes(lam, name)
    assert tangent_space(lam).dimension == _hom_dimension(lam), name


def test_the_hom_oracle_matches_the_route(rng):
    points = [(h.format(), burch_point(h)) for h in all_level_hfs(4, 8)]
    points += [(h.format() + " moved", moved_burch_point(h, rng)) for h in all_level_hfs(3, 7)]
    points += [(" | ".join(lines), parse_subspace_lines(lines, nvars=n))
               for n, family in ((3, TERNARY), (4, QUATERNARY)) for lines in family]
    for name, lam in points:
        assert tangent_space(lam).dimension == _hom_dimension(lam), name
    assert {lam.nvars for _, lam in points} == {2, 3, 4}


def test_power_sum_spans_match_the_hom_oracle():
    # n >= 3 points off the monomial locus whose constraint rows are dense
    # and wide (27-38% nonzero, entries of 23-26 bits), where the Bareiss
    # rank of such rows grows into minors of the input: the dimension against
    # Hom_R(I, A)_0, the basis and shape against the rational dual route
    for point, shape in (((3, 6, 2, 4), (32, 52)), ((4, 4, 2, 3), (64, 66))):
        lam = power_sum_span(*point)
        ts = tangent_space(lam)
        assert ts.constraint_shape == shape, point
        assert ts.dimension == _hom_dimension(lam), point
        assert (ts.dimension, ts.basis, ts.constraint_shape) == \
            _fraction_tangent_space_dual(lam), point


def test_the_basis_is_built_on_first_access_only(monkeypatch, rng):
    # the route reads the dimension off sparse_rank of the constraint rows
    # and takes no kernel of them: the kernels it takes are the V_i ones;
    # the constraint rows' sparse_kernel is taken on the first basis
    # access, once, on the very rows that were ranked
    ranked, kernels = [], []
    original_rank, original_kernel = tangent.sparse_rank, tangent.sparse_kernel

    def recorded_rank(m):
        ranked.append(m)
        return original_rank(m)

    def recorded_kernel(m, ncols):
        kernels.append(m)
        return original_kernel(m, ncols)

    monkeypatch.setattr(tangent, "sparse_rank", recorded_rank)
    monkeypatch.setattr(tangent, "sparse_kernel", recorded_kernel)
    h = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")
    points = [burch_point(h), moved_burch_point(h, rng),
              parse_subspace_lines(TERNARY[9], nvars=3)]
    for lam in points:
        dimension, basis, shape = _fraction_tangent_space_dual(lam)
        ranked.clear()
        kernels.clear()
        ts = tangent_space(lam)
        assert ts.dimension == dimension and ts.constraint_shape == shape
        assert len(ranked) == 1 and len(ranked[0]) == shape[0]
        assert kernels and not any(m is ranked[0] for m in kernels)
        v_kernels = len(kernels)
        assert ts.basis == basis
        assert len(kernels) == v_kernels + 1 and kernels[-1] is ranked[0]
        assert ts.basis is ts.basis and len(kernels) == v_kernels + 1


def test_degree_subsets_match_the_rational_route():
    # a row of I_i is constrained only for i in degrees, and the lead rule
    # drops it only when degree i - 1 is constrained too; every subset of
    # 1..d-1 must give the dual reference, and the primal one's dimension
    points = [(h.format(), burch_point(h)) for h in all_level_hfs(3, 6)]
    points += [(" | ".join(lines), parse_subspace_lines(lines, nvars=3))
               for lines in (TERNARY[2], TERNARY[7])]
    for name, lam in points:
        inner = range(1, lam.degree)
        for k in range(1, len(inner) + 1):
            for degrees in combinations(inner, k):
                ts = tangent_space(lam, degrees=degrees)
                assert (ts.dimension, ts.basis, ts.constraint_shape) == \
                    _fraction_tangent_space_dual(lam, degrees), (name, degrees)
                assert ts.dimension == _fraction_tangent_space(lam, degrees)[0], \
                    (name, degrees)


def test_catalecticant_matrix_is_the_internal_product(rng):
    # the points must have basis forms with denominators, where the matrix
    # divides the integer rows of lam.echelon by their pivot entries
    with_denominators = 0
    for h in all_level_hfs(3, 7):
        lam = moved_burch_point(h, rng)
        for i in range(lam.degree + 1):
            # row (x^M, F_p) is x^M . F_p, monomial outermost
            rational = [internal_product(Form.monomial(lam.nvars, "R", m), f).vector()
                        for m in monomials(lam.nvars, lam.degree - i) for f in lam.basis]
            assert catalecticant_matrix(lam, i) == rational, (h.format(), i)
        with_denominators += any(v[p] > 1 for v, p in zip(lam.echelon, lam.pivots))
    assert with_denominators > 20


def test_catalecticant_matrix_returns_fresh_lists(rng):
    lam = moved_burch_point(HilbertFunction.parse("1,2,3,4,5,5,4,3,0"), rng)
    cat = catalecticant_matrix(lam, 3)
    before = [list(row) for row in cat]
    cat[0][0] += 1
    cat.append([0] * len(cat[0]))
    assert catalecticant_matrix(lam, 3) == before


def test_no_repeated_row_reaches_the_elimination_core(monkeypatch):
    # the chain hands the one elimination core each distinct row once on the
    # slices the tangent route reads, and the route hands it each V_i row
    # once (the constraint rows are only ranked, and their kernel waits for
    # the basis): no core call that back-reduces (a Gauss-Jordan
    # elimination) gets a repeated row.  The slices come from the
    # derivative chain, which stops at the first zero slice (no
    # catalecticant there); its step j gets the t rows of Lambda at j = d,
    # and below h_{j+1} rows x1 contracts and the rows x2 contracts, one for
    # each echelon row of Lambda_{j+1} whose lead no x1 row gave: at most t,
    # since Lambda_{j+1} = x1.Lambda_{j+2} + x2^{d-j-1}.Lambda
    chain, eliminated, sparse = [], [], []
    original_step, original_core = apolarity._chain_step, linalg._sparse_echelon
    original_kernel = tangent.sparse_kernel

    def counted_step(nvars, j, span):
        chain.append((sum(map(len, span)), space_dim(nvars, j)))
        return original_step(nvars, j, span)

    def recorded_core(m, back, stop=None, start=None):
        rows = [tuple(sorted(row.items())) for row in m]
        if back:
            eliminated.append(rows)
        return original_core(map(dict, rows), back, stop, start)

    def recorded_kernel(m, ncols):
        sparse.append([tuple(sorted(row.items())) for row in m])
        return original_kernel(m, ncols)

    monkeypatch.setattr(apolarity, "_chain_step", counted_step)
    monkeypatch.setattr(apolarity, "_sparse_echelon", recorded_core)
    monkeypatch.setattr(linalg, "_sparse_echelon", recorded_core)
    monkeypatch.setattr(tangent, "sparse_kernel", recorded_kernel)
    hs = enumerate_level_hf(6, 16)
    for h in (hs[len(hs) // 4], hs[3 * len(hs) // 4]):
        lam = burch_point(h)
        chain.clear()
        eliminated.clear()
        sparse.clear()
        tangent_space(lam)
        assert eliminated, h.format()
        assert all(len(set(rows)) == len(rows) for rows in eliminated), h.format()
        assert sparse, h.format()
        assert all(len(set(rows)) == len(rows) for rows in sparse), h.format()
        # the chain steps j = d, ..., stop, I_stop = 0 the first zero slice
        # (n = 2: dim R_j = j + 1)
        stop = max(j for j in range(1, h.d + 1) if h[j] == j + 1)
        assert [ncols for _, ncols in chain] == [j + 1 for j in range(h.d, stop - 1, -1)]
        bounds = [h.t] + [h[j + 1] + h.t for j in range(h.d - 1, stop - 1, -1)]
        assert all(n <= bound for (n, _), bound in zip(chain, bounds, strict=True)), \
            h.format()


# -- the row builder against a copy of the one it replaced --------------------

def _old_constraint_rows(lam, degrees=None):
    """The constraint rows of the route as it built them before it read a
    slice row's lead as its first key: leads by min(row), the residuals as
    {position: entry} rows over a position table, every degree's leads
    built before its slice was checked, and the V_i rows, gamma and the
    constraint rows by comprehensions and membership tests."""
    n, d = lam.nvars, lam.degree
    wanted = list(range(1, d) if degrees is None else degrees)
    slices, _ = _slices(lam)
    dim_id = len(slices[d])
    coordinate = {min(u): k for k, u in enumerate(slices[d])}
    tq = space_dim(n, d) - dim_id
    width = space_dim(n, d)
    by_pivot = {min(v): v for v in slices[d]}
    scale = math.lcm(*[v[p] for p, v in by_pivot.items()])
    position = {p: k for k, p in enumerate(p for p in range(width) if p not in by_pivot)}
    residuals = [{position[p]: -x * (scale // v[o]) for p, x in v.items() if p != o}
                 if (v := by_pivot.get(o)) else {position[o]: scale}
                 for o in range(width)]
    rows, lower = [], set()
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
        v_rows = [{c * nlow + m_idx: x for m_idx, k in enumerate(shift[pos])
                   for c, x in residuals[k].items()}
                  for pos in range(space_dim(n, i)) if pos not in ii_pivots]
        functionals = [[divmod(a, nlow) + (x,) for a, x in z.items()]
                       for z in sparse_kernel(v_rows, tq * nlow)]
        for u in kept:
            gamma = [[] for _ in range(nlow)]
            for q, uq in u.items():
                for m_idx, r in enumerate(shift[q]):
                    if r in coordinate:
                        gamma[m_idx].append((coordinate[r] * tq, uq))
            for func in functionals:
                row = {}
                for c_idx, m_idx, coeff in func:
                    for offset, g in gamma[m_idx]:
                        row[offset + c_idx] = row.get(offset + c_idx, 0) + coeff * g
                row = {k: x for k, x in row.items() if x}
                if row:
                    rows.append(row)
    return rows


def _seeded_spans(nvars, count, seed):
    """count spans of one to three forms of S_d in y1..yn, d <= 5 (n = 3)
    or 4 (n = 4), each form with two to five terms and coefficients in
    -3..3, drawn from random.Random(seed): mostly off the monomial locus."""
    rng = random.Random(seed)
    spans = []
    while len(spans) < count:
        d = rng.randint(2, {3: 5, 4: 4}[nvars])
        forms = [Form.make(nvars, d, "S", {m: rng.choice((-3, -2, -1, 1, 2, 3))
                                           for m in rng.sample(monomials(nvars, d),
                                                               rng.randint(2, 5))})
                 for _ in range(rng.randint(1, 3))]
        lam = Subspace.span(nvars, d, "S", forms)
        if lam.dim:
            spans.append(lam)
    return spans


def test_the_constraint_rows_are_those_of_the_old_builder(rng):
    # the same rows in the same order, so the dimension, the shape and the
    # basis are too: Burch points with t <= 4, d <= 10, unmoved and moved,
    # the ternary subspaces, seeded n = 3 and n = 4 spans (power sums among
    # them), and every degrees= subset at the smaller points
    points = [p for h in all_level_hfs(4, 10) for p in (burch_point(h), moved_burch_point(h, rng))]
    points += [parse_subspace_lines(lines, nvars=n)
               for n, family in ((3, TERNARY), (4, QUATERNARY)) for lines in family]
    points += _seeded_spans(3, 40, 3) + _seeded_spans(4, 25, 4)
    points += [power_sum_span(*p) for p in ((3, 6, 2, 4), (3, 7, 3, 5), (4, 4, 2, 3),
                                             (4, 5, 2, 5))]
    for lam in points:
        assert tangent_space(lam).constraints[0] == _old_constraint_rows(lam), lam
    subsets = [burch_point(h) for h in all_level_hfs(3, 7)]
    subsets += [parse_subspace_lines(lines, nvars=3) for lines in TERNARY[:8]]
    subsets += _seeded_spans(3, 10, 5) + _seeded_spans(4, 6, 6)
    for lam in subsets:
        inner = range(1, lam.degree)
        for k in range(1, len(inner) + 1):
            for degrees in combinations(inner, k):
                assert tangent_space(lam, degrees=degrees).constraints[0] == \
                    _old_constraint_rows(lam, degrees), (lam, degrees)


# -- the route choice: the certified modular rank at wide n >= 3 rows ---------

def _tangent_pool():
    """The Burch points of the benchmark's tangent_burch pool: two per (t,
    d) cell, t = 2..6, t <= d <= 16, at the evenly spread positions
    (2i + 1) len / 4 of the cell's enumeration."""
    for t in range(2, 7):
        for d in range(t, 17):
            hs = enumerate_level_hf(t, d)
            for j in sorted({(2 * i + 1) * len(hs) // 4 for i in range(2)}):
                yield burch_point(hs[j])


def test_the_certified_rank_runs_only_at_wide_rows_in_three_or_more_variables(monkeypatch,
                                                                               rng):
    # no point of the tangent_burch pool, no ternary monomial subspace and
    # no binary point (unmoved or moved, t <= 4, d <= 12) calls it; both
    # power-sum spans of CI do, and the first basis access reads the kernel
    # it certified, taking no sparse_kernel of the constraint rows
    calls, certified = [], tangent.certified_rank

    def counted(rows, ncols):
        calls.append(len(rows))
        return certified(rows, ncols)

    monkeypatch.setattr(tangent, "certified_rank", counted)
    points = list(_tangent_pool())
    points += [parse_subspace_lines(lines, nvars=3) for lines in TERNARY[:8]]
    points += [p for h in all_level_hfs(4, 12)
               for p in (burch_point(h), moved_burch_point(h, rng))]
    for lam in points:
        tangent_space(lam)
    assert not calls
    for point, shape in (((3, 8, 3, 5), (99, 126)), ((4, 6, 2, 5), (330, 164))):
        ts = tangent_space(power_sum_span(*point))
        assert ts.constraint_shape == shape and calls == [shape[0]], point
        with monkeypatch.context() as patch:
            patch.setattr(tangent, "sparse_kernel", None)
            assert len(ts.basis) == ts.dimension, point
        calls.clear()
