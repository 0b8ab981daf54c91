"""Differential tests of the apolarity kernel, the annihilator slices,
linear substitution, the fraction-free elimination core and the canonical
echelon form against sympy, used only as an independent oracle in the
tests."""

import pytest
from conftest import row_space_intersection
from hypothesis import given, settings, strategies as st

from levelalg.apolarity import ann_slice, catalecticant_matrix, internal_product
from levelalg.forms import Form, Subspace, monomials, subspace_intersect
from levelalg.linalg import (QQ, _integer_row, det, integer_echelon, integer_rank, rank, rref,
                             right_kernel)

sympy = pytest.importorskip("sympy")

COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def forms(draw, nvars, degree, ring):
    return Form.make(nvars, degree, ring,
                     {m: draw(COEFFS) for m in monomials(nvars, degree)})


@st.composite
def operator_and_form(draw):
    n = draw(st.sampled_from([2, 3]))
    i = draw(st.integers(0, 5 if n == 2 else 4))
    j = draw(st.integers(0, i))
    return draw(forms(n, j, "R")), draw(forms(n, i, "S"))


@st.composite
def spanning_sets(draw):
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 5 if n == 2 else 3))
    return n, d, draw(st.lists(forms(n, d, "S"), min_size=1, max_size=4))


def to_sympy(q):
    return sympy.Rational(q.numerator, q.denominator)


def form_expr(f: Form, symbols):
    return sum((to_sympy(c) * sympy.Mul(*[s ** e for s, e in zip(symbols, m)])
                for m, c in f.coeffs.items()), sympy.Integer(0))


@settings(max_examples=60, deadline=None)
@given(operator_and_form())
def test_internal_product_is_sum_of_partial_derivatives(pair):
    u, f = pair
    ys = sympy.symbols(f"y1:{f.nvars + 1}")
    fx = form_expr(f, ys)
    expected = sum((to_sympy(c) * sympy.diff(fx, *[(y, a) for y, a in zip(ys, alpha)])
                    for alpha, c in u.coeffs.items()), sympy.Integer(0))
    assert sympy.expand(form_expr(internal_product(u, f), ys) - expected) == 0


@st.composite
def form_and_matrix(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.integers(0, 6 if n < 3 else 4))
    ring = draw(st.sampled_from(["R", "S"]))
    terms = st.dictionaries(st.sampled_from(monomials(n, d)), COEFFS, max_size=4)
    matrix = draw(st.lists(st.lists(COEFFS, min_size=n, max_size=n), min_size=n, max_size=n))
    return Form.make(n, d, ring, draw(terms)), matrix


@settings(max_examples=80, deadline=None)
@given(form_and_matrix())
def test_substitute_linear_is_sympy_expansion(pair):
    f, matrix = pair
    zs = sympy.symbols(f"z1:{f.nvars + 1}")
    images = {z: sum((to_sympy(c) * w for c, w in zip(row, zs)), sympy.Integer(0))
              for z, row in zip(zs, matrix)}
    expanded = sympy.Poly(form_expr(f, zs).subs(images, simultaneous=True).expand(), *zs)
    expected = Form.make(f.nvars, f.degree, f.ring,
                         {m: QQ(int(c.p), int(c.q)) for m, c in expanded.terms()})
    assert f.substitute_linear(matrix) == expected


@settings(max_examples=40, deadline=None)
@given(spanning_sets(), st.data())
def test_catalecticant_rank_matches_sympy(spanning, data):
    n, d, fs = spanning
    lam = Subspace.span(n, d, "S", fs)
    if lam.dim == 0:
        return
    i = data.draw(st.integers(0, lam.degree))
    cat = catalecticant_matrix(lam, i)
    expected = sympy.Matrix([[to_sympy(x) for x in row] for row in cat]).rank()
    assert rank(cat) == expected


@settings(max_examples=40, deadline=None)
@given(spanning_sets(), st.data())
def test_annihilator_slice_matches_sympy(spanning, data):
    # on a fresh Lambda, so the derivative chain stops at the degree drawn
    n, d, fs = spanning
    lam = Subspace.span(n, d, "S", fs)
    if lam.dim == 0:
        return
    j = data.draw(st.integers(0, d))
    ys = sympy.symbols(f"y1:{n + 1}")
    # u = sum c_alpha x^alpha kills F iff every coefficient of
    # sum c_alpha d^alpha F / dy^alpha vanishes
    derivatives = [[sympy.diff(form_expr(f, ys), *[(y, a) for y, a in zip(ys, alpha)])
                    for alpha in monomials(n, j)] for f in fs]
    conditions = sympy.Matrix([
        [sympy.Poly(g, *ys).coeff_monomial(sympy.Mul(*[y ** e for y, e in zip(ys, m)]))
         for g in row] for row in derivatives for m in monomials(n, d - j)])
    kernel = conditions.nullspace()
    expected = sympy.Matrix.hstack(*kernel).T.rref()[0] if kernel else sympy.zeros(0, 0)
    assert as_sympy_rows(ann_slice(lam, j).rows) == \
        [tuple(expected.row(k)) for k in range(len(kernel))]


@settings(max_examples=40, deadline=None)
@given(spanning_sets())
def test_span_rows_are_sympy_rref_rows(spanning):
    n, d, fs = spanning
    lam = Subspace.span(n, d, "S", fs)
    matrix = sympy.Matrix([[to_sympy(x) for x in f.vector()] for f in fs])
    reduced, pivots = matrix.rref()
    rows = [tuple(reduced.row(k)) for k in range(len(pivots))]
    assert [tuple(to_sympy(x) for x in row) for row in lam.rows] == rows
    assert lam.pivots == tuple(pivots)


# -- the fraction-free elimination core --------------------------------------

MIXED = st.fractions(min_value=-6, max_value=6, max_denominator=12)
# factors with many zero entries give products with scattered zeros, so
# rows skip pivot columns, as they do in the sparse tangent matrices
SPARSE = st.one_of(st.just(QQ(0)), MIXED)


@st.composite
def low_rank_matrices(draw, nrows=None, ncols=None):
    """A product of nrows x k and k x ncols sparse rational factors (so
    rank <= k), with some rows and columns then set to zero."""
    r = nrows or draw(st.integers(1, 7))
    c = ncols or draw(st.integers(1, 7))
    k = draw(st.integers(0, min(r, c)))
    left = draw(st.lists(st.lists(SPARSE, min_size=k, max_size=k), min_size=r, max_size=r))
    right = draw(st.lists(st.lists(SPARSE, min_size=c, max_size=c), min_size=k, max_size=k))
    zero_rows = draw(st.sets(st.integers(0, r - 1), max_size=r // 2))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=c // 2))
    return [[QQ(0) if i in zero_rows or j in zero_cols
             else sum((left[i][m] * right[m][j] for m in range(k)), QQ(0))
             for j in range(c)] for i in range(r)]


def sympy_matrix(m):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in m])


def as_sympy_rows(m):
    return [tuple(to_sympy(x) for x in row) for row in m]


@settings(max_examples=80, deadline=None)
@given(low_rank_matrices(), st.data())
def test_rref_rank_and_kernel_match_sympy(m, data):
    # repeats, scaled copies and zero rows mixed in: the front ends hand the
    # core each primitive row once (integer_echelon's intake), and rref
    # still returns one row for each row of m
    ncols, m = len(m[0]), m[:]
    for _ in range(data.draw(st.integers(0, 3))):
        row = data.draw(st.sampled_from(m))
        factor = data.draw(st.sampled_from((QQ(1), QQ(-1), QQ(-3, 7), QQ(2 ** 40 + 1, 3))))
        extra = data.draw(st.sampled_from(([x * factor for x in row], [QQ(0)] * ncols)))
        m.insert(data.draw(st.integers(0, len(m))), extra)
    expected = sympy_matrix(m)
    reduced, pivots = expected.rref()
    ours, our_pivots = rref(m)
    assert as_sympy_rows(ours) == [tuple(reduced.row(k)) for k in range(len(m))]
    assert tuple(our_pivots) == pivots
    assert rank(m) == expected.rank()
    # sympy's nullspace is the same canonical basis: 1 at a free column,
    # minus the RREF entries at the pivot columns
    assert as_sympy_rows(right_kernel(m)) == [tuple(v) for v in expected.nullspace()]


@settings(max_examples=80, deadline=None)
@given(low_rank_matrices(), st.integers(0, 80), st.data())
def test_integer_rank_matches_sympy(m, bits, data):
    # the rows scaled to integers, each then times a factor of up to 80
    # bits, with zero rows and repeats mixed in: none moves the rank
    ncols = len(m[0])
    factors = st.sampled_from((1, -1, 2 ** bits + 1))
    rows = [[x * k for x in _integer_row(row)] for row in m for k in [data.draw(factors)]]
    for _ in range(data.draw(st.integers(0, 3))):
        rows.insert(data.draw(st.integers(0, len(rows))),
                    list(data.draw(st.sampled_from(rows))) if data.draw(st.booleans())
                    else [0] * ncols)
    expected = sympy_matrix(m).rank()
    assert integer_rank(rows, ncols) == len(integer_echelon(rows, ncols)[1]) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: low_rank_matrices(n, n)))
def test_det_matches_sympy(m):
    assert to_sympy(det(m)) == sympy_matrix(m).det()


@settings(max_examples=60, deadline=None)
@given(low_rank_matrices(), st.data())
def test_row_space_intersection_matches_sympy_ranks(a, data):
    # b mixes combinations of a's rows with rows of its own, so the
    # intersection is often neither zero nor all of a's row space
    ncols = len(a[0])
    mix = data.draw(st.lists(st.lists(MIXED, min_size=len(a), max_size=len(a)),
                             min_size=0, max_size=3))
    own = data.draw(st.lists(st.lists(MIXED, min_size=ncols, max_size=ncols),
                             min_size=0, max_size=3))
    b = [[sum((c * row[j] for c, row in zip(coeffs, a)), QQ(0)) for j in range(ncols)]
         for coeffs in mix] + own
    if not b:
        return
    sa, sb = sympy_matrix(a), sympy_matrix(b)
    # the tests' reference, and the library's route on the rows as linear
    # forms in ncols variables
    lin = [Subspace.from_rows(ncols, 1, "R", rows) for rows in (a, b)]
    for inter in (row_space_intersection(a, b, ncols), subspace_intersect(*lin).rows):
        # dim(A n B) = rank A + rank B - rank(A + B)
        assert len(inter) == sa.rank() + sb.rank() - sympy.Matrix.vstack(sa, sb).rank()
        if inter:
            si = sympy_matrix(inter)
            # canonical: already the RREF of its span, with no zero row
            assert as_sympy_rows(inter) == [tuple(si.rref()[0].row(k)) for k in range(len(inter))]
            assert sympy.Matrix.vstack(sa, si).rank() == sa.rank()
            assert sympy.Matrix.vstack(sb, si).rank() == sb.rank()
