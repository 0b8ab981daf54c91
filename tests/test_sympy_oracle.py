"""Differential tests of the apolarity kernel and the canonical echelon
form against sympy, used only as an independent oracle in the tests."""

import pytest
from hypothesis import given, settings, strategies as st

from levelalg.apolarity import catalecticant_matrix, internal_product
from levelalg.forms import Form, Subspace, monomials
from levelalg.linalg import rank

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
@given(spanning_sets())
def test_span_rows_are_sympy_rref_rows(spanning):
    n, d, fs = spanning
    lam = Subspace.span(n, d, "S", fs)
    matrix = sympy.Matrix([[to_sympy(x) for x in f.vector()] for f in fs])
    reduced, pivots = matrix.rref()
    rows = [tuple(reduced.row(k)) for k in range(len(pivots))]
    assert [tuple(to_sympy(x) for x in row) for row in lam.rows] == rows
    assert lam.pivots == tuple(pivots)
