from fractions import Fraction
from math import gcd

import pytest
from conftest import row_space_intersection
from hypothesis import given, settings, strategies as st

from levelalg.errors import AmbientMismatchError, FormSyntaxError
from levelalg.forms import (
    Form,
    Subspace,
    form_parse,
    form_print,
    monomials,
    parse_subspace_lines,
    space_dim,
    subspace_intersect,
)
from levelalg.linalg import rref


def test_monomial_order_binary():
    assert monomials(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_monomial_order_three_vars_graded_lex():
    ms = monomials(3, 2)
    assert ms[0] == (2, 0, 0)
    assert ms[-1] == (0, 0, 2)
    assert len(ms) == 6


def test_a_negative_degree_has_no_monomials():
    for nvars in range(1, 5):
        assert monomials(nvars, -1) == ()
        assert space_dim(nvars, -1) == 0


@pytest.mark.parametrize("args, message", [
    ((2, 2, "S", {(2,): 1}), r"bad exponent vector \(2,\)"),
    ((2, 2, "S", {(3, -1): 1}), r"bad exponent vector \(3, -1\)"),
    ((2, 2, "S", {(2, 1): 1}), r"exponent vector \(2, 1\) does not have degree 2"),
    ((2, 2, "S", {(2, 0): Fraction(0)}), "zero coefficients must be omitted"),
    ((2, 2, "T", {(2, 0): 1}), "unknown ring tag 'T'"),
])
def test_form_rejects_a_malformed_coefficient_map(args, message):
    # the checks of Form.__post_init__, one case each: wrong length, negative
    # exponent, wrong degree, zero coefficient, unknown ring tag
    with pytest.raises(ValueError, match=message):
        Form(*args)


def test_parse_monomial():
    f = form_parse("x1^4*x2^2")
    assert f.ring == "R" and f.degree == 6 and f.nvars == 2
    assert f.coeff((4, 2)) == 1


def test_parse_with_rational_coefficients():
    f = form_parse("3/2*y1^2 - y2^2")
    assert f.ring == "S" and f.degree == 2
    assert [f.coeff(m) for m in monomials(2, 2)] == [Fraction(3, 2), 0, -1]


def test_print_parse_identity_on_x2_power():
    assert form_print(form_parse("x2^5")) == "x2^5"


def test_parse_rejects_inhomogeneous():
    with pytest.raises(FormSyntaxError):
        form_parse("y1^2 + y2")


def test_parse_rejects_mixed_letters():
    with pytest.raises(FormSyntaxError):
        form_parse("x1*y1")


def test_parse_error_carries_position():
    with pytest.raises(FormSyntaxError) as err:
        form_parse("y1^2 + @")
    assert err.value.pos == 7


def test_parse_missing_star():
    with pytest.raises(FormSyntaxError):
        form_parse("2y1")


@pytest.mark.parametrize("text, message", [
    ("y1 +", "expected a term (at position 4)"),
    ("", "expected a term (at position 0)"),
    ("2y1", "missing '*' between coefficient and variable (at position 1)"),
    ("x1*y1", "mixed variable letters 'x' and 'y' (at position 3)"),
    ("y0", "variable indices start at 1 (at position 0)"),
    ("1/0*y1", "zero denominator (at position 3)"),
    ("y1^", "expected an integer (at position 3)"),
    ("y1*", "expected a variable after '*' (at position 3)"),
    ("y1^2 + y2", "inhomogeneous input (term degrees [1, 2]) (at position 0)"),
])
def test_parse_error_texts(text, message):
    # the CLI prints these after "error: "
    with pytest.raises(FormSyntaxError) as err:
        form_parse(text)
    assert str(err.value) == message


@st.composite
def random_forms(draw):
    degree = draw(st.integers(0, 6))
    ring = draw(st.sampled_from(["R", "S"]))
    coeffs = {}
    for m in monomials(2, degree):
        c = draw(st.fractions(min_value=-8, max_value=8, max_denominator=5))
        if c:
            coeffs[m] = c
    return Form.make(2, degree, ring, coeffs)


@settings(max_examples=80, deadline=None)
@given(random_forms())
def test_print_parse_roundtrip(f):
    if f.is_zero:
        return
    # constants print without any variable, so the ring tag is supplied
    assert form_parse(form_print(f), nvars=2, ring=f.ring) == f


@settings(max_examples=80, deadline=None)
@given(random_forms())
def test_monic_divides_by_the_first_coefficient_in_monomial_order(f):
    # the rule of Form.monic and of the apolar pass's generators
    g = f.monic()
    lead = next((f.coeffs[m] for m in monomials(2, f.degree) if m in f.coeffs), None)
    assert g == (f if lead is None else f.scale(1 / lead))
    assert all(type(c) is Fraction for c in g.coeffs.values())
    assert form_print(g) == form_print(f.scale(1 / lead) if lead else f)


def test_form_arithmetic_and_product():
    a = form_parse("y1^2 + y2^2")
    b = form_parse("y1^2 - y2^2")
    assert form_print(a + b) == "2*y1^2"
    assert form_print(a * b) == "y1^4 - y2^4"
    assert (a - a).is_zero


def test_substitute_linear():
    f = form_parse("x1^2", nvars=2)
    g = f.substitute_linear([[1, 1], [0, 1]])
    assert g == form_parse("x1^2 + 2*x1*x2 + x2^2")


def test_subspace_canonical_under_change_of_basis(rng):
    forms = [form_parse("y1^3 + y2^3"), form_parse("y1^2*y2 - y2^3")]
    a = Subspace.span(2, 3, "S", forms)
    mixed = [forms[0].scale(3) + forms[1].scale(-2), forms[1].scale(7)]
    b = Subspace.span(2, 3, "S", mixed)
    assert a == b
    assert a.dim == 2


def test_subspace_intersect_self():
    a = Subspace.span(2, 3, "S", [form_parse("y1^3", nvars=2), form_parse("y2^3")])
    assert subspace_intersect(a, a) == a


def test_subspace_intersect_pivot_disjoint():
    a = Subspace.span(2, 3, "S", [form_parse("y1^3", nvars=2), form_parse("y2^3")])
    b = Subspace.span(2, 3, "S", [form_parse("y1^3", nvars=2), form_parse("y1^2*y2")])
    inter = subspace_intersect(a, b)
    assert inter.dim == 1
    assert form_print(inter.basis[0]) == "y1^3"


def test_subspace_intersection_dimension_formula(rng):
    for _ in range(20):
        def rand_sub():
            forms = []
            for _ in range(rng.randint(1, 4)):
                coeffs = {m: rng.randint(-5, 5) for m in monomials(2, 5)}
                forms.append(Form.make(2, 5, "S", coeffs))
            return Subspace.span(2, 5, "S", forms)

        a, b = rand_sub(), rand_sub()
        inter = subspace_intersect(a, b)
        total = Subspace.from_rows(2, 5, "S", a.rows + b.rows)
        assert inter.dim == a.dim + b.dim - total.dim


def test_subspace_intersect_matches_the_reference(rng):
    # the kernel of the stacked kernels against the tests' Gauss-Jordan
    # route, compared as canonical subspaces: a and b share a random part,
    # so that many intersections have dimension >= 2, and each pair is also
    # met with a zero and a full operand
    wide = 0
    for _ in range(150):
        n, d, ring = rng.randint(1, 3), rng.randint(0, 5), rng.choice("RS")
        width = space_dim(n, d)

        def rows(k):
            return [[rng.choice((0, 0, 1, -1, 2, Fraction(-3, 2))) for _ in range(width)]
                    for _ in range(k)]

        shared = rows(rng.randint(0, width // 2 + 1))
        a, b = (Subspace.from_rows(n, d, ring, shared + rows(rng.randint(0, width // 3 + 1)))
                for _ in range(2))
        for x, y in ((a, b), (b, a), (a, Subspace.zero(n, d, ring)),
                     (Subspace.full(n, d, ring), b)):
            expected = Subspace.from_rows(n, d, ring, row_space_intersection(x.rows, y.rows,
                                                                             width))
            assert subspace_intersect(x, y) == expected
            wide += 2 <= expected.dim < width
    assert wide >= 100


def test_subspace_ambient_mismatch():
    a = Subspace.span(2, 3, "S", [form_parse("y1^3", nvars=2)])
    b = Subspace.span(2, 4, "S", [form_parse("y1^4", nvars=2)])
    with pytest.raises(AmbientMismatchError):
        subspace_intersect(a, b)


def test_parse_subspace_lines_pads_nvars():
    sub = parse_subspace_lines(["y1^3", "y2^3", "# comment", ""])
    assert sub.nvars == 2 and sub.dim == 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-6, max_value=6,
                                      max_denominator=4),
                         min_size=6, max_size=6),
                min_size=2, max_size=4),
       st.randoms(use_true_random=False))
def test_subspace_canonical_for_random_bases(rows, rnd):
    forms = [Form.from_vector(2, 5, "S", row) for row in rows]
    a = Subspace.span(2, 5, "S", forms)
    if a.dim == 0:
        return
    # random invertible recombination of the spanning set
    mixed = []
    for _ in range(len(forms) + 1):
        f = Form.zero(2, 5, "S")
        for g in forms:
            f = f + g.scale(rnd.randint(-5, 5))
        mixed.append(f)
    b = Subspace.span(2, 5, "S", mixed + list(a.basis))
    assert b == a
    # the echelon rows: primitive, positive at the pivot, and the RREF rows
    # (the Fraction reference) up to those positive scales
    for v, p in zip(a.echelon, a.pivots):
        assert v[p] > 0 and gcd(*v) == 1 and not any(v[:p])
    reduced, pivots = rref([r for r in rows if any(r)])
    assert a.pivots == tuple(pivots)
    assert a.rows == tuple(tuple(r) for r in reduced[:len(pivots)])
    scales = [rnd.choice([-3, -2, -1, 1, 2, 5]) for _ in a.echelon]
    scaled = [[x * k for x in v] for v, k in zip(a.echelon, scales)]
    assert Subspace.from_echelon(2, 5, "S", scaled) == a


def test_full_subspaces_share_their_unit_rows_and_nothing_else():
    # the identity rows are built once per size; each call is a new
    # instance, so a memo kept on one is not seen by another
    for nvars, degree, ring in ((1, 0, "R"), (2, 5, "S"), (3, 3, "R"), (3, 3, "S")):
        a, b = Subspace.full(nvars, degree, ring), Subspace.full(nvars, degree, ring)
        size = len(monomials(nvars, degree))
        assert a == b and a is not b and a.echelon is b.echelon
        assert a.echelon == tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
        assert a.pivots == tuple(range(size)) and a.ring == ring
        assert a == Subspace.span(nvars, degree, ring,
                                  [Form.monomial(nvars, ring, m) for m in monomials(nvars, degree)])
        a.__dict__["memo"] = 1
        assert "memo" not in b.__dict__
