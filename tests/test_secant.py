import random
from fractions import Fraction

import pytest

from conftest import all_level_hfs, burch_point, jordan_apolar_basis, moved_burch_point
from levelalg.apolarity import ann_slice, hilbert_function
from levelalg.errors import (
    AdmissibilityError,
    DegreeError,
    NotSquareError,
    PropernessError,
    WitnessError,
)
from levelalg.forms import Form, Subspace, form_parse, form_print, monomials
from levelalg.levelhf import HilbertFunction, dim_stratum
from levelalg.linalg import det, rank
from levelalg.secant import (
    GAD,
    SecantPlane,
    gad_subspace,
    hankel_matrix,
    hankel_rank,
    hypersurface_case,
    in_sigma,
    secant_decompose,
    secant_intersect,
    sigma_dim,
    stacked_catalecticant_det,
    stacked_hankel,
    waring_witness_hf,
)


def linear_product(points):
    """prod (x1 + k x2) over the given k values, as an operator."""
    out = None
    for k in points:
        lin = Form.make(2, 1, "R", {(1, 0): 1, (0, 1): k})
        out = lin if out is None else out * lin
    return out


def test_plane_subspace_dimension_is_degree():
    for q in (1, 3, 5):
        u = linear_product(range(1, q + 1))
        assert SecantPlane(u, 7).subspace().dim == q


def test_plane_rejects_a_ternary_apolar_form():
    with pytest.raises(DegreeError, match="binary"):
        SecantPlane(form_parse("x1^2*x3", nvars=3), 4)


def test_full_space_plane_for_degree_d_plus_one():
    u = form_parse("x2^8", nvars=2)
    plane = SecantPlane(u, 7)
    assert plane.subspace().dim == 8


def test_decompose_26_example():
    h = HilbertFunction.parse("1,2,3,4,4,3,2,0")
    lam = burch_point(h)
    planes = secant_decompose(lam)
    assert sorted(p.q for p in planes) == [4, 5, 7]
    assert sorted(p.subspace().dim for p in planes) == [4, 5, 7]
    assert sorted(p.plane_dim for p in planes) == [3, 4, 6]


def test_decompose_point_on_curve():
    lam = Subspace.span(2, 6, "S", [form_parse("y1^6", nvars=2)])
    planes = secant_decompose(lam)
    assert sorted(p.q for p in planes) == [1, 7]
    point_plane = min(planes, key=lambda p: p.q)
    assert point_plane.subspace() == lam


def test_decompose_intersect_roundtrip_37(rng):
    for h in list(all_level_hfs(3, 7))[-6:]:
        lam = moved_burch_point(h, rng)
        planes = secant_decompose(lam)
        lam2, h2 = secant_intersect(planes)
        assert lam2 == lam
        assert h2.values == h.values


def test_intersect_ps11_example():
    planes = [
        SecantPlane(linear_product(range(1, 9)), 11),
        SecantPlane(linear_product(range(11, 19)), 11),
        SecantPlane(linear_product(range(21, 31)), 11),
    ]
    lam, h = secant_intersect(planes)
    assert lam.dim == 2
    assert h.values == (1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 4, 2)
    assert hilbert_function(lam).values == h.values


def test_intersect_single_constraint_minimal_stratum():
    # degrees (t, d+1, ..., d+1): the only cutting plane is the one of
    # degree t, so Lambda is its full apolar space
    t, d = 3, 7
    u = linear_product((1, 2, 3))
    planes = [SecantPlane(u, d)] + [
        SecantPlane(form_parse(f"x2^{d + 1}", nvars=2), d),
        SecantPlane(form_parse(f"x1^{d + 1}", nvars=2), d),
        SecantPlane(linear_product(range(4, 4 + d + 1)), d),
    ]
    lam, h = secant_intersect(planes)
    assert lam == SecantPlane(u, d).subspace()
    assert h.values == tuple(min(i + 1, t) for i in range(d + 1))


def test_intersect_random_27_matches_hilbert(rng):
    for _ in range(8):
        qs = [4, 7, 7]  # codims (4, 1, 1) sum to 6 = d - t + 1
        pts = iter(rng.sample(range(-20, 50), 18))
        planes = [SecantPlane(linear_product([next(pts) for _ in range(q)]), 7)
                  for q in qs]
        lam, h = secant_intersect(planes)
        assert hilbert_function(lam).values == h.values


def test_intersect_properness_errors():
    with pytest.raises(PropernessError):
        secant_intersect([
            SecantPlane(linear_product((1, 2)), 7),
            SecantPlane(linear_product((3, 4)), 7),
        ])
    # correct codimension sum but degenerate geometry: nested root sets
    with pytest.raises(PropernessError):
        secant_intersect([
            SecantPlane(linear_product((1, 2, 3, 4)), 5),
            SecantPlane(linear_product((1, 2, 3, 4, 5)), 5),
            SecantPlane(linear_product((1, 2, 3, 4, 6)), 5),
        ])


def test_gad_all_alphas_zero_is_power_span():
    g = GAD(((0, 1), (1, 0), (1, 1)), (0, 0, 0))
    sub = gad_subspace(g, 5)
    powers = [
        Form.make(2, 1, "S", {(1, 0): c1, (0, 1): c2}).power(5)
        for c1, c2 in g.points
    ]
    assert sub == Subspace.span(2, 5, "S", powers)


def test_gad_alpha_minus_one_contributes_nothing():
    g1 = GAD(((0, 1), (1, 0)), (1, -1))
    g2 = GAD(((0, 1),), (1,))
    assert gad_subspace(g1, 5) == gad_subspace(g2, 5)


def test_gad_matches_kernel_oracle():
    g = GAD(((0, 1), (1, 0)), (1, 0))
    sub = gad_subspace(g, 4)
    assert sub.dim == 3
    u = form_parse("x1^2*x2", nvars=2)
    assert sub == SecantPlane(u, 4).subspace()


def test_gad_matches_jordan_on_identical_inputs():
    g = GAD(((1, 1), (1, -2)), (2, 1))
    sub = gad_subspace(g, 6)
    jordan = jordan_apolar_basis([(1, -1, 3), (-2, -1, 2)], 6)
    assert sub == jordan


def test_gad_subspace_matches_jordan_closed_form():
    # seeded patterns with rational points and alpha = -1 entries; the
    # closed form reads L_i = c1 y1 + c2 y2 as the factor (c2, -c1) with
    # multiplicity alpha_i + 1, and has no length d + 1, where W is S_d
    rng = random.Random(3901)
    entries = sorted({Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)})
    lengths = set()
    for _ in range(80):
        d = rng.randint(1, 8)
        points, alphas, left = [], [], d + 1
        for _ in range(rng.randint(1, 4)):
            c1, c2 = rng.choice(entries), rng.choice(entries)
            if (c1, c2) == (0, 0) or any(c1 * b - c2 * a == 0 for a, b in points):
                continue
            alpha = rng.randint(-1, min(d, left) - 1)
            points.append((c1, c2))
            alphas.append(alpha)
            left -= alpha + 1
        g = GAD(tuple(points), tuple(alphas))
        sub = gad_subspace(g, d)
        if g.length == d + 1:
            assert sub == Subspace.full(2, d, "S"), g
        else:
            factors = [(c2, -c1, alpha + 1) for (c1, c2), alpha in zip(points, alphas)
                       if alpha >= 0]
            assert sub == jordan_apolar_basis(factors, d), g
        lengths.add("full" if g.length == d + 1 else "zero" if not g.length else "proper")
    assert lengths == {"full", "zero", "proper"}


def test_gad_admissibility():
    with pytest.raises(AdmissibilityError):
        GAD(((1, 1), (2, 2)), (0, 0))


def test_hankel_rank_power():
    f = form_parse("y1^6", nvars=2)
    for a in range(7):
        assert hankel_rank(f, a) == 1


def test_hankel_rank_two_powers():
    f = form_parse("y1^7 + y2^7", nvars=2)
    assert [hankel_rank(f, a) for a in range(8)] == [1, 2, 2, 2, 2, 2, 2, 1]


def test_hankel_rank_three_powers_derived():
    f = None
    for k in (1, 2, 3):
        p = Form.make(2, 1, "S", {(1, 0): 1, (0, 1): k}).power(7)
        f = p if f is None else f + p
    assert hankel_rank(f, 3) == 3
    lam = Subspace.span(2, 7, "S", [f])
    assert hankel_rank(f, 3) == hilbert_function(lam)[3]


def test_hankel_matches_catalecticant_rank(rng):
    from levelalg.apolarity import catalecticant_matrix

    for _ in range(10):
        d = rng.randint(2, 9)
        f = Form.make(2, d, "S",
                      {m: rng.randint(-6, 6) for m in monomials(2, d)})
        if f.is_zero:
            continue
        lam = Subspace.span(2, d, "S", [f])
        for a in range(d + 1):
            assert hankel_rank(f, a) == rank(catalecticant_matrix(lam, a))


def held_chain_h(forms, d):
    """h_j of the span of the binary forms of S_d, read off the slices the
    derivative chain holds on it: dim R_j - dim I_j, and 0 for a zero
    span."""
    span = Subspace.span(2, d, "S", forms)
    return [j + 1 - ann_slice(span, j).dim if span.dim else 0 for j in range(d + 1)]


def random_binary_form(rng, d):
    """A zero form, a dense form with entries in -3..3 or in +-(1..3)/(1..4),
    or a sum of one to three d-th powers of linear forms with coefficients
    in -3..3."""
    kind = rng.randrange(5)
    if kind == 0:
        return Form.zero(2, d, "S")
    if kind == 1:
        return Form.make(2, d, "S", {m: rng.randint(-3, 3) for m in monomials(2, d)})
    if kind == 2:
        return Form.make(2, d, "S", {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 3),
                                                 rng.randint(1, 4)) for m in monomials(2, d)})
    total = Form.zero(2, d, "S")
    for _ in range(rng.randint(1, 3)):
        linear = {(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3)}
        total = total + Form.make(2, 1, "S", linear).power(d)
    return total


def test_the_hankel_ranks_are_h_of_the_held_chain():
    # the rank of hankel_matrix(f, a) is h_a of the span of f, and the rank
    # of stacked_hankel(forms, s) that a non-square stacked determinant
    # reports is h_s of the span of the forms, both read off the chain held
    # on the span and both equal to the Fraction rank of the matrix, with
    # zero forms, repeated forms, their multiples and forms with
    # non-integer coefficients mixed in
    rng = random.Random(47)
    cases = 0
    for _ in range(120):
        d = rng.randint(1, 9)
        forms = [random_binary_form(rng, d) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 2)):
            forms.insert(rng.randrange(len(forms) + 1),
                         rng.choice(forms).scale(rng.choice((1, -2, 3))))
        for f in forms:
            ranks = [hankel_rank(f, a) for a in range(d + 1)]
            assert ranks == held_chain_h([f], d), f
            assert ranks == [rank(hankel_matrix(f, a)) for a in range(d + 1)], f
            cases += d + 1
        h = held_chain_h(forms, d)
        for s in range(d + 1):
            if len(forms) * (d - s + 1) == s + 1:
                continue
            with pytest.raises(NotSquareError) as err:
                stacked_catalecticant_det(forms, s)
            assert err.value.rank == h[s], (forms, s)
            assert err.value.rank == rank(stacked_hankel(forms, s)), (forms, s)
            cases += 1
    assert cases > 2000


def test_the_square_stacked_det_is_the_fraction_det():
    # the square determinant, read off the integer Hankel rows, against the
    # Fraction det of stacked_hankel at every square shape t(d-s+1) = s+1
    # with t <= 3 and d <= 11, seeded forms with integer and with
    # fractional coefficients, zero forms and scaled repeats mixed in
    rng = random.Random(53)
    shapes = [(t, d, s) for t in (1, 2, 3) for d in range(1, 12) for s in range(d + 1)
              if t * (d - s + 1) == s + 1]
    fractional = nonzero = 0
    for t, d, s in shapes:
        for _ in range(20):
            forms = [random_binary_form(rng, d) for _ in range(t)]
            if t > 1 and rng.random() < 0.2:
                forms[-1] = forms[0].scale(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            value = stacked_catalecticant_det(forms, s)
            assert value == det(stacked_hankel(forms, s)), (forms, s)
            fractional += any(x.denominator > 1 for f in forms for x in f.vector())
            nonzero += value != 0
    assert len(shapes) >= 10 and fractional >= 50 and nonzero >= 50


def test_hankel_rank_of_the_zero_form_checks_its_index():
    # the zero form gives empty Hankel rows, whose sparse_rank is 0, and an
    # index outside 0..d is an error as for any other form
    zero = form_parse("0", nvars=2)
    assert hankel_rank(zero, 0) == 0
    assert hankel_rank(Form.zero(2, 4, "S"), 2) == 0
    for f in (zero, form_parse("y1^2", nvars=2)):
        with pytest.raises(DegreeError, match=rf"Hankel index 5 outside 0\.\.{f.degree}"):
            hankel_rank(f, 5)


def test_hankel_shape():
    f = form_parse("y1^7 + y2^7", nvars=2)
    m = hankel_matrix(f, 2)
    assert len(m) == 3 and len(m[0]) == 6


def test_sigma_dim_paper_example():
    assert sigma_dim(3, 11, 7) == 19


def test_sigma_dim_boundary_cases():
    for t, d in [(2, 6), (3, 9)]:
        assert sigma_dim(t, d, t) == t
    # beyond s0 the locus fills the Grassmannian
    from levelalg.levelhf import minmax_hf

    for t, d in [(2, 7), (3, 8)]:
        _, _, s0 = minmax_hf(t, d)
        for s in range(s0, d + 2):
            assert sigma_dim(t, d, s) == t * (d - t + 1)


def test_waring_witness_3_11_7():
    h = waring_witness_hf(3, 11, 7)
    assert h.values == (1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 6, 3)
    assert dim_stratum(h) == 19


def test_waring_witness_2_7_5():
    h = waring_witness_hf(2, 7, 5)
    assert h[5] == 5 and dim_stratum(h) == 11


def test_waring_witness_e_profile():
    for (t, d, s) in [(3, 11, 7), (2, 7, 5), (3, 12, 8)]:
        h = waring_witness_hf(t, d, s)
        m = s // t
        from levelalg.levelhf import e_sequence

        es = e_sequence(h)
        assert es[s - 1] == 1
        if d - m + 1 <= d + 1 and s - m * t > 0:
            assert es[d - m] == s - m * t
        assert es[d - m + 1] == m * t + t - s


def test_waring_witness_not_needed():
    with pytest.raises(WitnessError):
        waring_witness_hf(2, 5, 5)  # N1 = 11 >= N2 = 8


def test_in_sigma_power_span_witness():
    powers = [
        Form.make(2, 1, "S", {(1, 0): 1, (0, 1): -k}).power(7) for k in (1, 2)
    ]
    lam = Subspace.span(2, 7, "S", powers)
    w = in_sigma(lam, 2)
    assert w is not None
    # the witness is the product of the duals of y1 - y2 and y1 - 2 y2
    dual1 = Form.make(2, 1, "R", {(1, 0): 1, (0, 1): 1})
    dual2 = Form.make(2, 1, "R", {(1, 0): 2, (0, 1): 1})
    assert w.monic() == (dual1 * dual2).monic()


def test_in_sigma_generic_is_none(rng):
    for _ in range(5):
        forms = [
            Form.make(2, 7, "S", {m: rng.randint(-9, 9) for m in monomials(2, 7)})
            for _ in range(2)
        ]
        lam = Subspace.span(2, 7, "S", forms)
        if lam.dim != 2 or hilbert_function(lam)[4] != 5:
            continue
        assert in_sigma(lam, 4) is None


def test_in_sigma_example_15():
    h = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")
    lam = burch_point(h)
    w = in_sigma(lam, 5)
    assert w is not None and form_print(w.monic()) == "x2^5"


def test_stacked_det_vanishes_on_sigma5_members():
    w = jordan_apolar_basis([(1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)], 7)
    f1 = w.basis[0] + w.basis[2].scale(2)
    f2 = w.basis[1] - w.basis[4]
    assert stacked_catalecticant_det([f1, f2], 5) == 0


def test_stacked_det_nonzero_generic(rng):
    nonzero = 0
    for _ in range(10):
        forms = [
            Form.make(2, 7, "S", {m: rng.randint(-9, 9) for m in monomials(2, 7)})
            for _ in range(2)
        ]
        value = stacked_catalecticant_det(forms, 5)
        member = ann_slice(Subspace.span(2, 7, "S", forms), 5).dim > 0
        assert (value == 0) == member
        nonzero += value != 0
    assert nonzero >= 8


def test_stacked_det_repeated_form_is_zero():
    f = form_parse("y1^7 + 3*y1^4*y2^3 - y2^7", nvars=2)
    assert stacked_catalecticant_det([f, f], 5) == 0


def test_stacked_det_membership_iff_rank_drop(rng):
    # membership agreement: witness exists iff stacked rank <= s
    for _ in range(6):
        forms = [
            Form.make(2, 7, "S", {m: rng.randint(-5, 5) for m in monomials(2, 7)})
            for _ in range(2)
        ]
        lam = Subspace.span(2, 7, "S", forms)
        if lam.dim != 2:
            continue
        for s in range(2, 7):
            assert (in_sigma(lam, s) is not None) == (rank(stacked_hankel(forms, s)) <= s)


def test_stacked_non_square_reports_rank():
    forms = [form_parse("y1^7 + y2^7", nvars=2)]
    with pytest.raises(NotSquareError) as err:
        stacked_catalecticant_det(forms, 5)
    assert err.value.bound == 5
    assert err.value.rank == 2


def test_stacked_matrix_layout():
    f1 = form_parse("y1^7", nvars=2)
    f2 = form_parse("y2^7", nvars=2)
    m = stacked_hankel([f1, f2], 5)
    assert len(m) == 6 and len(m[0]) == 6
    import math

    # first block: Hankel rows of f1's weighted coordinates
    z0 = math.factorial(0) * math.factorial(7) * 1
    assert m[0][0] == z0 and m[1][0] == 0 and m[3][0] == 0


def test_hypersurface_case_values():
    assert hypersurface_case(2, 7) == (5, 3)
    assert hypersurface_case(2, 6) is None
    for d in range(2, 12, 2):
        s, coeff = hypersurface_case(1, d)
        assert s == d + 1 - (d + 2) // 2
        assert coeff == d - s + 1 == (d + 2) // 2
        # t = 1: the coefficient is the size of the square Hankel matrix,
        # i.e. the degree of its determinant
        assert coeff == (d - s + 1)


def test_decompose_intersect_identity_exhaustive_small():
    from conftest import all_level_hfs, burch_point

    for h in all_level_hfs(3, 9):
        lam = burch_point(h)
        lam2, h2 = secant_intersect(secant_decompose(lam))
        assert lam2 == lam and h2.values == h.values


def test_stacked_rank_bound_with_independent_determinant(rng):
    # a pencil inside a known 5-dimensional apolar space: the stacked 6x6
    # has rank <= 5, double-checked by a cofactor-expansion determinant
    from levelalg.linalg import QQ, rank

    def det_cofactor(m):
        if len(m) == 1:
            return m[0][0]
        total = QQ(0)
        for j in range(len(m)):
            if m[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * det_cofactor(minor)
            total += -term if j % 2 else term
        return total

    w = jordan_apolar_basis([(1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 1, 1), (3, 1, 1)], 7)
    f1 = w.basis[0] + w.basis[3].scale(5)
    f2 = w.basis[1] - w.basis[2].scale(2) + w.basis[4]
    m = stacked_hankel([f1, f2], 5)
    assert rank(m) <= 5
    assert det_cofactor(m) == 0


def test_decompose_requires_two_variables():
    lam = Subspace.span(3, 3, "S", [form_parse("y1*y2*y3")])
    with pytest.raises(DegreeError):
        secant_decompose(lam)


def test_waring_witness_stratum_lies_in_sigma():
    # every point of the witness stratum carries a degree-s apolar form
    from conftest import burch_point

    for (t, d, s) in [(2, 7, 5), (3, 11, 7), (2, 9, 6)]:
        h = waring_witness_hf(t, d, s)
        lam = burch_point(h)
        assert in_sigma(lam, s) is not None
