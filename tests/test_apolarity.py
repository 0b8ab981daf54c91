import random
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from conftest import burch_point, complement_positions, monomial_residuals
from levelalg.apolarity import (
    _action_table,
    _ideal_slice_stream,
    ann_slice,
    catalecticant_matrix,
    hilbert_function,
    internal_product,
    inverse_system_slice,
    jordan_apolar_basis,
    minimal_generators,
    socle,
    apolar_profile,
)
from levelalg.errors import (
    AdmissibilityError,
    AmbientMismatchError,
    DegreeError,
    NotArtinError,
    ZeroSubspaceError,
)
from levelalg.forms import (Form, Subspace, form_parse, form_print, monomial_index,
                            monomial_products, monomials)
from levelalg.levelhf import HilbertFunction, burch_ideal, e_sequence
from levelalg.linalg import rank
from levelalg.secant import hankel_coordinates

EX15 = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")


def ex15_lambda():
    _, gens = burch_ideal(EX15)
    return inverse_system_slice(gens, 2, 7)


def falling_factorial_table(nvars, j, i):
    # the action table as a falling-factorial loop over the monomials of S_i
    out_index = monomial_index(nvars, i - j)
    table = []
    for alpha in monomials(nvars, j):
        entries = {}
        for b_idx, beta in enumerate(monomials(nvars, i)):
            if all(b >= a for a, b in zip(alpha, beta)):
                factor = 1
                for a, b in zip(alpha, beta):
                    for k in range(a):
                        factor *= b - k
                entries[b_idx] = (out_index[tuple(b - a for a, b in zip(alpha, beta))],
                                  factor)
        table.append(entries)
    return tuple(table)


def test_weight_table_matches_falling_factorials_and_hankel_coordinates():
    for nvars in range(1, 5):
        for i in range(9):
            for j in range(i + 1):
                got = _action_table(nvars, j, i)
                want = falling_factorial_table(nvars, j, i)
                assert got == want, (nvars, j, i)
                assert [list(e) for e in got] == [list(e) for e in want], (nvars, j, i)
    rng = random.Random(5)
    for d in range(9):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)]
        f = Form.from_vector(2, d, "S", a)
        assert hankel_coordinates(f) == [factorial(i) * factorial(d - i) * a[i]
                                         for i in range(d + 1)]


def test_internal_product_single_derivative():
    u = form_parse("x1", nvars=2)
    f = form_parse("y1^3", nvars=2)
    assert form_print(internal_product(u, f)) == "3*y1^2"


def test_internal_product_mixed():
    u = form_parse("x1*x2")
    f = form_parse("y1^2*y2^2")
    assert form_print(internal_product(u, f)) == "4*y1*y2"


def test_internal_product_bilinear(rng):
    u1 = form_parse("x1^2", nvars=2)
    u2 = form_parse("x1*x2", nvars=2)
    f = form_parse("y1^4 + 3*y1^2*y2^2", nvars=2)
    left = internal_product(u1 + u2.scale(5), f)
    right = internal_product(u1, f) + internal_product(u2, f).scale(5)
    assert left == right


def test_internal_product_degree_error():
    with pytest.raises(DegreeError):
        internal_product(form_parse("x1^4", nvars=2), form_parse("y1^2", nvars=2))


def test_example_annihilation_in_degree_seven():
    lam = ex15_lambda()
    u = form_parse("x2^5", nvars=2)
    for b in lam.basis:
        prod = internal_product(u, b)
        assert prod.is_zero


def test_catalecticant_power_of_linear_form():
    lam = Subspace.span(2, 6, "S", [form_parse("y1^6", nvars=2)])
    for i in range(7):
        assert rank(catalecticant_matrix(lam, i)) == 1


def test_catalecticant_full_space():
    lam = Subspace.full(2, 5, "S")
    for i in range(6):
        assert rank(catalecticant_matrix(lam, i)) == i + 1


def test_catalecticant_shape():
    lam = ex15_lambda()
    m = catalecticant_matrix(lam, 5)
    assert len(m) == 3 * (7 - 5 + 1) and len(m[0]) == 6


def test_example_15_hilbert_function():
    assert hilbert_function(ex15_lambda()).values == (1, 2, 3, 4, 5, 5, 4, 3)


def test_hilbert_function_zero_subspace():
    with pytest.raises(ZeroSubspaceError):
        hilbert_function(Subspace.zero(2, 4, "S"))


def test_ann_slice_of_full_space_vanishes():
    lam = Subspace.full(2, 5, "S")
    for j in range(6):
        assert ann_slice(lam, j).subspace.dim == 0


def test_example_15_ann_slices():
    lam = ex15_lambda()
    i5 = ann_slice(lam, 5).subspace
    assert i5.dim == 1 and form_print(i5.basis[0]) == "x2^5"
    assert ann_slice(lam, 4).subspace.dim == 0


def test_duality_of_ranks(rng):
    for _ in range(15):
        d = rng.randint(2, 8)
        t = rng.randint(1, min(3, d + 1))
        forms = []
        for _ in range(t):
            coeffs = {m: rng.randint(-6, 6) for m in monomials(2, d)}
            forms.append(Form.make(2, d, "S", coeffs))
        lam = Subspace.span(2, d, "S", forms)
        if lam.dim == 0:
            continue
        h = hilbert_function(lam)
        for i in range(d + 1):
            assert ann_slice(lam, i).subspace.dim + h[i] == i + 1


def test_minimal_generators_example_15():
    gens = minimal_generators(ex15_lambda())
    degrees = [(deg, len(fs)) for deg, fs in gens]
    assert degrees == [(5, 1), (6, 1), (8, 2)]
    deg5 = gens[0][1][0]
    assert form_print(deg5) == "x2^5"


def test_minimal_generators_power_of_linear_form():
    d = 5
    lam = Subspace.span(2, d, "S", [form_parse("y1^5", nvars=2)])
    gens = minimal_generators(lam)
    assert [(deg, [form_print(g) for g in fs]) for deg, fs in gens] == [
        (1, ["x2"]),
        (6, ["x1^6"]),
    ]


def test_minimal_generators_26_example():
    h = HilbertFunction.parse("1,2,3,4,4,3,2,0")
    lam = burch_point(h)
    gens = minimal_generators(lam)
    assert [deg for deg, fs in gens for _ in fs] == [4, 5, 7]


def test_generator_counts_match_e_sequence(rng):
    for _ in range(10):
        d = rng.randint(2, 8)
        t = rng.randint(1, min(3, d))
        from levelalg.levelhf import enumerate_level_hf

        h = rng.choice(enumerate_level_hf(t, d))
        lam = burch_point(h)
        gens = minimal_generators(lam)
        es = e_sequence(h)
        counts = {deg: len(fs) for deg, fs in gens}
        for i, e in enumerate(es, start=1):
            assert counts.get(i, 0) == e


def test_socle_of_square_of_maximal_ideal():
    gens = [form_parse(s, nvars=2) for s in ("x1^2", "x1*x2", "x2^2")]
    assert socle(gens, 2) == [(1, 2)]


def test_socle_example_15_is_level():
    gens = [g for _, fs in minimal_generators(ex15_lambda()) for g in fs]
    assert socle(gens, 2) == [(7, 3)]


def test_socle_non_level_example():
    gens = [form_parse(s, nvars=2) for s in ("x1^2", "x1*x2^2", "x2^4")]
    assert socle(gens, 2) == [(2, 1), (3, 1)]


def test_socle_non_artin_rejected():
    with pytest.raises(NotArtinError):
        socle([form_parse("x1", nvars=2)], 2)
    # enough generators, but a common factor: the default bound 1 + 2 - 2 + 2
    with pytest.raises(NotArtinError, match="not vanished by degree 3"):
        socle([form_parse("x1", nvars=2), form_parse("x1^2", nvars=2)], 2)


def test_inverse_system_slice_rejects_generators_of_another_ring():
    # zip against the binary action table would drop x3 and answer a plane
    with pytest.raises(AmbientMismatchError, match="with 2 variables"):
        inverse_system_slice([form_parse("x1^2 + x3^2", nvars=3)], 2, 3)
    with pytest.raises(AmbientMismatchError):
        inverse_system_slice([form_parse("y1^2", nvars=2)], 2, 3)


def test_socle_three_variables():
    gens = [form_parse(s, nvars=3) for s in ("x1^2", "x2^2", "x3^2")]
    assert socle(gens, 3) == [(3, 1)]


def test_jordan_two_simple_points():
    sub = jordan_apolar_basis([(1, 0, 1), (0, 1, 1)], 3)
    assert sub == Subspace.span(2, 3, "S",
                                [form_parse("y1^3", nvars=2), form_parse("y2^3")])


def test_jordan_matches_kernel_computation():
    sub = jordan_apolar_basis([(1, 0, 2)], 3)
    from levelalg.secant import SecantPlane

    kernel_side = SecantPlane(form_parse("x1^2", nvars=2), 3).subspace()
    assert sub == kernel_side


def test_jordan_dimension_is_weight_sum(rng):
    for _ in range(25):
        m = rng.randint(2, 10)
        pts = []
        used = set()
        total = 0
        while len(pts) < rng.randint(1, 3):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if (a, b) == (0, 0):
                continue
            key = tuple(Fraction(x) for x in (a, b))
            bad = False
            for (pa, pb, _) in pts:
                if pa * b - a * pb == 0:
                    bad = True
            if bad:
                continue
            mu = rng.randint(1, 3)
            if total + mu > m:
                break
            pts.append((a, b, mu))
            total += mu
        if not pts:
            continue
        sub = jordan_apolar_basis(pts, m)
        assert sub.dim == total


def test_jordan_cross_check_with_kernel(rng):
    from levelalg.secant import SecantPlane

    for _ in range(15):
        m = rng.randint(3, 10)
        factors = []
        points = set()
        total = 0
        for _ in range(rng.randint(1, 3)):
            while True:
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                if (a, b) != (0, 0) and all(pa * b - a * pb != 0 for pa, pb in points):
                    break
            mu = rng.randint(1, 3)
            if total + mu > m:
                break
            points.add((a, b))
            factors.append((a, b, mu))
            total += mu
        if not factors:
            continue
        u = None
        for a, b, mu in factors:
            lin = Form.make(2, 1, "R", {(1, 0): a, (0, 1): b})
            p = lin.power(mu)
            u = p if u is None else u * p
        assert jordan_apolar_basis(factors, m) == SecantPlane(u, m).subspace()


def test_jordan_repeated_points_rejected():
    with pytest.raises(AdmissibilityError):
        jordan_apolar_basis([(1, 1, 1), (2, 2, 1)], 5)


def test_level_by_construction(rng):
    """Any span in S_d generates a level inverse system: socle (d, dim)."""
    for _ in range(10):
        d = rng.randint(2, 8)
        t = rng.randint(1, 3)
        forms = []
        for _ in range(t):
            coeffs = {m: rng.randint(-6, 6) for m in monomials(2, d)}
            forms.append(Form.make(2, d, "S", coeffs))
        lam = Subspace.span(2, d, "S", forms)
        if lam.dim == 0:
            continue
        gens = [g for _, fs in minimal_generators(lam) for g in fs]
        assert socle(gens, 2) == [(d, lam.dim)]


def beta_rank(lam, i):
    """Rank of beta_i : (R/I)_i -> S_{d-i} (x) (R/I)_d, u -> sum_M y^M (x)
    (u x^M mod I_d) over the monomials x^M of degree d-i, with rows indexed
    by a complement basis of I_i.  Injective for every i iff Lambda is level."""
    d = lam.degree
    residuals = monomial_residuals(ann_slice(lam, d).subspace)
    shift = monomial_products(lam.nvars, i, d - i)
    return rank([[x for r in shift[pos] for x in residuals[r]]
                 for pos in complement_positions(ann_slice(lam, i).subspace)])


def test_beta_injective_for_level_points(rng):
    lam = ex15_lambda()
    h = hilbert_function(lam)
    for i in range(1, 8):
        assert beta_rank(lam, i) == h[i]


def test_ancestor_property_of_ann_slices():
    lam = ex15_lambda()
    d = lam.degree
    i_d = ann_slice(lam, d).subspace
    for j in range(1, d):
        ij = ann_slice(lam, j).subspace
        for u in ij.basis:
            for m in monomials(2, d - j):
                prod = u * Form.monomial(2, "R", m)
                assert i_d.contains(prod)


def test_apolar_profile_sections():
    profile = apolar_profile(ex15_lambda())
    keys = [k for k, _ in profile.kv_lines()]
    assert keys[0] == "HILBERT"
    assert "SOCLE" in keys
    assert profile.is_level and profile.type == 3 and profile.socle_degree == 7


def test_top_degree_pairing_is_perfect():
    # u in R_d against F in S_d: the pairing matrix in monomial bases is
    # diagonal with nonzero factorial entries
    d = 5
    for i, alpha in enumerate(monomials(2, d)):
        u = Form.monomial(2, "R", alpha)
        for j, beta in enumerate(monomials(2, d)):
            f = Form.monomial(2, "S", beta)
            value = internal_product(u, f)
            if i == j:
                assert not value.is_zero
            else:
                assert value.is_zero


def test_beta_injective_on_random_level_points(rng):
    from conftest import all_level_hfs, burch_point, moved_burch_point

    pool = list(all_level_hfs(3, 7))
    for h in rng.sample(pool, 6):
        lam = moved_burch_point(h, rng)
        for i in range(1, h.d + 1):
            assert beta_rank(lam, i) == h[i]


def test_minimal_generators_generate_ancestor_ideal():
    lam = ex15_lambda()
    gens = [g for _, fs in minimal_generators(lam) for g in fs]
    # the stream ends at I_{d+1} = R_{d+1}, the first full slice
    slices = list(islice(_ideal_slice_stream(gens, 2), lam.degree + 3))
    assert len(slices) == lam.degree + 2
    for j, rows in enumerate(slices):
        assert Subspace.from_rows(2, j, "R", rows) == ann_slice(lam, j).subspace


def test_internal_product_is_module_action(rng):
    # (u v) . F = u . (v . F): the action respects ring multiplication
    for _ in range(12):
        du, dv = rng.randint(1, 3), rng.randint(1, 3)
        df = du + dv + rng.randint(0, 3)
        u = Form.make(2, du, "R", {m: rng.randint(-4, 4) for m in monomials(2, du)})
        v = Form.make(2, dv, "R", {m: rng.randint(-4, 4) for m in monomials(2, dv)})
        f = Form.make(2, df, "S", {m: rng.randint(-4, 4) for m in monomials(2, df)})
        assert internal_product(u * v, f) == internal_product(u, internal_product(v, f))


def test_socle_rejects_unit_ideal():
    with pytest.raises(NotArtinError, match="unit ideal"):
        socle([form_parse("1", nvars=2, ring="R"), form_parse("x1", nvars=2),
               form_parse("x2", nvars=2)], 2)


def test_socle_checks_the_count_before_the_ring():
    # zero generators are dropped, then the count is checked, then the ring
    forms = [form_parse("y1^2", nvars=2), form_parse("0", nvars=2, ring="R")]
    with pytest.raises(NotArtinError, match="^1 generators cannot"):
        socle(forms, 2)
    with pytest.raises(AmbientMismatchError):
        socle(forms + [form_parse("y2^2", nvars=2)], 2)


def _ideal_slices_by_products(gens, nvars, top):
    """Reference construction: I_j spanned by x^m * g for every generator g
    and every monomial x^m of degree j - deg g, one Form product each."""
    slices = []
    for j in range(top + 1):
        forms = [Form.monomial(nvars, "R", m) * g
                 for g in gens if not g.is_zero and g.degree <= j
                 for m in monomials(nvars, j - g.degree)]
        slices.append(Subspace.span(nvars, j, "R", forms))
    return slices


@pytest.mark.parametrize("nvars", [2, 3])
def test_incremental_ideal_slices_match_all_products(nvars, rng):
    max_degree = 4 if nvars == 2 else 3
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 4)):
            q = rng.randint(1, max_degree)
            gens.append(Form.make(nvars, q, "R", {m: rng.choice([0, 0, 1, -1, 2, 3])
                                                  for m in monomials(nvars, q)}))
        # past the first full slice, where the stream stops
        top = 2 * max_degree + 2
        expected = _ideal_slices_by_products(gens, nvars, top)
        full = next((j for j, ij in enumerate(expected) if ij.dim == ij.ambient_dim), top)
        got = list(islice(_ideal_slice_stream(gens, nvars), top + 1))
        assert len(got) == full + 1
        assert [Subspace.from_rows(nvars, j, "R", rows) for j, rows in enumerate(got)] == \
            expected[:full + 1]
        if full < top:
            assert len(got[-1]) == expected[full].ambient_dim


def test_socle_degree_bound_is_kept():
    gens = [form_parse("x1^3", nvars=2), form_parse("x2^3", nvars=2)]
    # R/(x1^3, x2^3) has socle x1^2 x2^2 and vanishes from degree 5 on
    assert socle(gens, 2, bound=5) == [(4, 1)]
    with pytest.raises(NotArtinError, match="not vanished by degree 4"):
        socle(gens, 2, bound=4)
    with pytest.raises(NotArtinError, match="not vanished by degree -1"):
        socle(gens, 2, bound=-1)


def test_three_variable_hilbert_function():
    lam = Subspace.span(3, 3, "S", [form_parse("y1*y2*y3")])
    assert hilbert_function(lam).values == (1, 3, 3, 1)
    gens = minimal_generators(lam)
    flat = [g for _, fs in gens for g in fs]
    assert socle(flat, 3) == [(3, 1)]
