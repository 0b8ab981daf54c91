"""The one-pass apolar routes against test-local copies of the routes they
replaced: Hilbert functions from Fraction catalecticant ranks, annihilator
slices from Fraction kernels of the catalecticant conditions (not the
derivative chain), minimal generators with the running span re-eliminated
after every generator, the socle from the generators' own ideal slices with
the socle ranked in Fractions, and secant planes intersected one pair at a
time.  Also: one derivative chain and one apolar pass per Lambda instance,
shared by the profile, the generators, the secant decomposition, ann_slice,
in_sigma and the tangent route, and the socle against Macaulay duality
(R/ann(Lambda) is level of socle degree d and type dim Lambda): the profile
states that socle, and the tests rank it in Fractions on the slices."""

import dataclasses
import random

import pytest

from conftest import all_level_hfs, monomial_residuals
from levelalg import apolarity
from levelalg.apolarity import (
    ApolarProfile,
    _action_table,
    _ideal_slice_stream,
    ann_slice,
    apolar_profile,
    catalecticant_matrix,
    integer_catalecticant,
    inverse_system_slice,
    minimal_generators,
    socle,
)
from levelalg.errors import PropernessError
from levelalg.forms import (
    Form,
    Subspace,
    form_parse,
    monomial_products,
    parse_subspace_lines,
    space_dim,
    subspace_intersect,
)
from levelalg.levelhf import HilbertFunction, burch_ideal
from levelalg.linalg import QQ, rank, right_kernel
from levelalg.secant import SecantPlane, in_sigma, secant_decompose, secant_intersect
from levelalg.tangent import tangent_space

# A fixed change of coordinates with no zero or unit entry.
MOVE = [[3, -4], [4, 3]]

# The ternary monomial subspaces of the stratum and tangent benchmarks.
TERNARY_SUBSPACES = (
    ("y1^2", "y2^2", "y3^2"),
    ("y1^3", "y2^3", "y3^3"),
    ("y1^2*y2", "y2^2*y3", "y3^2*y1"),
    ("y1^4", "y2^4"),
    ("y1^4", "y2^4", "y3^4"),
    ("y1^3*y2", "y2^3*y3", "y3^3*y1"),
    ("y1^2*y2^2", "y3^4"),
    ("y1*y2*y3^2", "y1^4", "y2^4"),
)

NON_MONOMIAL_TERNARY = (
    ("y1^3 + y2^3 + y3^3",),
    ("y1^4 + y2^4 + y3^4", "y1^2*y2*y3"),
)


def old_hilbert_function(lam):
    return HilbertFunction.from_values(
        [rank(catalecticant_matrix(lam, i)) for i in range(lam.degree + 1)])


def annihilator_conditions(lam, j):
    """Integer matrix of rank h_j whose right kernel is I_j, 0 <= j <= d:
    u = sum c_alpha x^alpha kills Lambda iff sum c_alpha (row (x^alpha, F)
    of the degree-(d-j) catalecticant) = 0 for every basis form F."""
    d, t = lam.degree, lam.dim
    cat, _ = integer_catalecticant(lam, d - j)
    width, nalpha = space_dim(lam.nvars, d - j), space_dim(lam.nvars, j)
    return [[cat[a * t + p][o] for a in range(nalpha)]
            for p in range(t) for o in range(width)]


def old_ann_slice(lam, j):
    n = lam.nvars
    if j > lam.degree:
        return Subspace.full(n, j, "R")
    kernel = right_kernel(annihilator_conditions(lam, j), ncols=space_dim(n, j))
    return Subspace.from_rows(n, j, "R", kernel)


def old_times_variables(sub):
    width, out = space_dim(sub.nvars, sub.degree + 1), []
    for shift in monomial_products(sub.nvars, 1, sub.degree):
        for row in sub.rows:
            v = [0] * width
            for k, c in zip(shift, row):
                v[k] = c
            out.append(v)
    return out


def old_minimal_generators(lam):
    n, d = lam.nvars, lam.degree
    out = []
    prev = Subspace.zero(n, 0, "R")
    for j in range(1, d + 2):
        target = old_ann_slice(lam, j)
        running = Subspace.from_rows(n, j, "R", old_times_variables(prev))
        gens = []
        for b in target.basis:
            residual = running.reduce(b)
            if any(c != 0 for c in residual):
                g = Form.from_vector(n, j, "R", residual).monic()
                gens.append(g)
                running = Subspace.from_rows(n, j, "R", running.rows + (g.vector(),))
        if gens:
            out.append((j, gens))
        prev = target
    return out


def old_socle_dims(slices):
    out = []
    for j, (ij, inext) in enumerate(zip(slices, slices[1:])):
        residuals = monomial_residuals(inext)
        rows = [[x for shift in monomial_products(ij.nvars, 1, j) for x in residuals[shift[m]]]
                for m in range(ij.ambient_dim)]
        s = len(rows) - rank(rows) - ij.dim
        if s > 0:
            out.append((j, s))
    return out


def old_socle(gens, nvars):
    slices = [Subspace.from_rows(nvars, j, "R", rows) for j, rows in
              enumerate(_ideal_slice_stream([g for g in gens if not g.is_zero], nvars))]
    return old_socle_dims(slices)


def old_profile_lines(lam):
    gens = old_minimal_generators(lam)
    soc = old_socle([g for _, forms in gens for g in forms], lam.nvars)
    return ApolarProfile(lam, old_hilbert_function(lam),
                         tuple((degree, tuple(forms)) for degree, forms in gens),
                         tuple(soc)).kv_lines()


def old_inverse_system_slice(gens, nvars, d):
    rows, dim_sd = [], space_dim(nvars, d)
    for g in gens:
        if g.degree > d or g.is_zero:
            continue
        conditions = [[QQ(0)] * dim_sd for _ in range(space_dim(nvars, d - g.degree))]
        for entries, cu in zip(_action_table(nvars, g.degree, d), g.vector()):
            if cu:
                for b_idx, (o, factor) in entries.items():
                    conditions[o][b_idx] += cu * factor
        rows.extend(conditions)
    if not rows:
        return Subspace.full(nvars, d, "S")
    return Subspace.from_rows(nvars, d, "S", right_kernel(rows, ncols=dim_sd))


def old_plane_intersection(planes, d):
    lam = Subspace.full(2, d, "S")
    for p in planes:
        lam = subspace_intersect(lam, old_inverse_system_slice([p.apolar_form], 2, d))
    return lam


def old_secant_decompose(lam):
    h = old_hilbert_function(lam)
    planes = [SecantPlane(g, lam.degree) for _, forms in old_minimal_generators(lam)
              for g in forms]
    assert old_plane_intersection(planes, lam.degree) == lam
    return h, planes


def old_secant_intersect(planes):
    d, t = planes[0].ambient_degree, len(planes) - 1
    qs = sorted(p.q for p in planes)
    codim_sum = sum(d + 1 - q for q in qs)
    if codim_sum != d - t + 1:
        raise PropernessError(
            f"codimensions sum to {codim_sum}, expected d - t + 1 = {d - t + 1}")
    lam = old_plane_intersection(planes, d)
    if lam.dim != t:
        raise PropernessError(f"intersection has dimension {lam.dim}, expected {t}: improper")
    es = {q: 0 for q in range(1, d + 2)}
    for q in qs:
        es[q] += 1
    values = [1]
    for i in range(1, d + 1):
        values.append(2 * values[i - 1] - (values[i - 2] if i >= 2 else 0) - es[i])
    return lam, HilbertFunction.from_values(values)


def assert_same_as_old_routes(lam):
    assert apolar_profile(lam).kv_lines() == old_profile_lines(lam)
    assert apolar_profile(lam).socle == ((lam.degree, lam.dim),)
    assert minimal_generators(lam) == old_minimal_generators(lam)
    if lam.nvars != 2:
        return
    h, planes = old_secant_decompose(lam)
    assert secant_decompose(lam) == planes
    assert secant_intersect(planes) == old_secant_intersect(planes) == (lam, h)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_binary_burch_points_match_the_old_routes(t):
    for h in (h for h in all_level_hfs(t, 10) if h.t == t):
        _, gens = burch_ideal(h)
        for gs in (gens, [g.substitute_linear(MOVE) for g in gens]):
            lam = inverse_system_slice(gs, 2, h.d)
            assert lam == old_inverse_system_slice(gs, 2, h.d)
            assert old_hilbert_function(lam) == h
            assert_same_as_old_routes(lam)


@pytest.mark.parametrize("lines", TERNARY_SUBSPACES + NON_MONOMIAL_TERNARY)
def test_ternary_subspaces_match_the_old_routes(lines):
    lam = parse_subspace_lines(lines, nvars=3)
    assert_same_as_old_routes(lam)
    gens = [g for _, forms in minimal_generators(lam) for g in forms]
    assert inverse_system_slice(gens, 3, lam.degree) == \
        old_inverse_system_slice(gens, 3, lam.degree) == lam


@pytest.mark.parametrize("ops, d", [
    (["x1*x2", "x1^2 - x2^2"], 7),  # codimensions do not add up
    (["x1^3", "x1^2*x2"], 4),  # a common factor: the planes meet in a line
])
def test_improper_planes_keep_their_messages(ops, d):
    planes = [SecantPlane(form_parse(u, nvars=2, ring="R"), d) for u in ops]
    with pytest.raises(PropernessError) as new:
        secant_intersect(planes)
    with pytest.raises(PropernessError) as old:
        old_secant_intersect(planes)
    assert str(new.value) == str(old.value)


# Artin quotients that are not level: socles in two or more degrees.
NON_LEVEL_IDEALS = (
    (2, ("x1^2", "x1*x2", "x2^3")),
    (2, ("x1^3", "x1*x2", "x2^2")),
    (2, ("x1^2", "x1*x2^2", "x2^4")),
    (3, ("x1^2", "x1*x2", "x1*x3", "x2^3", "x3^2")),
    (3, ("x1^2", "x1*x2", "x1*x3", "x2^2", "x3^3")),
)


@pytest.mark.parametrize("nvars, ops", NON_LEVEL_IDEALS)
def test_socle_of_non_level_ideals_matches_the_old_route(nvars, ops):
    gens = [form_parse(u, nvars=nvars, ring="R") for u in ops]
    move = MOVE if nvars == 2 else [[3, -4, 1], [4, 3, -2], [1, 2, 5]]
    for gs in (gens, [g.substitute_linear(move) for g in gens]):
        soc = socle(gs, nvars)
        assert soc == old_socle(gs, nvars)
        assert len(soc) >= 2


def test_the_pass_runs_once_per_lambda(monkeypatch):
    # one derivative chain runs down from d to 1 once per Lambda, and
    # ann_slice, in_sigma and the tangent route read the same slices;
    # calls records the degree of each chain step
    calls = []
    step = apolarity._chain_step

    def counted(nvars, j, span):
        calls.append(j)
        return step(nvars, j, span)

    monkeypatch.setattr(apolarity, "_chain_step", counted)
    h = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")
    _, gens = burch_ideal(h)
    lam = inverse_system_slice([g.substitute_linear(MOVE) for g in gens], 2, h.d)
    one_pass = list(range(h.d, 0, -1))
    fresh = dataclasses.replace(lam)
    planes = secant_decompose(lam)
    profile = apolar_profile(lam)
    assert secant_decompose(lam) == planes
    generators = minimal_generators(lam)
    assert calls == one_pass
    # the other readers of I_j take the slices the chain computed
    slices = [ann_slice(lam, j).subspace for j in range(h.d + 2)]
    assert [in_sigma(lam, s) is not None for s in range(h.t, h.d + 1)] == \
        [s >= 5 for s in range(h.t, h.d + 1)]
    dual = tangent_space(lam)
    assert calls == one_pass
    assert slices == [old_ann_slice(fresh, j) for j in range(h.d + 2)]
    # and the tangent route alone runs the chain once on a fresh copy
    fresh_dual = tangent_space(dataclasses.replace(lam))
    assert fresh_dual == dual
    assert calls == 2 * one_pass
    # == leaves the basis out; building it reads only the stored echelon
    assert fresh_dual.basis == dual.basis
    assert calls == 2 * one_pass
    # a first ann_slice or in_sigma at s runs the chain down to s only,
    # d - s + 1 steps, and a lower s later extends it
    for s in range(1, h.d + 1):
        calls.clear()
        partial = dataclasses.replace(lam)
        assert ann_slice(partial, s).subspace == slices[s]
        assert calls == list(range(h.d, s - 1, -1))
        if s >= h.t:
            in_sigma(dataclasses.replace(lam), s)
            assert calls == 2 * list(range(h.d, s - 1, -1))
        calls.clear()
        assert [ann_slice(partial, j).subspace for j in range(h.d + 2)] == slices
        assert calls == list(range(s - 1, 0, -1))
    calls.clear()
    assert ann_slice(dataclasses.replace(lam), 0).subspace == slices[0]
    assert calls == []
    # the memo is no field: equality and repr are those of a fresh copy
    assert lam == fresh and repr(lam) == repr(fresh)
    calls.clear()
    assert secant_decompose(fresh) == planes
    assert apolar_profile(fresh) == profile
    assert calls == one_pass
    # the returned lists are the caller's own
    generators[0][1].clear()
    generators.append((9, []))
    assert minimal_generators(lam) != generators
    assert apolar_profile(lam) == profile
    assert apolar_profile(lam).kv_lines() == old_profile_lines(fresh)


# -- the derivative chain against the catalecticant conditions ----------------

def random_subspace(rng, nvars, d, t):
    """The span of t dense forms of S_d with random small nonzero rational
    coefficients (of dimension t, barring a rare dependence)."""
    return Subspace.from_rows(nvars, d, "S", [
        [QQ(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
         for _ in range(space_dim(nvars, d))]
        for _ in range(t)])


def assert_chain_matches_the_conditions(lam):
    # I_0, ..., I_{d+1}: I_0 = 0 and I_{d+1} = R_{d+1} lie outside the chain
    d = lam.degree
    assert [ann_slice(lam, j).subspace for j in range(d + 2)] == \
        [old_ann_slice(lam, j) for j in range(d + 2)]
    assert apolar_profile(lam).kv_lines() == old_profile_lines(lam)


@pytest.mark.parametrize("nvars, d_max", [(1, 7), (2, 10), (3, 6)])
def test_the_derivative_chain_matches_the_catalecticant_route(rng, nvars, d_max):
    for d in range(d_max + 1):
        for t in range(1, min(4, space_dim(nvars, d)) + 1):
            lam = random_subspace(rng, nvars, d, t)
            assert_chain_matches_the_conditions(lam)
            # one variable: y1^d spans S_d, so no slice below d + 1 has an element
            if nvars == 1:
                assert all(ann_slice(lam, j).subspace.dim == 0 for j in range(d + 1))


@pytest.mark.parametrize("nvars, d, t", [(2, 9, 3), (2, 10, 1), (3, 6, 2), (3, 5, 4)])
def test_a_partial_chain_extends_to_lower_degrees(rng, nvars, d, t):
    # ann_slice at d - 1 first runs two steps; lower degrees extend that
    # chain on the same instance, and degrees already run are only read
    lam = random_subspace(rng, nvars, d, t)
    fresh = dataclasses.replace(lam)
    for j in (d - 1, d, d - 3, d + 1, 1, 0, d - 2):
        assert ann_slice(lam, j).subspace == old_ann_slice(fresh, j), j
    assert apolar_profile(lam).kv_lines() == old_profile_lines(fresh)


def test_a_chain_step_cut_short_leaves_the_chain_as_it_was(rng, monkeypatch):
    # the first step at j = 5 raises: the steps before it stay done, and the
    # next read runs it again
    lam = random_subspace(rng, 2, 8, 2)
    fresh = dataclasses.replace(lam)
    calls, step = [], apolarity._chain_step

    def cut(nvars, j, span):
        calls.append(j)
        if calls == [8, 7, 6, 5]:
            raise MemoryError
        return step(nvars, j, span)

    monkeypatch.setattr(apolarity, "_chain_step", cut)
    with pytest.raises(MemoryError):
        ann_slice(lam, 3)
    assert [ann_slice(lam, j).subspace for j in range(10)] == \
        [old_ann_slice(fresh, j) for j in range(10)]
    assert calls == [8, 7, 6, 5, 5, 4, 3, 2, 1]
    assert apolar_profile(lam).kv_lines() == old_profile_lines(fresh)


def random_integer_span(rng, nvars, d, t):
    """The span of t dense forms of S_d with random integer coefficients in
    -3..3."""
    return Subspace.from_rows(nvars, d, "S", [
        [QQ(rng.randint(-3, 3)) for _ in range(space_dim(nvars, d))] for _ in range(t)])


@pytest.mark.parametrize("nvars, d_max", [(1, 7), (2, 8), (3, 5), (4, 4)])
def test_the_socle_is_the_macaulay_dual_one(rng, nvars, d_max):
    # R/ann(Lambda) is level with socle ((d, t),): ranked in Fractions on
    # the slices I_0, ..., I_{d+1}, and stated by the profile
    for d in range(d_max + 1):
        for t in range(1, min(4, space_dim(nvars, d)) + 1):
            for lam in (random_subspace(rng, nvars, d, t), random_integer_span(rng, nvars, d, t)):
                if not lam.dim:  # the theorem is about nonzero Lambda
                    continue
                slices = [ann_slice(lam, j).subspace for j in range(d + 2)]
                assert old_socle_dims(slices) == [(d, lam.dim)]
                assert apolar_profile(lam).socle == ((d, lam.dim),)


def test_four_quartics_in_four_variables_match_the_old_routes(monkeypatch):
    # each generator found in a degree is cross-multiplied into the residuals
    # after it: stored without dividing out its content, their bit lengths
    # doubled with every one of the 15 generators of degree 4 (55, 226, 451,
    # ..., past 3.6 million bits); divided by it, they stay under 230 bits.
    # The pass reads the lead of each generator it stores, so a residual
    # over the bound fails here instead of running for minutes.
    lead = apolarity._lead

    def bounded(v):
        assert max(abs(x).bit_length() for x in v) <= 1024
        return lead(v)

    monkeypatch.setattr(apolarity, "_lead", bounded)
    lam = random_integer_span(random.Random(4), 4, 4, 4)
    assert old_hilbert_function(lam) == apolar_profile(lam).hilbert
    assert minimal_generators(lam) == old_minimal_generators(lam)
    assert [(j, len(gens)) for j, gens in minimal_generators(lam)] == [(3, 4), (4, 15)]
