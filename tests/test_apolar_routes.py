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

from conftest import (_action_table, all_level_hfs, burch_point, ideal_slice_stream,
                      monomial_residuals, power_sum_span, row_space_intersection)
from levelalg import apolarity, secant
from levelalg.apolarity import (
    ApolarProfile,
    ann_slice,
    apolar_profile,
    catalecticant_matrix,
    inverse_system_slice,
    minimal_generators,
    socle,
)
from levelalg.errors import LevelAlgError, PropernessError
from levelalg.forms import (
    Form,
    Subspace,
    form_parse,
    form_print,
    monomial_products,
    monomials,
    parse_subspace_lines,
    space_dim,
)
from levelalg.levelhf import HilbertFunction, burch_ideal, e_sequence, enumerate_level_hf
from levelalg.linalg import QQ, integer_echelon, rank, right_kernel, sparse_rank
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
    """Matrix of rank h_j whose right kernel is I_j, 0 <= j <= d: u = sum
    c_alpha x^alpha kills Lambda iff sum c_alpha (row (x^alpha, F) of the
    degree-(d-j) catalecticant) = 0 for every basis form F.  Each condition
    row takes the entries of one form F only, so a scale of F does not move
    the kernel."""
    d, t = lam.degree, lam.dim
    cat = catalecticant_matrix(lam, d - j)
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
              enumerate(ideal_slice_stream([g for g in gens if not g.is_zero], nvars))]
    return old_socle_dims(slices)


def old_profile_lines(lam, gens=None):
    gens = old_minimal_generators(lam) if gens is None else gens
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
        plane = old_inverse_system_slice([p.apolar_form], 2, d)
        lam = Subspace.from_rows(2, d, "S", row_space_intersection(lam.rows, plane.rows,
                                                                   lam.ambient_dim))
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


def random_artin_ideals(nvars, count):
    """Seeded random artin ideals as operator strings: a power of each
    variable, then up to three sparse random forms of degree 2 or 3."""
    rng = random.Random(nvars)
    out = []
    for _ in range(count):
        ops = [f"x{k}^{rng.randint(2, 4 if nvars < 3 else 3)}" for k in range(1, nvars + 1)]
        for _ in range(rng.randint(1, 3)):
            q = rng.randint(2, 3)
            ops.append(form_print(Form.make(nvars, q, "R", {
                m: rng.choice([0, 0, 1, -1, 2]) for m in monomials(nvars, q)})))
        out.append((nvars, tuple(ops)))
    return tuple(out)


MOVES = {1: [[-2]], 2: MOVE, 3: [[3, -4, 1], [4, 3, -2], [1, 2, 5]]}


@pytest.mark.parametrize("nvars, ops", NON_LEVEL_IDEALS + random_artin_ideals(1, 3)
                         + random_artin_ideals(2, 5) + random_artin_ideals(3, 5))
def test_socle_of_non_level_ideals_matches_the_old_route(nvars, ops):
    gens = [form_parse(u, nvars=nvars, ring="R") for u in ops]
    for gs in (gens, [g.substitute_linear(MOVES[nvars]) for g in gens]):
        soc = socle(gs, nvars)
        assert soc == old_socle(gs, nvars)
        if (nvars, ops) in NON_LEVEL_IDEALS:
            assert len(soc) >= 2


def test_the_pass_runs_once_per_lambda(monkeypatch):
    # one derivative chain runs down from d to the first zero slice once
    # per Lambda, and ann_slice, in_sigma and the tangent route read the same
    # slices; calls records the degree of each chain step
    calls = []
    step = apolarity._chain_step

    def counted(nvars, j, span):
        calls.append(j)
        return step(nvars, j, span)

    monkeypatch.setattr(apolarity, "_chain_step", counted)
    h = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")
    _, gens = burch_ideal(h)
    lam = inverse_system_slice([g.substitute_linear(MOVE) for g in gens], 2, h.d)
    # h_4 = 5 = dim R_4: the chain stops at I_4 = 0, and I_3 = ... = I_1 = 0
    stop = 4
    one_pass = list(range(h.d, stop - 1, -1))
    fresh = dataclasses.replace(lam)
    planes = secant_decompose(lam)
    profile = apolar_profile(lam)
    assert secant_decompose(lam) == planes
    generators = minimal_generators(lam)
    assert calls == one_pass
    # the other readers of I_j take the slices the chain computed
    slices = [ann_slice(lam, j) for j in range(h.d + 2)]
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
    # a first ann_slice or in_sigma at s runs the chain down to s, or to
    # the zero slice above s, only, and a lower s later extends it
    for s in range(1, h.d + 1):
        calls.clear()
        partial = dataclasses.replace(lam)
        assert ann_slice(partial, s) == slices[s]
        assert calls == list(range(h.d, max(s, stop) - 1, -1))
        if s >= h.t:
            in_sigma(dataclasses.replace(lam), s)
            assert calls == 2 * list(range(h.d, max(s, stop) - 1, -1))
        calls.clear()
        assert [ann_slice(partial, j) for j in range(h.d + 2)] == slices
        assert calls == list(range(s - 1, stop - 1, -1))
    calls.clear()
    assert ann_slice(dataclasses.replace(lam), 0) == slices[0]
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
    assert [ann_slice(lam, j) for j in range(d + 2)] == \
        [old_ann_slice(lam, j) for j in range(d + 2)]
    assert apolar_profile(lam).kv_lines() == old_profile_lines(lam)


@pytest.mark.parametrize("nvars, d_max", [(1, 7), (2, 10), (3, 6), (4, 5)])
def test_the_derivative_chain_matches_the_catalecticant_route(rng, nvars, d_max):
    for d in range(d_max + 1):
        for t in range(1, min(4, space_dim(nvars, d)) + 1):
            lam = random_subspace(rng, nvars, d, t)
            assert_chain_matches_the_conditions(lam)
            # one variable: y1^d spans S_d, so no slice below d + 1 has an element
            if nvars == 1:
                assert all(ann_slice(lam, j).dim == 0 for j in range(d + 1))


@pytest.mark.parametrize("nvars, d, t", [(2, 9, 3), (2, 10, 1), (3, 6, 2), (3, 5, 4)])
def test_a_partial_chain_extends_to_lower_degrees(rng, nvars, d, t):
    # ann_slice at d - 1 first runs two steps; lower degrees extend that
    # chain on the same instance, and degrees already run are only read
    lam = random_subspace(rng, nvars, d, t)
    fresh = dataclasses.replace(lam)
    for j in (d - 1, d, d - 3, d + 1, 1, 0, d - 2):
        assert ann_slice(lam, j) == old_ann_slice(fresh, j), j
    assert apolar_profile(lam).kv_lines() == old_profile_lines(fresh)


def test_a_chain_step_cut_short_leaves_the_chain_as_it_was(rng, monkeypatch):
    # the first step at j = 6 raises: the steps before it stay done, and the
    # next read runs it again, then the chain stops at I_5 = 0 (h_5 = 6 =
    # dim R_5 for two general forms of S_8)
    lam = random_subspace(rng, 2, 8, 2)
    fresh = dataclasses.replace(lam)
    calls, step = [], apolarity._chain_step

    def cut(nvars, j, span):
        calls.append(j)
        if calls == [8, 7, 6]:
            raise MemoryError
        return step(nvars, j, span)

    monkeypatch.setattr(apolarity, "_chain_step", cut)
    with pytest.raises(MemoryError):
        ann_slice(lam, 3)
    assert [ann_slice(lam, j) for j in range(10)] == \
        [old_ann_slice(fresh, j) for j in range(10)]
    assert calls == [8, 7, 6, 6, 5]
    assert apolar_profile(lam).kv_lines() == old_profile_lines(fresh)


@pytest.mark.parametrize("nvars, d_max", [(1, 7), (2, 9), (3, 6), (4, 4)])
def test_the_chain_stops_at_the_first_zero_slice(rng, monkeypatch, nvars, d_max):
    # R_1 I_{j-1} lies in I_j and R is a domain, so I_j = 0 forces
    # I_{j-1} = 0: no step runs below the first empty kernel, and the slices
    # held below it are the catalecticant route's
    steps, step = [], apolarity._chain_step

    def recorded(n, j, span):
        kernel, rest = step(n, j, span)
        steps.append((j, len(kernel)))
        return kernel, rest

    monkeypatch.setattr(apolarity, "_chain_step", recorded)
    points = [random_subspace(rng, nvars, d, t) for d in range(1, d_max + 1)
              for t in range(1, min(3, space_dim(nvars, d)) + 1)]
    if nvars == 2:
        points += [burch_point(h) for h in all_level_hfs(3, 8)]
    stopped = 0
    for lam in points:
        d, fresh = lam.degree, dataclasses.replace(lam)
        steps.clear()
        expected = [old_ann_slice(fresh, j) for j in range(d + 2)]
        assert [ann_slice(lam, j) for j in range(d + 2)] == expected
        # the last step is at the top zero slice of the reference, or at 1
        last = next((j for j in range(d, 0, -1) if expected[j].dim == 0), 1)
        assert [j for j, _ in steps] == list(range(d, last - 1, -1))
        assert all(size for _, size in steps[:-1])
        stopped += last > 1
    assert stopped >= 4


def refuse_chain_steps(nvars, j, span):
    raise AssertionError(f"a chain step at degree {j} on a Lambda that holds its chain")


@pytest.mark.parametrize("nvars, d_max", [(2, 9), (3, 6), (4, 4)])
def test_the_held_chain_is_read_in_one_step(rng, monkeypatch, nvars, d_max):
    # once the chain has run, a second tangent_space or apolar_profile call
    # on the same Lambda runs no chain step and returns what the first
    # did; a copy made by dataclasses.replace holds nothing, runs the chain
    # again and agrees; and the held sparse slices, read back dense, are the
    # catalecticant route's reduced echelon rows, with h held beside them
    points = [random_subspace(rng, nvars, d, t) for d in range(1, d_max + 1)
              for t in range(1, min(3, space_dim(nvars, d)) + 1)]
    if nvars == 2:
        points += [burch_point(h) for h in all_level_hfs(3, 8)]
        points += [inverse_system_slice([g.substitute_linear(MOVE) for g in burch_ideal(h)[1]],
                                        2, h.d) for h in all_level_hfs(3, 8)]
    for lam in points:
        d = lam.degree
        by_tangent, by_profile = dataclasses.replace(lam), dataclasses.replace(lam)
        tangent, profile = tangent_space(by_tangent), apolar_profile(by_profile)
        with monkeypatch.context() as patch:
            patch.setattr(apolarity, "_chain_step", refuse_chain_steps)
            again = tangent_space(by_tangent)
            assert again == tangent and again.basis == tangent.basis
            assert apolar_profile(by_tangent) == apolar_profile(by_profile) == profile
            assert tangent_space(by_profile) == tangent
            assert [ann_slice(by_tangent, j) for j in range(d + 2)] == \
                [ann_slice(by_profile, j) for j in range(d + 2)]
        fresh = dataclasses.replace(by_tangent)
        assert "_slices" not in fresh.__dict__
        assert tangent_space(fresh) == tangent and apolar_profile(fresh) == profile
        slices, hf = apolarity._slices(fresh)
        assert hf == profile.hilbert == old_hilbert_function(lam)
        assert len(slices) == d + 1
        for j, rows in enumerate(slices):
            width = space_dim(lam.nvars, j)
            assert all(0 not in row.values() and set(row) <= set(range(width)) for row in rows)
            dense = tuple(tuple(row.get(c, 0) for c in range(width)) for row in rows)
            assert dense == old_ann_slice(lam, j).echelon, (lam, j)


def held_slice_rows(lam):
    """Every row of every slice held on lam: the complete slices I_0, ...,
    I_d once the chain has reached its end, else I_d, I_{d-1}, ... of the
    chain run so far."""
    held = lam.__dict__.get("_slices")
    slices = held[0] if held is not None else lam.__dict__["_chain"][0]
    return [row for rows in slices for row in rows]


@pytest.mark.parametrize("nvars, d_max", [(1, 6), (2, 9), (3, 6), (4, 5)])
def test_every_held_slice_row_has_increasing_columns(rng, nvars, d_max):
    # the tangent route reads a slice row's lead as its first key: every row
    # of every slice, held by a partial chain (ann_slice and in_sigma stop it
    # at their degree) or by a full one, has its columns in increasing order,
    # so its first key is min(row); on dense, power-sum and, at n = 2,
    # unmoved and moved Burch spans
    points = [random_subspace(rng, nvars, d, t) for d in range(1, d_max + 1)
              for t in range(1, min(3, space_dim(nvars, d)) + 1)]
    points += [power_sum_span(nvars, d, t, s) for d in range(1, d_max + 1)
               for t, s in ((1, 2), (2, 4), (3, 3))]
    if nvars == 2:
        points += [burch_point(h) for h in all_level_hfs(3, 8)]
        points += [inverse_system_slice([g.substitute_linear(MOVE) for g in burch_ideal(h)[1]],
                                        2, h.d) for h in all_level_hfs(3, 8)]
    partial = rows = 0
    for lam in points:
        if not lam.dim:
            continue
        d = lam.degree
        states = []
        for j in range(d, 0, -1):
            cut = dataclasses.replace(lam)
            ann_slice(cut, j)
            states.append(cut)
            if lam.dim <= j:
                cut = dataclasses.replace(lam)
                in_sigma(cut, j)
                states.append(cut)
        whole = dataclasses.replace(lam)
        apolarity._slices(whole)
        states.append(whole)
        for state in states:
            partial += "_chain" in state.__dict__
            for row in held_slice_rows(state):
                assert list(row) == sorted(row) and next(iter(row)) == min(row), lam
                rows += 1
    # at n = 1, y1^d spans S_d: every slice is 0, and the first step ends the chain
    assert (partial > 0 and rows > 0) == (nvars > 1)


def old_rule_spans(lam):
    """The echelon forms (linalg.integer_echelon) of the rows each step of
    the derivative chain got by its old rule: Lambda's divided-power rows at
    j = d, and below, R_1 contracting every echelon row of the step before,
    down to the first degree whose slice is 0, or to 1."""
    n, d = lam.nvars, lam.degree
    rows, out = apolarity._divided_power_rows(lam), []
    for j in range(d, 0, -1):
        width = space_dim(n, j)
        echelon, pivots, _ = integer_echelon([[row.get(c, 0) for c in range(width)]
                                              for row in rows], width)
        out.append((j, echelon))
        if len(pivots) == width:
            break
        rows = apolarity._contract([{c: x for c, x in enumerate(v) if x} for v in echelon],
                                   n, 1, j - 1)
    return out


def chain_spans(lam, monkeypatch):
    """The echelon forms of the rows each step of a fresh chain on a copy of
    lam gets, and how many of those steps get two shifted rows with one lead
    and shifted rows of lower rank than their number."""
    spans, shared, dependent = [], [], []
    step = apolarity._chain_step

    def recorded(nvars, j, span):
        shifted, new = span
        width = space_dim(nvars, j)
        echelon, _, _ = integer_echelon([[row.get(c, 0) for c in range(width)]
                                         for row in (*shifted, *new)], width)
        spans.append((j, echelon))
        leads = [min(row) for row in shifted if row]
        shared.append(len(set(leads)) < len(leads))
        dependent.append(sparse_rank(shifted) < len(leads))
        return step(nvars, j, span)

    with monkeypatch.context() as patch:
        patch.setattr(apolarity, "_chain_step", recorded)
        apolarity._slices(dataclasses.replace(lam))
    return spans, sum(shared), sum(dependent)


@pytest.mark.parametrize("nvars, d_max", [(1, 6), (2, 9), (3, 6), (4, 5)])
def test_the_chain_spans_what_the_old_rule_spanned(rng, monkeypatch, nvars, d_max):
    # x1 contracting every echelon row of Lambda_j and x2, ..., xn only the
    # rows whose lead no shifted row gave span Lambda_{j-1}, as R_1
    # contracting every echelon row did: step by step the same row space,
    # on seeded dense spans, power-sum spans and, at n = 2, the Burch points
    # of t <= 3, d <= 8, unmoved and moved.  At n >= 3 x1 drops the columns
    # whose monomial has no y1, so shifted rows share leads and lose rank,
    # and both cases occur here
    points = [random_subspace(rng, nvars, d, t) for d in range(1, d_max + 1)
              for t in range(1, min(3, space_dim(nvars, d)) + 1)]
    points += [power_sum_span(nvars, d, t, s) for d in range(2, d_max + 1)
               for t, s in ((1, 2), (2, 4), (3, 3))]
    if nvars == 2:
        points += [burch_point(h) for h in all_level_hfs(3, 8)]
        points += [inverse_system_slice([g.substitute_linear(MOVE) for g in burch_ideal(h)[1]],
                                        2, h.d) for h in all_level_hfs(3, 8)]
    shared = dependent = 0
    for lam in points:
        if not lam.dim:
            continue
        spans, a, b = chain_spans(lam, monkeypatch)
        assert spans == old_rule_spans(lam), lam
        shared, dependent = shared + a, dependent + b
    assert (shared > 0 and dependent > 0) == (nvars >= 3)


def random_integer_span(rng, nvars, d, t):
    """The span of t dense forms of S_d with random integer coefficients in
    -3..3."""
    return Subspace.from_rows(nvars, d, "S", [
        [QQ(rng.randint(-3, 3)) for _ in range(space_dim(nvars, d))] for _ in range(t)])


@pytest.mark.parametrize("nvars, d_max", [(1, 7), (2, 8), (3, 5), (4, 4)])
def test_the_socle_is_the_macaulay_dual_one(rng, nvars, d_max):
    # R/ann(Lambda) is level with socle ((d, t),): ranked in Fractions on
    # the slices I_0, ..., I_{d+1}, and stated by the profile, whose
    # generators, with the degrees that hold none skipped, are the old ones
    for d in range(d_max + 1):
        for t in range(1, min(4, space_dim(nvars, d)) + 1):
            for lam in (random_subspace(rng, nvars, d, t), random_integer_span(rng, nvars, d, t)):
                if not lam.dim:  # the theorem is about nonzero Lambda
                    continue
                slices = [ann_slice(lam, j) for j in range(d + 2)]
                assert old_socle_dims(slices) == [(d, lam.dim)]
                assert apolar_profile(lam).socle == ((d, lam.dim),)
                gens = old_minimal_generators(lam)
                assert minimal_generators(lam) == gens
                assert apolar_profile(lam).kv_lines() == old_profile_lines(lam, gens)


def test_four_quartics_in_four_variables_match_the_old_routes(monkeypatch):
    # each generator found in a degree is cross-multiplied into the residuals
    # after it: stored without dividing out its content, their bit lengths
    # doubled with every one of the 15 generators of degree 4 (55, 226, 451,
    # ..., past 3.6 million bits); divided by it, they stay under 230 bits.
    # The pass builds the form of each generator it stores from its integer
    # row, so a residual over the bound fails here instead of running for
    # minutes.
    monic_form = apolarity._monic_form

    def bounded(nvars, degree, ring, entries):
        entries = list(entries)
        assert max(abs(x).bit_length() for _, x in entries) <= 1024
        return monic_form(nvars, degree, ring, entries)

    monkeypatch.setattr(apolarity, "_monic_form", bounded)
    lam = random_integer_span(random.Random(4), 4, 4, 4)
    assert old_hilbert_function(lam) == apolar_profile(lam).hilbert
    assert minimal_generators(lam) == old_minimal_generators(lam)
    assert [(j, len(gens)) for j, gens in minimal_generators(lam)] == [(3, 4), (4, 15)]


def test_the_pass_builds_its_generators_as_form_checks_them(monkeypatch):
    # the apolar pass builds each generator by _monic_form's trusted path,
    # which skips Form.__post_init__; on the seed-1 stratum stream each one
    # equals the form the checked constructor builds from its fields, and
    # prints and parses back to itself.  Form(...) keeps its checks:
    # tests/test_forms.py holds one malformed case for each
    spans = list(stream_spans())
    with monkeypatch.context() as patch:
        patch.setattr(Form, "__post_init__", lambda self: pytest.fail("a checked Form"))
        generators = [g for lam in spans for _, forms in minimal_generators(lam) for g in forms]
    assert len(generators) > 100
    for g in generators:
        assert g == Form(g.nvars, g.degree, g.ring, dict(g.coeffs))
        assert form_parse(form_print(g), nvars=g.nvars, ring="R") == g
    with pytest.raises(ValueError, match="does not have degree"):
        Form(2, 2, "R", {(2, 1): QQ(1)})


# -- degrees with no minimal generator are skipped ----------------------------

def eliminated_degrees(lam, monkeypatch):
    """The degrees in which a fresh apolar pass on a copy of lam eliminates
    R_1 * I_{j-1}: the chain runs first, so every later call of the
    elimination core is the pass's, and the degree is one more than that
    of the rows whose products with the variables it eliminates."""
    lam = dataclasses.replace(lam)
    ann_slice(lam, 1)
    seen, products, core = [], apolarity._times_variables, apolarity._sparse_echelon
    built = []

    def recorded_products(nvars, degree, rows):
        out = products(nvars, degree, rows)
        built.append((degree + 1, out))
        return out

    def recorded_core(rows, back, stop=None):
        degree, out = built.pop()
        assert rows is out
        seen.append(degree)
        return core(rows, back, stop)

    with monkeypatch.context() as patch:
        patch.setattr(apolarity, "_times_variables", recorded_products)
        patch.setattr(apolarity, "_sparse_echelon", recorded_core)
        profile = apolar_profile(lam)
    assert not built
    return seen, profile


def binary_generator_counts(lam):
    """The number of minimal generators of ann(Lambda) in each degree
    1..d+1, dim I_j - rank(R_1 * I_{j-1}), ranked in Fractions on the
    catalecticant route's slices."""
    slices = [old_ann_slice(lam, j) for j in range(lam.degree + 2)]
    return [s.dim - rank(old_times_variables(prev)) if prev.dim else s.dim
            for prev, s in zip(slices, slices[1:])]


def stream_spans():
    """Binary spans built as the stratum benchmark builds its stream: the
    level Hilbert functions at positions len/4 and 3 len/4 of each (t, d)
    cell, t = 2..4, t <= d <= 12, the Burch point of each moved by an
    invertible change of coordinates with entries in {-4, -3, 3, 4}, here
    drawn in cell order from seed 1."""
    rng = random.Random(1)
    for t in (2, 3, 4):
        for d in range(t, 13):
            hs = enumerate_level_hf(t, d)
            for h in (hs[len(hs) // 4], hs[3 * len(hs) // 4]):
                while True:
                    move = [[rng.choice((-4, -3, 3, 4)) for _ in range(2)] for _ in range(2)]
                    if move[0][0] * move[1][1] != move[0][1] * move[1][0]:
                        break
                _, gens = burch_ideal(h)
                yield inverse_system_slice([g.substitute_linear(move) for g in gens], 2, d)


def random_sparse_spans(rng, count):
    """count binary spans of t <= 4 forms of degree d <= 12, each form with
    one to three terms and integer coefficients in -5..5."""
    while count:
        d = rng.randint(0, 12)
        t = rng.randint(1, min(4, d + 1))
        rows = []
        for _ in range(t):
            v = [0] * (d + 1)
            for k in rng.sample(range(d + 1), rng.randint(1, min(3, d + 1))):
                v[k] = rng.choice((-1, 1)) * rng.randint(1, 5)
            rows.append(v)
        lam = Subspace.from_rows(2, d, "S", rows)
        if lam.dim:
            count -= 1
            yield lam


def test_binary_generator_counts_are_the_e_sequence(rng):
    # the Hilbert-Burch count: -Delta^2 h_j minimal generators in degree j
    for lam in (*stream_spans(), *random_sparse_spans(rng, 120)):
        h = apolar_profile(lam).hilbert
        counts = binary_generator_counts(lam)
        assert counts == [2 * h[j - 1] - h[j] - h[j - 2] for j in range(1, lam.degree + 2)]
        assert counts == [len(dict(minimal_generators(lam)).get(j, ()))
                          for j in range(1, lam.degree + 2)]


def test_binary_degrees_with_no_generator_are_never_eliminated(rng, monkeypatch):
    # at n = 2 the pass eliminates exactly in the degrees with e_j > 0
    for lam in (*stream_spans(), *random_sparse_spans(rng, 60),
                *(random_subspace(rng, 2, d, t) for d in range(9) for t in (1, 2, 3))):
        if not lam.dim:
            continue
        seen, profile = eliminated_degrees(lam, monkeypatch)
        h = profile.hilbert
        assert seen == [j for j in range(1, lam.degree + 2) if 2 * h[j - 1] - h[j] - h[j - 2]]
        assert profile.kv_lines() == old_profile_lines(lam)


# -- inverse systems from divided-power rows -------------------------------

def random_generators(rng, nvars, d):
    """One to four operators of degrees 0..d+2 with Fraction coefficients,
    zero ones and repeats mixed in."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        q = rng.choice((0, *range(1, d + 1), d, d + 1, d + 2))
        g = Form.make(nvars, q, "R", {m: QQ(rng.randint(-6, 6), rng.randint(1, 4))
                                      for m in monomials(nvars, q) if rng.random() < 0.5})
        gens += [g] * rng.randint(1, 2)
    return gens


@pytest.mark.parametrize("nvars, d_max", [(1, 6), (2, 9), (3, 5)])
def test_inverse_systems_match_the_action_table_route(nvars, d_max):
    rng = random.Random(nvars)
    constant = Form.make(nvars, 0, "R", {(0,) * nvars: QQ(3, 2)})
    for d in range(d_max + 1):
        fixed = ([], [Form.zero(nvars, 1, "R")], [constant],
                 [Form.make(nvars, d + 1, "R", {(d + 1,) + (0,) * (nvars - 1): 1})],
                 [Form.make(nvars, d + 3, "R", {(0,) * (nvars - 1) + (d + 3,): -2})])
        for gens in (*fixed, *(random_generators(rng, nvars, d) for _ in range(12))):
            assert inverse_system_slice(gens, nvars, d) == old_inverse_system_slice(gens, nvars, d)
    # every kind in one list: the constant kills everything
    gens = [constant, Form.zero(nvars, 2, "R"), *random_generators(rng, nvars, 3)]
    assert inverse_system_slice(gens, nvars, 3).dim == 0


# -- the certificate of secant_decompose --------------------------------------

def mutated_pass(lam, degree, replace):
    """A fresh copy of lam whose pass memo holds replace(forms) in place of
    the generators of the given degree; replace keeps their number."""
    lam = dataclasses.replace(lam)
    hf, gens = apolarity._apolar_pass(lam)
    gens = tuple((j, replace(forms) if j == degree else forms) for j, forms in gens)
    lam.__dict__["_apolar_pass"] = hf, gens
    return lam


def condition_matrix(lam):
    """The condition rows of the generators held on lam's pass memo, as
    dense integer rows of R_d."""
    gens = [g for _, forms in apolarity._apolar_pass(lam)[1] for g in forms]
    return [[row.get(c, 0) for c in range(lam.ambient_dim)]
            for row in apolarity._condition_rows(gens, 2, lam.degree)]


def test_the_certificate_catches_a_wrong_generator_and_a_repeated_one():
    # h = 1,2,3,4,4,4,2 has e_4 = 1 and e_6 = 2: two generators of degree
    # 6 = d, whose planes are points of P(S_6)
    h = HilbertFunction.parse("1,2,3,4,4,4,2,0")
    _, gens = burch_ideal(h)
    lam = inverse_system_slice([g.substitute_linear(MOVE) for g in gens], 2, h.d)
    assert [(j, len(forms)) for j, forms in minimal_generators(lam)] == [(4, 1), (6, 2)]
    d, t = h.d, h.t
    secant_decompose(lam)
    # x1^6 kills no nonzero form of the moved Lambda: the pairing half fails,
    # while the rank stays d + 1 - t, so the rank half alone would pass
    x16 = Form.make(2, 6, "R", {(6, 0): 1})
    wrong = mutated_pass(lam, 6, lambda forms: (x16, *forms[1:]))
    rows = condition_matrix(wrong)
    assert rank(rows) == d + 1 - t
    with pytest.raises(LevelAlgError, match="plane intersection is not Lambda"):
        secant_decompose(wrong)
    # a copy of the other degree-6 generator: every row still kills Lambda,
    # but the rank drops, so only the rank half fails
    repeated = mutated_pass(lam, 6, lambda forms: (forms[1], forms[1]))
    rows = condition_matrix(repeated)
    assert all(sum(a * b for a, b in zip(row, apolarity._dense(w, lam.ambient_dim))) == 0
               for row in rows for w in apolarity._divided_power_rows(lam))
    assert rank(rows) < d + 1 - t
    with pytest.raises(LevelAlgError, match="plane intersection is not Lambda"):
        secant_decompose(repeated)


def test_secant_decompose_solves_no_inverse_system(monkeypatch):
    def refused(*args):
        raise AssertionError("inverse_system_slice called")

    points = [inverse_system_slice([g.substitute_linear(MOVE) for g in burch_ideal(h)[1]], 2, h.d)
              for h in all_level_hfs(4, 9) if h.t >= 2]
    planes = [secant_decompose(dataclasses.replace(lam)) for lam in points]
    monkeypatch.setattr(apolarity, "inverse_system_slice", refused)
    monkeypatch.setattr(secant, "inverse_system_slice", refused)
    assert [secant_decompose(dataclasses.replace(lam)) for lam in points] == planes


# -- the binary pass stops at the Hilbert-Burch count -------------------------

def record_residuals(monkeypatch) -> list:
    """The list that (degree, whether the residual is nonzero) is appended
    to for each row the apolar pass reduces.  The pass builds the products
    R_1 * I_{j-1} (_times_variables of degree j - 1) before it reduces the
    rows of I_j, so a row's degree is one more than that of the last
    products built; the sparse rows themselves do not carry their width."""
    calls, degree = [], []
    residual, products = apolarity._residual, apolarity._times_variables

    def recorded_products(nvars, below, rows):
        degree.append(below + 1)
        return products(nvars, below, rows)

    def counted(b, *rest):
        r = residual(b, *rest)
        calls.append((degree[-1], bool(r)))
        return r

    monkeypatch.setattr(apolarity, "_times_variables", recorded_products)
    monkeypatch.setattr(apolarity, "_residual", counted)
    return calls


def test_the_binary_pass_reduces_no_row_after_the_last_generator(monkeypatch):
    # on the n = 2 grid, unmoved and moved: the generators are the old ones,
    # in each degree the last row reduced gives the e_j-th generator, and
    # the elimination of R_1 * I_{j-1} stops at its Hilbert-Burch rank
    # dim I_j - e_j: the core takes no row of it after the first prefix of
    # that rank
    calls = record_residuals(monkeypatch)
    eliminations, core = [], apolarity._sparse_echelon

    def recorded_core(rows, back, stop=None, start=None):
        rows, taken = list(rows), []

        def feed():
            for row in rows:
                taken.append(row)
                yield row

        pivots = core(feed(), back, stop, start)
        eliminations.append((rows, len(taken), stop))
        return pivots

    skipped = unread = 0
    for h in all_level_hfs(4, 10):
        _, gens = burch_ideal(h)
        for gs in (gens, [g.substitute_linear(MOVE) for g in gens]):
            lam = inverse_system_slice(gs, 2, h.d)
            apolarity._slices(lam)
            calls.clear()
            eliminations.clear()
            with monkeypatch.context() as patch:
                patch.setattr(apolarity, "_sparse_echelon", recorded_core)
                got = minimal_generators(lam)
            assert got == old_minimal_generators(lam)
            counts = e_sequence(h)
            for j, e in enumerate(counts, start=1):
                seen = [found for degree, found in calls if degree == j]
                assert sum(seen) == e and (not seen or seen[-1]), (h, j)
                slice_dim = ann_slice(lam, j).dim
                skipped += e and slice_dim - len(seen)
            assert len(eliminations) == sum(map(bool, counts))
            for rows, taken, stop in eliminations:
                r = sparse_rank(rows)
                assert stop == r and sparse_rank(rows[:taken]) == r, h
                assert not taken or sparse_rank(rows[:taken - 1]) < r, h
                unread += len(rows) - taken
    assert skipped > 0 and unread > 0


def test_the_binary_pass_builds_no_row_it_does_not_take(monkeypatch):
    # R_1 * I_{j-1} reaches the core as a generator, which builds each row
    # only when the core takes it: the rows after the Hilbert-Burch rank,
    # still in the generator when the core returns, are never built
    unbuilt, core = [], apolarity._sparse_echelon

    def recorded_core(rows, back, stop=None, start=None):
        assert iter(rows) is rows
        pivots = core(rows, back, stop, start)
        unbuilt.append(sum(1 for _ in rows))
        return pivots

    for lam in stream_spans():
        apolarity._slices(lam)
        with monkeypatch.context() as patch:
            patch.setattr(apolarity, "_sparse_echelon", recorded_core)
            assert minimal_generators(lam) == old_minimal_generators(lam)
    assert sum(unbuilt) > 0


@pytest.mark.parametrize("nvars, d_max", [(1, 6), (3, 5), (4, 4)])
def test_the_pass_reduces_no_row_after_the_last_generator_at_every_n(monkeypatch, nvars, d_max):
    # on seeded random spans: the generators are the old ones, and in each
    # degree the pass reduces rows only until it holds dim I_j -
    # rank(R_1 * I_{j-1}) generators, the last row reduced giving the last
    calls = record_residuals(monkeypatch)
    rng, skipped = random.Random(nvars), 0
    for d in range(d_max + 1):
        # at n = 1 only I_{d+1} is nonzero
        for t in range(1, min(3, space_dim(nvars, d)) + 1):
            lam = random_integer_span(rng, nvars, d, t)
            if not lam.dim:
                continue
            calls.clear()
            got = minimal_generators(lam)
            assert got == old_minimal_generators(lam)
            counts = {j: len(forms) for j, forms in got}
            for j in range(1, d + 2):
                seen = [found for degree, found in calls if degree == j]
                assert sum(seen) == counts.get(j, 0) and (not seen or seen[-1]), (lam, j)
                skipped += ann_slice(lam, j).dim - len(seen)
    # at n = 1 no slice has two rows
    assert skipped > 0 or nvars == 1
