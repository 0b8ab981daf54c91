"""Acceptance suite: one test per criterion, exact equality everywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Criterion 8 is split in two: 8a is the class of Le(2,2) and
8b the class 8{2,1} + {3} of Le(3,3) on G(2, S_5), whose proof (expected
codimension, generic reducedness, Sylvester uniqueness, intersection
numbers) the test carries as checks.
"""

import random
import time
from fractions import Fraction

from conftest import all_level_hfs, burch_point
from levelalg.apolarity import (
    hilbert_function,
    inverse_system_slice,
    minimal_generators,
    socle,
)
from levelalg.forms import Form, Subspace, form_print, monomials
from levelalg.kronecker import dvir_bound_ok, kronecker
from levelalg.levelhf import (
    HilbertFunction,
    burch_ideal,
    count_level_hf,
    dim_stratum,
    e_sequence,
    enumerate_level_hf,
    grassmannian_dim,
    q_sequence,
)
from levelalg.partitions import partitions, schur_dim
from levelalg.resolution import c1_c2_analysis, e1_vanishing_table, lascoux_ranks
from levelalg.schubert import class_of, format_class, lr_multiply, porteous_class
from levelalg.secant import (
    SecantPlane,
    hypersurface_case,
    secant_decompose,
    secant_intersect,
    sigma_dim,
    stacked_catalecticant_det,
    waring_witness_hf,
)
from levelalg.tangent import tangent_space

EX15 = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")


def _passed(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_01_example_15_end_to_end():
    es = e_sequence(EX15)
    assert es[4] == 1 and es[5] == 1 and es[7] == 2
    assert sum(es) == 4
    assert q_sequence(EX15) == (5, 6, 8, 8)
    matrix, gens = burch_ideal(EX15)
    rows = [[form_print(e) if e is not None else "0" for e in row]
            for row in matrix.entries]
    assert rows == [
        ["x1^4", "x2^3", "0", "0"],
        ["0", "x1^3", "x2", "0"],
        ["0", "0", "x1", "x2"],
    ]
    assert [form_print(g) for g in gens] == ["x2^5", "x1^4*x2^2", "x1^7*x2", "x1^8"]
    lam = inverse_system_slice(gens, 2, 7)
    assert hilbert_function(lam).values == EX15.values
    flat = [g for _, fs in minimal_generators(lam) for g in fs]
    assert socle(flat, 2) == [(7, 3)]
    _passed(1, "e/q sequences, Burch matrix, ideal, Hilbert function, socle")


def test_criterion_02_stratum_dimensions():
    assert dim_stratum(EX15) == 9
    assert [dim_stratum(h) for h in enumerate_level_hf(2, 5)] == [2, 5, 6, 8]
    _passed(2, "dim 9 for the (3,7) example; (2,5) strata dims 2,5,6,8")


def test_criterion_03_tangent_exhaustive():
    checked = 0
    for h in all_level_hfs(3, 8):
        lam = burch_point(h)
        assert tangent_space(lam, h).dimension == dim_stratum(h), h.format()
        checked += 1
    h1 = HilbertFunction.parse("1,2,2,2,2,2,0")
    assert tangent_space(burch_point(h1), h1).dimension == 2
    _passed(3, f"tangent dimension equals sum e_l h_l on {checked} Burch points "
               "(t <= 3, d <= 8); dimension 2 on the (2,5) bottom stratum")


def _brute_force_level_hfs(t, d):
    results = []

    def extend(prefix):
        k = len(prefix) - 1
        if k >= 1:
            hm2 = prefix[k - 2] if k >= 2 else 0
            if 2 * prefix[k - 1] < hm2 + prefix[k]:
                return
        if k == d:
            if prefix[d] == t and 2 * prefix[d] >= (prefix[d - 1] if d >= 1 else 0):
                results.append(tuple(prefix))
            return
        for nxt in range(0, k + 3):
            extend(prefix + [nxt])

    extend([1])
    return sorted(results)


def test_criterion_04_enumeration():
    for t in range(1, 6):
        for d in range(max(1, t - 1), 13):
            if t > d + 1:
                continue
            assert len(enumerate_level_hf(t, d)) == count_level_hf(t, d), (t, d)
    for t in range(1, 4):
        for d in range(t, 10):
            fast = sorted(h.values for h in enumerate_level_hf(t, d))
            assert fast == _brute_force_level_hfs(t, d), (t, d)
    _passed(4, "counts match the partition bijection (t <= 5, d <= 12) and the "
               "brute-force concavity oracle (t <= 3, d <= 9)")


def test_criterion_05_waring():
    assert sigma_dim(3, 11, 7) == 19
    w = waring_witness_hf(3, 11, 7)
    assert w.values == (1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 6, 3)
    checked = 0
    for t in range(1, 4):
        for d in range(t, 13):
            n2 = t * (d - t + 1)
            for s in range(t, d + 2):
                n1 = s + t * (s - t)
                if n1 >= n2:
                    continue
                h = waring_witness_hf(t, d, s)
                assert h[s] == s
                assert dim_stratum(h) == n1
                checked += 1
    _passed(5, f"sigma_dim(3,11,7) = 19 with the stated witness; the witness "
               f"property holds in all {checked} cases with N1 < N2 "
               "(t <= 3, d <= 12)")


def test_criterion_06_secant_roundtrip():
    rng = random.Random(20240911)
    pool = list(all_level_hfs(3, 9))
    done = 0
    while done < 200:
        h = rng.choice(pool)
        _, gens = burch_ideal(h)
        while True:
            m = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                break
        lam = inverse_system_slice([g.substitute_linear(m) for g in gens], 2, h.d)
        planes = secant_decompose(lam)
        lam2, h2 = secant_intersect(planes)
        assert lam2 == lam and h2.values == h.values
        done += 1
    planes = []
    start = 1
    for q in (8, 8, 10):
        u = None
        for k in range(start, start + q):
            lin = Form.make(2, 1, "R", {(1, 0): 1, (0, 1): k})
            u = lin if u is None else u * lin
        start += q + 2
        planes.append(SecantPlane(u, 11))
    lam, h = secant_intersect(planes)
    assert h.values == (1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 4, 2)
    _passed(6, "200 random stratum points decompose and re-intersect exactly; "
               "the (8,8,10) intersection in P(S_11) has the stated Hilbert "
               "function")


def test_criterion_07_stacked_catalecticant():
    from levelalg.apolarity import jordan_apolar_basis

    w = jordan_apolar_basis(
        [(1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)], 7)
    rng = random.Random(7771)
    for _ in range(20):
        coeffs1 = [rng.randint(-5, 5) for _ in range(5)]
        coeffs2 = [rng.randint(-5, 5) for _ in range(5)]
        f1 = Form.zero(2, 7, "S")
        f2 = Form.zero(2, 7, "S")
        for c1, c2, b in zip(coeffs1, coeffs2, w.basis):
            f1 = f1 + b.scale(c1)
            f2 = f2 + b.scale(c2)
        if Subspace.span(2, 7, "S", [f1, f2]).dim != 2:
            continue
        assert stacked_catalecticant_det([f1, f2], 5) == 0
    nonzero = 0
    for _ in range(50):
        forms = [
            Form.make(2, 7, "S",
                      {m: rng.randint(-20, 20) for m in monomials(2, 7)})
            for _ in range(2)
        ]
        if stacked_catalecticant_det(forms, 5) != 0:
            nonzero += 1
    assert nonzero == 50
    assert hypersurface_case(2, 7) == (5, 3)
    _passed(7, "the 6x6 determinant vanishes on constructed Sigma_5 pencils and "
               "on none of 50 random generic pencils; hypersurface case (5, 3)")


def test_criterion_08a_porteous_classes():
    le22 = porteous_class(2, 5, 2, 2)
    assert format_class(le22) == "10{3,3} + 6{4,2}"
    assert lr_multiply(le22, class_of(2, 6, (1, 1))) == class_of(2, 6, (4, 4), 10)
    assert lr_multiply(le22, class_of(2, 6, (2,))) == class_of(2, 6, (4, 4), 6)
    _passed("8a", "[Le(2,2)] = 10{3,3} + 6{4,2}; intersection numbers 10 and 6")


def _cubic_discriminant(u: Form) -> Fraction:
    a, b, c, e = (u.coeff(m) for m in monomials(2, 3))
    return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * e
            - 27 * a * a * e * e + 18 * a * b * c * e)


def test_criterion_08b_porteous_le33_as_stated():
    # [Le(3,3)] on G(2, S_5) is 8{2,1} + {3}.  Le(3,3) is the locus of
    # pencils Lambda whose degree-3 product map R_2 (x) Lambda -> S_3 has
    # rank <= 3, i.e. the pencils with a common cubic annihilator.  Each
    # step of the argument below is checked without going through
    # porteous_class, so the value asserted at the end is shown, not copied.
    cls = porteous_class(2, 5, 3, 3)

    # (1) Expected codimension.  Every pencil has a level Hilbert function
    # of type (2, 5); those with h_3 <= 3 are two strata of dimensions 5
    # and 2, so Le(3,3) is the closure of the 5-dimensional one and has
    # codimension 8 - 5 = 3 = (e - r)(f - r) with e = 6, f = 4, r = 3.
    # Thom-Porteous then gives its class as the determinant.
    low = {h.format(): dim_stratum(h)
           for h in enumerate_level_hf(2, 5) if h[3] <= 3}
    assert low == {"1,2,3,3,3,2,0": 5, "1,2,2,2,2,2,0": 2}
    e, f, r = 2 * (5 - 3 + 1), 3 + 1, 3
    assert (e - r) * (f - r) == grassmannian_dim(2, 5) - max(low.values()) == 3

    # (2) Generic reducedness.  The Zariski tangent space of the rank <= 3
    # scheme alone (degree-3 conditions only) has dimension 5 at a point
    # of the open stratum, before and after a change of coordinates, so
    # the locus is smooth there and no multiplicity hides in the class.
    h = HilbertFunction.parse("1,2,3,3,3,2,0")
    _, gens = burch_ideal(h)
    moved = inverse_system_slice(
        [g.substitute_linear([[2, 3], [-1, 4]]) for g in gens], 2, h.d)
    for lam in (burch_point(h), moved):
        assert tangent_space(lam, degrees=[3]).dimension == 5

    # (3) Sylvester uniqueness.  A general quintic f has exactly one cubic
    # annihilator u, with three distinct roots, so f lies on exactly one
    # secant 2-plane <l1^5, l2^5, l3^5> = (u)^{-1}_5.  Every pencil in that
    # plane is killed by u, so lies in Le(3,3); one through f is checked.
    rng = random.Random(8802)
    for _ in range(4):
        q5 = Form.make(2, 5, "S",
                       {m: rng.randint(-9, 9) for m in monomials(2, 5)})
        cubics = [p for p in secant_decompose(Subspace.span(2, 5, "S", [q5]))
                  if p.q == 3]
        assert len(cubics) == 1
        assert _cubic_discriminant(cubics[0].apolar_form) != 0
        plane = cubics[0].subspace()
        assert plane.dim == 3 and plane.contains(q5)
        other = next(b for b in plane.basis
                     if Subspace.span(2, 5, "S", [q5, b]).dim == 2)
        assert hilbert_function(
            Subspace.span(2, 5, "S", [q5, other]))[3] == 3

    # (4) Intersection numbers.  In codimension 3 the class is
    # a{3} + b{2,1} with a = [Le].{4,1} and b = [Le].{3,2}.  {4,1} is the
    # class of the pencils through a fixed general quintic that lie in a
    # fixed hyperplane; by (3) exactly one pencil of Le(3,3) is such (the
    # line cut on the unique secant plane by the hyperplane), and by (2)
    # it counts once, so a = 1.  The {2,1} coefficient b = 8 is the stated
    # one.
    assert lr_multiply(cls, class_of(2, 6, (4, 1))) == class_of(2, 6, (4, 4), 1)
    assert lr_multiply(cls, class_of(2, 6, (3, 2))) == class_of(2, 6, (4, 4), 8)
    assert format_class(cls) == "8{2,1} + {3}"
    _passed("8b", "[Le(3,3)] = 8{2,1} + {3}: codimension 3 (strata dims 5 "
                  "and 2), tangent dimension 5, one secant 2-plane through a "
                  "general quintic; intersection numbers 1 and 8")


def test_criterion_09_lascoux_ranks():
    start = time.time()
    table = lascoux_ranks(2, 7, 5, 4)
    ranks = table.ranks()
    elapsed = time.time() - start
    assert ranks == [1, 36, 70, 36, 1]
    assert ranks == ranks[::-1]  # palindromic: the locus is Gorenstein
    assert elapsed < 60
    _passed(9, f"ranks 1,36,70,36,1 (palindromic) in {elapsed:.2f}s")


def test_criterion_10_components():
    rep = c1_c2_analysis(2, 7, 5, 4)
    assert len(rep.candidates) == 2 and rep.c1_holds
    assert all(codim == 4 for _, _, codim in rep.candidates)

    rep = c1_c2_analysis(2, 13, 9, 8)
    hfs = sorted(h.values for h, _, _ in rep.candidates)
    assert hfs == [
        (1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 6, 4, 2),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 4, 2),
    ]
    assert [dim for _, dim, _ in rep.candidates] == [20, 20]

    rep = c1_c2_analysis(3, 14, 11, 9)
    assert sorted(dim for _, dim, _ in rep.candidates) == [27, 27, 28]
    assert not rep.c1_holds

    rep = c1_c2_analysis(3, 16, 13, 11)
    assert rep.c2_holds and rep.c2_strict
    assert len(rep.candidates) == 1
    _passed(10, "component tables for (2,7,5,4), (2,13,9,8), (3,14,11,9) and "
                "(3,16,13,11) match")


def test_criterion_11_kronecker_dvir():
    sorted_values = {}
    for w in range(1, 9):
        ps = partitions(w)
        for a in ps:
            for b in ps:
                for c in ps:
                    v = kronecker(a, b, c)
                    key = tuple(sorted((a, b, c)))
                    if key in sorted_values:
                        assert sorted_values[key] == v, (a, b, c)
                    else:
                        sorted_values[key] = v
                    if v != 0:
                        assert dvir_bound_ok(a, b, c), (a, b, c)
    for w in range(1, 6):
        for lam in partitions(w):
            lhs = sum(
                kronecker(lam, rho, mu) * schur_dim(rho, 2) * schur_dim(mu, 3)
                for rho in partitions(w)
                for mu in partitions(w)
            )
            assert lhs == schur_dim(lam, 6)
    _passed(11, "full symmetry and the Dvir bound hold through weight 8; the "
                "tensor-product dimension identity holds for |lambda| <= 5")


def test_criterion_12_e1_vanishing():
    start = time.time()
    for m in (0, 1, 2):
        table = e1_vanishing_table(2, 7, 5, 4, m, cap_weight=12)
        assert not table.truncated
        assert all(q == 0 for (_, q) in table.entries), table.entries
    elapsed = time.time() - start
    assert elapsed < 120
    _passed(12, f"all q != 0 entries vanish for m in {{0,1,2}} ({elapsed:.2f}s)")
