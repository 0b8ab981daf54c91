from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import plethystic_schur_coefficients

from levelalg import schubert
from levelalg.errors import (AmbientMismatchError, DegreeError, FormSyntaxError,
                             InvalidPartitionError)
from levelalg.partitions import conjugate, partitions, partitions_in_box, schur_dim
from levelalg.resolution import e1_vanishing_table, expected_codim
from levelalg.schubert import (
    SchubertClass,
    _schur_of_copies,
    _skew_dim,
    _skew_fits,
    _times_part,
    class_of,
    class_one,
    format_class,
    lr_coefficient,
    lr_multiply,
    parse_class,
    porteous_class,
    schubert_class,
)


def test_pieri_square():
    a = class_of(2, 6, (1,))
    assert format_class(lr_multiply(a, a)) == "{1,1} + {2}"


def test_lr_coefficient_basic_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_coefficient((2,), (1,), (2,)) == 0


def test_box_truncation():
    # {4,2} * {1,1} = {5,3} which leaves the 2 x 4 box
    a = class_of(2, 6, (4, 2))
    b = class_of(2, 6, (1, 1))
    assert lr_multiply(a, b).is_zero


def test_porteous_le22():
    cls = porteous_class(2, 5, 2, 2)
    assert format_class(cls) == "10{3,3} + 6{4,2}"


def test_porteous_le42_equals_le22():
    assert porteous_class(2, 5, 4, 2) == porteous_class(2, 5, 2, 2)


def test_porteous_le33():
    # independently pinned: the sigma_3 coefficient is forced to 1 by the
    # uniqueness of the length-3 power decomposition of a general binary
    # quintic, and the sigma_21 coefficient is 8
    cls = porteous_class(2, 5, 3, 3)
    assert cls.coeffs.get((2, 1), 0) == 8
    assert cls.coeffs.get((3,), 0) == 1
    assert format_class(cls) == "8{2,1} + {3}"


def test_intersection_numbers_of_secant_lines():
    le = porteous_class(2, 5, 2, 2)
    ten = lr_multiply(le, class_of(2, 6, (1, 1)))
    assert format_class(ten) == "10{4,4}"
    six = lr_multiply(le, class_of(2, 6, (2,)))
    assert format_class(six) == "6{4,4}"


def test_hypersurface_class_via_porteous():
    # (2,7): Sigma_5 = Le(5,5) is a hypersurface of class 3{1}
    cls = porteous_class(2, 7, 5, 5)
    assert format_class(cls) == "3{1}"


def test_lr_ring_axioms(rng):
    t, n = 2, 7
    pool = partitions_in_box(t, n - t)

    def random_class():
        return schubert_class(
            t, n,
            {rng.choice(pool): rng.randint(-3, 3) for _ in range(3)},
        )

    for _ in range(10):
        a, b, c = random_class(), random_class(), random_class()
        assert lr_multiply(a, b) == lr_multiply(b, a)
        assert lr_multiply(lr_multiply(a, b), c) == lr_multiply(a, lr_multiply(b, c))
        assert lr_multiply(class_one(t, n), a) == a


def test_poincare_pairing():
    t, n = 3, 8
    box = (n - t,) * t
    for lam in partitions_in_box(t, n - t):
        # the complement of lam in the box, turned by 180 degrees
        padded = list(lam) + [0] * (t - len(lam))
        comp = tuple(p for p in (n - t - padded[t - 1 - k] for k in range(t)) if p)
        prod = lr_multiply(class_of(t, n, lam), class_of(t, n, comp))
        assert prod.coeffs.get(box, 0) == 1
        # any heavier partner would leave the box entirely
        assert sum(lam) + sum(comp) == t * (n - t)


def test_porteous_terms_have_expected_codimension():
    for (t, d, i, r) in [(2, 5, 2, 2), (2, 5, 3, 3), (2, 7, 5, 4), (3, 7, 5, 4)]:
        cls = porteous_class(t, d, i, r)
        codim = expected_codim(t, d, i, r)
        assert not cls.is_zero
        for lam in cls.coeffs:
            assert sum(lam) == codim


def test_class_parse_format_roundtrip():
    text = "10{3,3} + 6{4,2}"
    assert format_class(parse_class(text, 2, 6)) == text
    assert format_class(parse_class("{2,0}", 2, 6)) == "{2}"
    assert parse_class("0", 2, 6).is_zero
    assert format_class(parse_class("3 - {1}", 2, 6)) == "3 - {1}"
    assert parse_class("3 {1}", 2, 6) == class_of(2, 6, (1,), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_class_parse_inverts_format(t, width, data):
    # random classes in the t x width box, the unit and negative
    # coefficients among them
    box = partitions_in_box(t, width)
    coeffs = data.draw(st.dictionaries(st.sampled_from(box), st.integers(-12, 12), max_size=6))
    c = schubert_class(t, t + width, coeffs)
    assert parse_class(format_class(c), t, t + width) == c


@pytest.mark.parametrize("text, message", [
    ("{1} +", "expected a term (at position 5)"),
    ("+", "expected a term (at position 1)"),
    ("", "expected a term (at position 0)"),
    ("{1} + + {2}", "expected a term (at position 6)"),
    ("2 - -{1} -", "expected a term (at position 4)"),
    ("3{1}{2}", "unexpected character '{' (at position 4)"),
    ("{", "unclosed '{' (at position 0)"),
])
def test_class_parse_rejects_a_sign_without_a_term(text, message):
    with pytest.raises(FormSyntaxError) as err:
        parse_class(text, 2, 6)
    assert str(err.value) == message


def test_class_box_validation():
    with pytest.raises(InvalidPartitionError):
        schubert_class(2, 6, {(5,): 1})
    with pytest.raises(InvalidPartitionError):
        schubert_class(2, 6, {(1, 1, 1): 1})


def test_empty_grassmannians_are_rejected():
    for t, n in ((3, 2), (2, 1), (-1, 5), (0, -1)):
        with pytest.raises(DegreeError, match=rf"^G\({t}, {n}\) is empty"):
            class_one(t, n)
    # G(0, n) and G(n, n) are points, with the class 1 alone
    for t in (0, 4):
        assert lr_multiply(class_one(t, 4), class_one(t, 4)) == class_one(t, 4)
        with pytest.raises(InvalidPartitionError):
            class_of(t, 4, (1,))


def test_class_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        lr_multiply(class_one(2, 6), class_one(2, 7))


def test_giambelli_determinant_identity():
    # sigma_lam = det [ sigma_{(lam_i + j - i)} ], an independent check of
    # the general LR expansion against Pieri-only products
    from levelalg.linalg import QQ

    def one_row(t, n, k):
        if k < 0 or k > n - t:
            return schubert_class(t, n, {})
        if k == 0:
            return class_one(t, n)
        return class_of(t, n, (k,))

    def det_class(entries):
        size = len(entries)
        if size == 1:
            return entries[0][0]
        total = schubert_class(entries[0][0].t, entries[0][0].n, {})
        for j in range(size):
            ent = entries[0][j]
            if ent.is_zero:
                continue
            minor = [row[:j] + row[j + 1:] for row in entries[1:]]
            term = lr_multiply(ent, det_class(minor))
            total = total + (term.scale(-1) if j % 2 else term)
        return total

    for t, n in [(2, 6), (3, 7)]:
        for lam in partitions_in_box(t, n - t):
            if not lam:
                continue
            size = len(lam)
            entries = [
                [one_row(t, n, lam[i] + j - i) for j in range(size)]
                for i in range(size)
            ]
            assert det_class(entries) == class_of(t, n, lam), lam


def test_porteous_gorenstein_hypersurface_coefficient():
    # t = 1, d even: the rank locus in degree s = d/2... is a hypersurface
    # of class (d - s + 1) {1}; tie Porteous to the divisibility criterion
    from levelalg.secant import hypersurface_case

    for d in (4, 6, 8):
        s, coeff = hypersurface_case(1, d)
        cls = porteous_class(1, d, s, s)
        assert format_class(cls) == (f"{coeff}{{1}}" if coeff != 1 else "{1}")


def _lr_multiply_all_partitions(a, b):
    """The product through every partition of each weight, dropping those
    outside the box: the route lr_multiply took before its box-bounded
    iteration."""
    t, n = a.t, a.n
    out = {}
    for lam, ca in a.coeffs.items():
        for mu, cb in b.coeffs.items():
            w = sum(lam) + sum(mu)
            if w > t * (n - t):
                continue
            for nu in partitions(w):
                if len(nu) > t or (nu and nu[0] > n - t):
                    continue
                c = lr_coefficient(lam, mu, nu)
                if c:
                    out[nu] = out.get(nu, 0) + ca * cb * c
    return schubert_class(t, n, out)


@st.composite
def box_class_pairs(draw):
    t = draw(st.integers(1, 4))
    n = t + draw(st.integers(1, 5))
    pool = partitions_in_box(t, n - t)
    terms = st.dictionaries(st.sampled_from(pool), st.integers(-3, 3), max_size=4)
    return schubert_class(t, n, draw(terms)), schubert_class(t, n, draw(terms))


@settings(max_examples=150, deadline=None)
@given(box_class_pairs())
def test_box_bounded_lr_multiply_matches_all_partitions(pair):
    a, b = pair
    fast, ref = lr_multiply(a, b), _lr_multiply_all_partitions(a, b)
    assert fast == ref
    assert list(fast.coeffs) == list(ref.coeffs)


def chern_taut(t, n, i):
    """c_i of the tautological subbundle: (-1)^i {1,...,1} (i ones), zero
    when that column leaves the box."""
    if i == 0:
        return class_one(t, n)
    if i > t or n <= t:
        return schubert_class(t, n, {})
    return schubert_class(t, n, {(1,) * i: (-1) ** i})


def chern_taut_total(t, n):
    return sum((chern_taut(t, n, i) for i in range(1, t + 1)), class_one(t, n))


def class_power(a, k):
    out = class_one(a.t, a.n)
    for _ in range(k):
        out = lr_multiply(out, a)
    return out


def _toeplitz_det(total, size, offset):
    """det[c_{offset+col-row}]_{size x size}, c_k the weight-k part of
    total, Laplace-expanded along the first remaining row and memoised on
    the surviving column set: the determinant porteous_class expanded
    before the Schur-class kernel, over Chern-series powers."""
    t, n = total.t, total.n
    parts = [{} for _ in range(max((sum(lam) for lam in total.coeffs), default=0) + 1)]
    for lam, c in total.coeffs.items():
        parts[sum(lam)][lam] = c
    parts = [SchubertClass(t, n, p) for p in parts]

    @lru_cache(maxsize=None)
    def minor(cols):
        if not cols:
            return class_one(t, n)
        row = size - len(cols)
        out = SchubertClass(t, n, {})
        if offset + cols[0] < row:
            return out
        for pos, col in enumerate(cols):
            k = offset + col - row
            if k >= len(parts) or parts[k].is_zero:
                continue
            term = lr_multiply(minor(cols[:pos] + cols[pos + 1:]), parts[k])
            out = out + (term.scale(-1) if pos % 2 else term)
        return out

    return minor(tuple(range(size)))


def _class_inverse(a):
    """Inverse of a class with unit constant term, as a finite geometric
    series (positive-degree parts are nilpotent in the box)."""
    assert a.coeffs.get((), 0) == 1
    u = a - class_one(a.t, a.n)
    out = class_one(a.t, a.n)
    term = class_one(a.t, a.n)
    while True:
        term = lr_multiply(term, u).scale(-1)
        if term.is_zero:
            return out
        out = out + term


def _porteous_laplace(t, d, i, r):
    """Porteous' class as the (e-r) x (e-r) determinant with entries
    c_{f-r+col-row}(F - E), c(F - E) = c(S)^{-(d-i+1)} inverted as a series
    and the determinant Laplace-expanded over every column subset: the
    route porteous_class took before it expanded the smaller Jacobi-Trudi
    determinant."""
    n = d + 1
    e, f = t * (d - i + 1), i + 1
    cinv = _class_inverse(class_power(chern_taut_total(t, n), d - i + 1))

    def entry(row, col):
        k = (f - r) + col - row
        return schubert_class(t, n, {lam: c for lam, c in cinv.coeffs.items() if sum(lam) == k})

    size = e - r

    @lru_cache(maxsize=None)
    def minor(cols):
        row = size - len(cols)
        if not cols:
            return class_one(t, n)
        total = schubert_class(t, n, {})
        for pos, c in enumerate(cols):
            ent = entry(row, c)
            if ent.is_zero:
                continue
            term = lr_multiply(ent, minor(tuple(x for x in cols if x != c)))
            total = total + (term.scale(-1) if pos % 2 else term)
        return total

    return minor(tuple(range(size)))


def _porteous_grid(tmax, dmax, keep):
    """(t, d, i, r) on G(t, S_d) with 1 <= t <= d (not a point) and
    0 <= r <= min(e, f), filtered by keep(t, d, e, f, r)."""
    return [(t, d, i, r)
            for t in range(1, tmax + 1) for d in range(t, dmax + 1) for i in range(d + 1)
            for r in range(min(t * (d - i + 1), i + 1) + 1)
            if keep(t, d, t * (d - i + 1), i + 1, r)]


def test_porteous_matches_laplace_reference():
    grid = _porteous_grid(3, 8, lambda t, d, e, f, r: e - r <= 8)
    assert len(grid) == 355
    for args in grid:
        assert porteous_class(*args) == _porteous_laplace(*args), args


def _dual_sides(t, d, i, r):
    """Both Jacobi-Trudi determinants of Le(i, r), each with its sign:
    det[c_{f-r+col-row}(F - E)] of size e - r with c(F - E) = c(Q)^{d-i+1},
    and (-1)^{(e-r)(f-r)} det[c_{e-r+col-row}(E)] of size f - r with
    c(E) = c(S)^{d-i+1}."""
    n = d + 1
    e, f, m = t * (d - i + 1), i + 1, d - i + 1
    c_q = class_power(SchubertClass(t, n, {(k,) if k else (): 1 for k in range(n - t + 1)}), m)
    c_e = class_power(chern_taut_total(t, n), m)
    return (_toeplitz_det(c_q, e - r, f - r),
            _toeplitz_det(c_e, f - r, e - r).scale((-1) ** ((e - r) * (f - r))))


def test_porteous_dual_determinants_agree():
    # wider than the benchmark pool (t in {2, 3}, d <= 9, dim G <= 21);
    # classes of degree above dim G vanish on both sides and are left out
    grid = _porteous_grid(4, 10, lambda t, d, e, f, r:
                          max(e, f) - r <= 16 and (e - r) * (f - r) <= t * (d + 1 - t) <= 24)
    assert len(grid) == 431
    for args in grid:
        e_side, f_side = _dual_sides(*args)
        assert e_side == f_side == porteous_class(*args), args


def _porteous_by_plethysm(t, d, i, r):
    """Porteous' class with no LR coefficient: det[c_{f-r+col-row}(F - E)]
    with c(F - E) = c(Q)^m, m = d - i + 1, is s_lam[mY] for the rectangle
    lam = (f - r)^(e - r), where sigma_k = h_k(Y) in t variables Y; so the
    class is sum c_rho sigma_rho over the rho with rho_1 <= d + 1 - t."""
    m = d - i + 1
    e, f = t * m, i + 1
    lam = (f - r,) * (e - r) if f > r else ()
    return schubert_class(t, d + 1, {rho: c for rho, c in
                                     plethystic_schur_coefficients(lam, t, m).items()
                                     if not rho or rho[0] <= d + 1 - t})


def test_porteous_matches_the_plethysm_route():
    # the benchmark's Porteous pool, then the edges of a wider grid
    pool = [(t, d, i, r) for t in (2, 3) for d in range(3, 10) for i in range(1, d)
            for r in range(1, min(t * (d - i + 1), i + 1))
            if t * (d - i + 1) - r <= 12
            and (t * (d - i + 1) - r) * (i + 1 - r) <= t * (d + 1 - t)]
    assert len(pool) == 83
    grid = _porteous_grid(4, 8, lambda t, d, e, f, r: (e - r) * (f - r) <= t * (d + 1 - t))
    for args in pool + grid:
        assert porteous_class(*args) == _porteous_by_plethysm(*args), args


def test_porteous_le33_on_g3_s9_from_both_sides():
    # the 18 x 18 and 1 x 1 determinants give the same class
    pinned = "84{6,6,6} + 112{7,6,5} + 35{7,7,4}"
    e_side, f_side = _dual_sides(3, 9, 3, 3)
    assert format_class(e_side) == format_class(f_side) == pinned
    assert format_class(porteous_class(3, 9, 3, 3)) == pinned


def test_porteous_on_a_point():
    # G(d + 1, S_d) is a point: Le(i, r) is everything when its expected
    # codimension is 0 and empty otherwise
    for d in range(6):
        t = d + 1
        for i in range(d + 1):
            e, f = t * (d - i + 1), i + 1
            for r in range(min(e, f) + 1):
                expected = "1" if (e - r) * (f - r) == 0 else "0"
                assert format_class(porteous_class(t, d, i, r)) == expected


def test_schur_of_copies_matches_block_branching():
    # the kernel against the block-branching oracle (no LR or Kronecker
    # coefficient), on boxes that hold every rho of weight |lam| and on
    # boxes that truncate (n - t < lam_1), from both determinant sides;
    # and the Cauchy dimension identity sum_rho c_rho dim S_rho(k^t)
    # = dim S_lam(k^{t * copies}) on the untruncated boxes
    sides, truncated = set(), 0
    for t in (1, 2, 3, 4):
        for copies in (1, 2, 3):
            for w in range(9):
                for lam in partitions(w):
                    sides.add(len(lam) <= (lam[0] if lam else 0))
                    oracle = plethystic_schur_coefficients(lam, t, copies)
                    got = _schur_of_copies(lam, t, t + w, copies).coeffs
                    assert got == oracle, (lam, t, copies)
                    assert sum(c * schur_dim(rho, t) for rho, c in got.items()) == \
                        schur_dim(lam, t * copies), (lam, t, copies)
                    n = t + 2
                    if lam and lam[0] > n - t:
                        truncated += 1
                        assert _schur_of_copies(lam, t, n, copies).coeffs == \
                            {rho: c for rho, c in oracle.items()
                             if not rho or rho[0] <= n - t}, (lam, t, n, copies)
    assert sides == {True, False} and truncated > 300


def _copies_part(t, n, copies, k, dual):
    """h_k, or e_k if dual, of `copies` copies of x_1, ..., x_t on G(t, C^n):
    by Cauchy's identity sum_nu dim S_nu(k^copies) sigma_nu, or with
    dim S_nu'(k^copies), over the nu of weight k in the box (Macdonald,
    Symmetric Functions, I.4).  The kernel multiplied each Jacobi-Trudi
    minor by this class with lr_multiply before it read skew Schur
    dimensions."""
    part = {}
    for nu in partitions_in_box(t, n - t, k):
        weight = conjugate(nu) if dual else nu
        if len(weight) <= copies:
            part[nu] = schur_dim(weight, copies)
    return SchubertClass(t, n, part)


@st.composite
def box_class_and_copies(draw):
    t = draw(st.integers(1, 4))
    n = t + draw(st.integers(1, 5))
    pool = partitions_in_box(t, n - t)
    terms = st.dictionaries(st.sampled_from(pool), st.integers(-3, 3), max_size=4)
    return schubert_class(t, n, draw(terms)), draw(st.integers(1, 4)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(box_class_and_copies())
def test_skew_products_match_lr_products(case):
    # the kernel's product step against the LR product with the graded
    # part of the copies, on both sides and for every degree k the box holds
    a, copies, dual = case
    t, n = a.t, a.n
    for k in range(t * (n - t) + 1):
        got = _times_part(a.coeffs, k, copies, dual, t, n)
        ref = lr_multiply(a, _copies_part(t, n, copies, k, dual))
        assert {nu: c for nu, c in got.items() if c} == ref.coeffs, (k, copies, dual)


def _ssyt_count(nu, lam, m):
    """Semistandard fillings of nu/lam with entries 1..m, by brute force:
    rows weakly increase to the right, columns strictly downward."""
    lam += (0,) * (len(nu) - len(lam))
    cells = [(a, b) for a in range(len(nu)) for b in range(lam[a], nu[a])]
    count = 0
    for values in product(range(1, m + 1), repeat=len(cells)):
        fill = dict(zip(cells, values))
        count += all(fill.get((a, b + 1), m) >= v and fill.get((a + 1, b), m + 1) > v
                     for (a, b), v in fill.items())
    return count


def test_skew_dim_matches_fraction_determinant_and_tableaux():
    # s_{nu/lam}(1^m) on the h side and s_{nu'/lam'}(1^m) on the e side,
    # against conftest's Fraction Jacobi-Trudi determinant and, on shapes
    # of at most six cells, against counted tableaux
    counted = 0
    for w in range(9):
        for nu in partitions(w):
            for lam in partitions_in_box(len(nu), nu[0] if nu else 0):
                if any(p > q for p, q in zip(lam, nu)):
                    continue
                for m in range(1, 5):
                    h_side, e_side = _skew_dim(nu, lam, m, False), _skew_dim(nu, lam, m, True)
                    assert h_side == conftest._skew_dim(nu, lam, m), (nu, lam, m)
                    assert e_side == conftest._skew_dim(conjugate(nu), conjugate(lam), m), \
                        (nu, lam, m)
                    if w - sum(lam) <= 6 and m <= 3:
                        counted += 1
                        assert h_side == _ssyt_count(nu, lam, m), (nu, lam, m)
                        assert e_side == _ssyt_count(conjugate(nu), conjugate(lam), m), \
                            (nu, lam, m)
    assert counted > 1000


def test_the_tableau_criterion_is_the_nonzero_skew_dimension():
    # _skew_terms takes a determinant only where nu/lam has no column (no
    # row, if dual) longer than the copies; on the 4 x 4 box that is
    # exactly where the determinant is nonzero, on both sides
    seen = {True: 0, False: 0}
    box = partitions_in_box(4, 4)
    for nu in box:
        for lam in box:
            if len(lam) > len(nu) or any(p > q for p, q in zip(lam, nu)):
                continue
            for copies in range(1, 5):
                for dual in (False, True):
                    fits = _skew_fits(nu, lam, copies, dual)
                    assert fits == (_skew_dim(nu, lam, copies, dual) != 0), \
                        (nu, lam, copies, dual)
                    seen[fits] += 1
    assert seen[True] > 1000 and seen[False] > 1000


def test_skew_terms_are_the_nonzero_skew_dimensions():
    # _skew_terms against every nu of the box that contains lam, kept where
    # the determinant is nonzero, for boxes on both sides of its check
    for rows, width in ((2, 5), (3, 3), (4, 4), (5, 2)):
        for lam in partitions_in_box(rows, width):
            for k, copies, dual in product(range(1, 6), range(1, 5), (False, True)):
                expected = tuple(
                    (nu, c) for nu in partitions_in_box(rows, width, sum(lam) + k)
                    if len(nu) >= len(lam) and all(p >= q for p, q in zip(nu, lam))
                    for c in [_skew_dim(nu, lam, copies, dual)] if c)
                assert schubert._skew_terms(lam, k, copies, dual, rows, width) == expected, \
                    (lam, k, copies, dual, rows, width)


def test_porteous_and_e1_compute_no_lr_coefficient(monkeypatch):
    # the Schur-class kernel reads skew Schur dimensions; LR coefficients
    # serve only the product of two classes
    def refuse(*args):
        raise AssertionError(f"_lr_coefficient{args} called")

    monkeypatch.setattr(schubert, "_lr_coefficient", refuse)
    with pytest.raises(AssertionError, match="called"):
        lr_multiply(class_of(2, 6, (1,)), class_of(2, 6, (1,)))
    assert format_class(porteous_class(3, 9, 3, 3)) == "84{6,6,6} + 112{7,6,5} + 35{7,7,4}"
    assert format_class(porteous_class(2, 5, 2, 2)) == "10{3,3} + 6{4,2}"
    assert porteous_class(4, 10, 8, 4).is_zero  # codimension 40 > dim G(4, 11) = 28
    table = e1_vanishing_table(2, 9, 6, 4, 0, cap_weight=24)
    assert table.entries == {(-12, 16): 28875, (-11, 16): 27720, (-10, 16): 5740,
                             (-9, 16): 200, (0, 0): 1}
    table = e1_vanishing_table(3, 7, 5, 3, 0, cap_weight=27)
    assert table.entries[(-18, 15)] == 54880 and table.entries[(-11, 10)] == 51408
