import random
from functools import cache
from math import gcd

import pytest
from conftest import (_bareiss, bareiss_echelon, bareiss_kernel, power_sum_span,
                      row_space_intersection)
from hypothesis import given, settings, strategies as st

from levelalg import linalg, tangent
from levelalg.linalg import (
    QQ,
    _integer_det,
    _modular_pivot_rows,
    _sparse_echelon,
    _sparse_rows,
    certified_rank,
    det,
    echelon_kernel,
    integer_echelon,
    rank,
    right_kernel,
    rref,
    sparse_kernel,
    sparse_rank,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def mat(rows):
    return [[QQ(x) for x in row] for row in rows]


def matrices(max_rows=12, max_cols=12):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    )


def test_identity_full_rank():
    identity = mat([[int(i == j) for j in range(3)] for i in range(3)])
    r, pivots = rref(identity)
    assert len(pivots) == 3
    assert right_kernel(identity) == []
    assert r == identity


def test_zero_matrix_kernel():
    zero = mat([[0] * 5] * 2)
    assert rank(zero) == 0
    assert len(right_kernel(zero)) == 5


def test_echelon_rank_plus_kernel_is_cols():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    rk, kernel = rank(m), right_kernel(m)
    assert rk + len(kernel) == 3
    assert rk == 2


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_echelon_idempotent_and_kernel_exact(rows):
    m = mat(rows)
    reduced, pivots = rref(m)
    assert rref(reduced) == (reduced, pivots)
    for v in right_kernel(m):
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda c: st.lists(
    st.lists(st.integers(-6, 6).map(lambda x: 3 * x), min_size=c, max_size=c),
    min_size=1, max_size=8)))
def test_integer_echelon_contract(rows):
    # entries share the factor 3, so the content reductions have work to do
    _check_integer_echelon(rows)


def _check_integer_echelon(rows):
    """integer_echelon(rows), and sparse_kernel of the same rows, against
    rref and right_kernel; returns (echelon, pivots, den, kernel)."""
    ncols = len(rows[0])
    reduced, pivots_ref = rref(mat(rows))
    rk, kernel_ref = len(pivots_ref), right_kernel(mat(rows))
    ech, pivots, den = integer_echelon(rows, ncols)
    assert pivots == pivots_ref and den > 0
    assert [[QQ(x, den) for x in r] for r in ech] == reduced[:rk]
    assert gcd(den, *[x for r in ech for x in r]) == 1
    free = [c for c in range(ncols) if c not in pivots]
    kernel = [_dense(v, ncols) for v in sparse_kernel(_sparse_rows(rows), ncols)]
    assert len(kernel) == len(kernel_ref) == len(free)
    for v, ref, f in zip(kernel, kernel_ref, free):
        assert gcd(*v) == 1 and v[f] > 0
        assert [QQ(x, v[f]) for x in v] == ref
    return ech, pivots, den, kernel


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda c: st.lists(
    st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=1, max_size=8)),
    st.randoms(use_true_random=False))
def test_integer_echelon_depends_on_the_row_space_only(rows, rnd):
    # the intake drops zero rows and repeats before eliminating; repeats,
    # rescalings by +-k, zero rows and a new order leave the row space,
    # hence every output, as it is
    ncols = len(rows[0])
    spread = [[k * x for x in row] for row in rows for _ in range(rnd.randint(1, 3))
              for k in [rnd.choice((-1, 1)) * rnd.randint(1, 4)]]
    spread += [[0] * ncols for _ in range(rnd.randint(0, 3))]
    rnd.shuffle(spread)
    assert _check_integer_echelon(spread) == _check_integer_echelon(rows)


@settings(max_examples=40, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(rows, rnd):
    m = mat(rows)
    shuffled = m[:]
    rnd.shuffle(shuffled)
    assert rank(shuffled) == rank(m)


@st.composite
def integer_matrices(draw):
    """A wide (at most 3 rows), tall (at most 3 columns) or squarish
    product of sparse integer factors, so of rank at most the inner size,
    some with entries of about 70 bits, then zero rows and repeats of its
    rows inserted.  Zero-heavy factors make rows skip pivot columns and
    take the lazy rescale; the sparse core's rows are these rows without
    their zero entries."""
    shape = draw(st.sampled_from(("wide", "tall", "square")))
    nrows = draw(st.integers(1, 3 if shape == "wide" else 10))
    ncols = draw(st.integers(1, 3 if shape == "tall" else 10))
    inner = draw(st.integers(0, min(nrows, ncols)))
    small = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    entries = st.one_of(small, st.integers(-2 ** 70, 2 ** 70)) if draw(st.booleans()) else small
    left = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          min_size=inner, max_size=inner))
    m = [[sum(left[i][q] * right[q][j] for q in range(inner)) for j in range(ncols)]
         for i in range(nrows)]
    for repeat in draw(st.lists(st.one_of(st.none(), st.integers(0, nrows - 1)), max_size=4)):
        row = [0] * ncols if repeat is None else list(m[repeat])
        m.insert(draw(st.integers(0, len(m))), row)
    return m


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_rank_is_the_echelon_rank(m):
    # the forward pass of the core against integer_echelon's pivots and the
    # Fraction rref's, on the rows as given and from an iterator; the rows
    # are read, never changed
    ncols = len(m[0])
    before = [list(row) for row in m]
    r = sparse_rank(_sparse_rows(m))
    assert m == before
    assert r == len(integer_echelon(m, ncols)[1]) == rank(mat(m))
    assert r == len(_bareiss(m, ncols, False)[1])
    assert sparse_rank(iter(_sparse_rows(iter(m)))) == r
    assert sparse_rank(_sparse_rows(m[::-1])) == r
    # the forward pivot rows in lead order: the row of the k-th lead is the
    # primitive vector on the line that some m' <= k + 1 rows of m and
    # m' - 1 zero columns cut out, so it divides a vector of m'-minors of m,
    # within Hadamard's bound on the k-th Bareiss row: the product of the
    # k + 1 largest squared row norms
    forward = _sparse_echelon(_sparse(m), False)
    assert len(forward) == r
    norms = sorted((sum(x * x for x in row) for row in m), reverse=True)
    bound = 1
    for c, norm in zip(sorted(forward), norms):
        bound *= norm
        assert all(x * x <= bound for x in forward[c].values())


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_echelon_kernel_is_the_reversed_kernel(m):
    # the reduced echelon basis of the kernel against the Bareiss reference
    # on the reversed columns: the same primitive vectors, each starting at
    # its own column, from rows given in any order or as an iterator; the
    # rows are read, never changed
    ncols = len(m[0])
    rows = _sparse(m)
    before = [dict(row) for row in rows]
    kernel = echelon_kernel(rows, ncols)
    assert rows == before
    reversed_rows = [row[::-1] for row in m]
    assert kernel == [v[::-1] for v in reversed(bareiss_kernel(*bareiss_echelon(reversed_rows,
                                                                                ncols), ncols))]
    assert echelon_kernel(iter(rows[::-1]), ncols) == kernel
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m for v in kernel)
    leads = [next(c for c, x in enumerate(v) if x) for v in kernel]
    assert leads == sorted(set(leads))
    assert all(v[c] > 0 and all(w[c] == 0 for w in kernel if w is not v)
               for v, c in zip(kernel, leads))


def test_echelon_kernel_back_reduces_no_pivot_row(monkeypatch):
    # the kernel vectors come by back substitution over the forward rows:
    # one forward core call and no back-reduction, on seeded random rows
    # (about two thirds of the entries zero) of every shape up to 14 x 13
    calls, core = [], linalg._sparse_echelon

    def recorded(rows, back, *rest, **named):
        calls.append(back)
        return core(rows, back, *rest, **named)

    rng = random.Random(5)
    for ncols in range(1, 14):
        for nrows in range(ncols + 2):
            m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
                 for _ in range(nrows)]
            rows, expected = _sparse_rows(m), ncols - rank(mat(m))
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_sparse_echelon", recorded)
                assert len(echelon_kernel(rows, ncols)) == expected
            assert calls == [False]


def test_echelon_kernel_of_no_rows_and_of_zero_rows():
    units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert echelon_kernel([], 3) == units
    assert echelon_kernel(_sparse_rows([[0, 0, 0]] * 2), 3) == units
    assert echelon_kernel([{1: -2, 2: 4}], 3) == [[1, 0, 0], [0, 2, 1]]


def _sparse(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def _dense(v, ncols):
    out = [0] * ncols
    for c, x in v.items():
        out[c] = x
    return out


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_sparse_core_matches_the_bareiss_loop(m):
    # the sparse core against the Bareiss reference: its rank, and its
    # primitive kernel vectors of the Gauss-Jordan form, each in column
    # order and ending at its free column, from rows given in any order or
    # as an iterator; the rows are read, never changed
    ncols = len(m[0])
    rows = _sparse(m)
    before = [dict(row) for row in rows]
    r = sparse_rank(rows)
    kernel = sparse_kernel(rows, ncols)
    assert rows == before
    assert r == len(_bareiss(m, ncols, False)[1])
    echelon, pivots, den = bareiss_echelon(m, ncols)
    assert [_dense(v, ncols) for v in kernel] == bareiss_kernel(echelon, pivots, den, ncols)
    assert [max(v) for v in kernel] == [c for c in range(ncols) if c not in pivots]
    assert all(list(v) == sorted(v) and 0 not in v.values() for v in kernel)
    assert sparse_rank(iter(rows[::-1])) == r
    assert sparse_kernel(iter(rows[::-1]), ncols) == kernel
    # every pivot row is over its content and keyed by its lead, in the
    # forward pass and after the back-reduction; the back-reduced rows are
    # the Bareiss echelon rows over their contents, up to sign, and
    # integer_echelon reads the Bareiss echelon form off them
    forward, reduced = _sparse_echelon(rows, False), _sparse_echelon(rows, True)
    assert sorted(forward) == sorted(reduced) == pivots
    for pivot_rows in (forward, reduced):
        assert all(min(row) == c and gcd(*row.values()) == 1 and 0 not in row.values()
                   for c, row in pivot_rows.items())
    for row, c in zip(echelon, pivots):
        g = gcd(*row)
        expected = {k: x // g for k, x in enumerate(row) if x}
        assert reduced[c] in (expected, {k: -x for k, x in expected.items()})
    assert integer_echelon(m, ncols) == (echelon, pivots, den)
    # stop is an upper bound on the rank: stopped at the rank r, the
    # forward pass takes no row after the first prefix of rank r and holds
    # the same rows; stopped above it, it takes every row and gives what no
    # stop gives.  Started from the forward pass of a prefix, it goes on as
    # if it had taken that prefix itself, and started from pivot rows that
    # already reach stop, it takes no row
    taken = []

    def counted(source):
        for row in source:
            taken.append(row)
            yield row

    assert _sparse_echelon(counted(rows), False, r) == forward
    assert len(taken) == next(k for k in range(len(rows) + 1) if sparse_rank(rows[:k]) == r)
    for back, expected in ((False, forward), (True, reduced)):
        taken.clear()
        assert _sparse_echelon(counted(rows), back, r + 1) == expected
        assert taken == rows
    for k in range(len(rows) + 1):
        start = _sparse_echelon(rows[:k], False)
        copy = dict(start)
        assert _sparse_echelon(rows[k:], False, start=start) == forward
        assert _sparse_echelon(rows[k:], True, start=start) == reduced
        taken.clear()
        assert _sparse_echelon(counted(rows[k:]), False, len(start), start) == start
        assert _sparse_echelon(counted(rows[k:]), True, len(start), start) == \
            _sparse_echelon(rows[:k], True)
        assert taken == []
        assert start == copy


def test_sparse_core_of_no_rows():
    assert sparse_rank([]) == 0
    assert sparse_kernel([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert sparse_kernel([{1: -2, 2: 4}], 3) == [{0: 1}, {1: 2, 2: 1}]
    assert sparse_rank([{1: 3}, {1: -6}]) == 1


def test_integer_rank_of_no_rows_and_of_zero_rows():
    assert _sparse_rows([]) == []
    assert sparse_rank(_sparse_rows([[0, 0, 0]] * 4)) == 0
    assert _sparse_rows([[0, 2, 0]] * 4) == [{1: 2}]
    assert sparse_rank(_sparse_rows([[0, 2, 0]] * 4)) == 1
    assert integer_echelon([[0, 0, 0]] * 4, 3) == ([], [], 1)


def _det_cofactor(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = QQ(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det_cofactor(minor)
        total += -term if j % 2 else term
    return total


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_matches_cofactor_expansion(rows):
    m = mat(rows)
    assert det(m) == _det_cofactor(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda size: st.lists(st.lists(st.integers(-3, 3), min_size=size, max_size=size),
                          min_size=size, max_size=size)))
def test_integer_det_matches_cofactor_expansion(m):
    # the Bareiss forward pass behind det and schubert's skew Schur
    # dimensions, zero pivots and row swaps included; entries in -3..3 make
    # both common
    assert _integer_det(m) == _det_cofactor(m)


def test_det_singular_is_zero():
    assert det(mat([[1, 2], [2, 4]])) == 0


def test_row_space_intersection_basic():
    a = mat([[1, 0, 0], [0, 1, 0]])
    b = mat([[0, 1, 0], [0, 0, 1]])
    inter = row_space_intersection(a, b, 3)
    assert inter == mat([[0, 1, 0]])


def test_kernel_of_empty_matrix_needs_ncols():
    assert len(right_kernel([], ncols=4)) == 4
    with pytest.raises(ValueError):
        right_kernel([])


# -- the certified rank from a row subset chosen mod p ------------------------

def _planted(rng, nrows, ncols, rank_, bits):
    """nrows sparse rows over range(ncols): rank_ independent-looking rows with
    entries of up to bits bits (about a third of them zero), and the rest
    integer combinations of two or three of them with coefficients in
    -5..5, shuffled, some of them zero rows."""
    base = [{c: rng.choice((-1, 1)) * rng.randint(1, 2 ** bits) for c in range(ncols)
             if rng.random() < 0.67} for _ in range(rank_)]
    rows = [dict(row) for row in base]
    while len(rows) < nrows:
        row = {}
        for b in rng.sample(base, min(len(base), rng.randint(2, 3))):
            a = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
            for c, x in b.items():
                row[c] = row.get(c, 0) + a * x
        rows.append({c: x for c, x in sorted(row.items()) if x})
    rng.shuffle(rows)
    return rows


@cache
def _certified_cases():
    """The constraint rows of seeded n = 3 and n = 4 power-sum spans, most of
    them wide, with many dependent rows, and seeded random matrices with
    planted dependencies, each with its width, sparse_rank and
    sparse_kernel; read only."""
    inputs = []
    for point in ((3, 7, 3, 3), (3, 8, 3, 3), (3, 8, 2, 5), (4, 5, 2, 4), (4, 5, 2, 5)):
        ts = tangent.tangent_space(power_sum_span(*point))
        inputs.append((ts.constraints[0], ts.constraint_shape[1]))
    rng = random.Random(13)
    for _ in range(25):
        ncols = rng.randint(1, 20)
        rank_ = rng.randint(0, ncols)
        inputs.append((_planted(rng, rank_ + rng.randint(0, 20), ncols, rank_,
                                rng.choice((3, 40, 90, 200))), ncols))
    return [(rows, ncols, sparse_rank(rows), sparse_kernel(rows, ncols))
            for rows, ncols in inputs]


def test_certified_rank_is_the_exact_rank_and_kernel():
    # the rank of sparse_rank and the kernel of sparse_kernel, vector for
    # vector; the kept rows are independent, and the rows are read, never
    # changed
    dependent = 0
    for rows, ncols, r, kernel in _certified_cases():
        before = [dict(row) for row in rows]
        assert certified_rank(rows, ncols) == (r, kernel)
        assert rows == before
        kept = _modular_pivot_rows(rows, ncols)
        assert len(kept) == r == sparse_rank([rows[i] for i in kept])
        dependent += len(rows) - r
    assert dependent > 500


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_certified_rank_matches_the_core_on_random_matrices(m):
    rows = _sparse(m)
    assert certified_rank(rows, len(m[0])) == (sparse_rank(rows), sparse_kernel(rows, len(m[0])))


@pytest.mark.parametrize("prime", [2, 3])
def test_an_unlucky_prime_falls_back_to_the_exact_rank(monkeypatch, prime):
    # mod 2 or 3 the pass keeps too few rows (on every power-sum input, at
    # least), the exact check catches every such case, and the rank comes
    # from sparse_rank: the same rank, no kernel, and through the tangent
    # route the same dimension and basis
    points = [power_sum_span(*p) for p in ((3, 7, 3, 5), (3, 8, 3, 3), (4, 5, 2, 5))]
    spaces = [tangent.tangent_space(lam) for lam in points]
    assert all(ts.constraints[2] is not None for ts in spaces)
    fallbacks, exact = [], linalg.sparse_rank

    def counted(rows):
        fallbacks.append(len(rows))
        return exact(rows)

    monkeypatch.setattr(linalg, "PRIME", prime)
    monkeypatch.setattr(linalg, "sparse_rank", counted)
    for rows, ncols, r, kernel in _certified_cases():
        got, certified = certified_rank(rows, ncols)
        assert got == r and certified in (None, kernel)
    assert len(fallbacks) >= 5
    fallbacks.clear()
    for lam, ts in zip(points, spaces):
        again = tangent.tangent_space(lam)
        assert (again.dimension, again.constraint_shape, again.basis) == \
            (ts.dimension, ts.constraint_shape, ts.basis)
    assert fallbacks
