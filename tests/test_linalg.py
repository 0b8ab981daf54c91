from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from levelalg.linalg import (
    QQ,
    det,
    free_columns,
    integer_echelon,
    integer_kernel,
    rank,
    right_kernel,
    row_space_intersection,
    rref,
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
    """integer_echelon(rows), and integer_kernel on all its free columns,
    against rref and right_kernel; returns (echelon, pivots, den, kernel)."""
    ncols = len(rows[0])
    reduced, pivots_ref = rref(mat(rows))
    rk, kernel_ref = len(pivots_ref), right_kernel(mat(rows))
    ech, pivots, den = integer_echelon(rows, ncols)
    assert pivots == pivots_ref and den > 0
    assert [[QQ(x, den) for x in r] for r in ech] == reduced[:rk]
    assert gcd(den, *[x for r in ech for x in r]) == 1
    free = free_columns(pivots, ncols)
    assert free == [c for c in range(ncols) if c not in pivots]
    kernel = integer_kernel(ech, pivots, den, ncols, free)
    assert len(kernel) == len(kernel_ref) == len(free)
    for v, ref, f in zip(kernel, kernel_ref, free):
        assert gcd(*v) == 1 and v[f] > 0
        assert [QQ(x, v[f]) for x in v] == ref
    return ech, pivots, den, kernel


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda c: st.lists(
    st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=1, max_size=8)),
    st.randoms(use_true_random=False))
def test_integer_kernel_of_any_free_columns(rows, rnd):
    # a caller asks for the kernel vectors of the free columns it reads, in
    # any order; each is the full kernel's vector of that column, which
    # _check_integer_echelon holds to right_kernel up to a positive scale
    ncols = len(rows[0])
    ech, pivots, den, kernel = _check_integer_echelon(rows)
    free = free_columns(pivots, ncols)
    wanted = rnd.sample(free, rnd.randint(0, len(free)))
    assert integer_kernel(ech, pivots, den, ncols, wanted) == \
        [kernel[free.index(f)] for f in wanted]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda c: st.lists(
    st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=1, max_size=8)),
    st.randoms(use_true_random=False))
def test_integer_echelon_depends_on_the_row_space_only(rows, rnd):
    # integer_echelon drops zero rows and repeats of a primitive row before
    # eliminating; repeats, rescalings by +-k, zero rows and a new order
    # leave the row space, hence every output, as it is
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


def _det_cofactor(m):
    n = len(m)
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
