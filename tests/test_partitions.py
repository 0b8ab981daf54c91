"""The one partition generator against the generators it replaced and
against sympy's, used only as an independent oracle in the tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from levelalg.partitions import _weyl_dim, partitions, partitions_in_box, schur_dim, weyl_dim

sympy_iterables = pytest.importorskip("sympy.utilities.iterables")


def _bounded_partitions(n, k):
    """Partitions of n with every part at most k, descending lexicographic."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, k), 0, -1):
        for rest in _bounded_partitions(n - first, first):
            yield (first,) + rest


def _every_weight_in_box(rows, cols):
    """All partitions in the box, depth first from the empty partition."""
    yield ()
    if rows == 0 or cols == 0:
        return
    for first in range(cols, 0, -1):
        for rest in _every_weight_in_box(rows - 1, first):
            yield (first,) + rest


@st.composite
def boxes(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    weight = draw(st.none() | st.integers(-1, rows * cols + 1))
    return rows, cols, weight


@settings(max_examples=300, deadline=None)
@given(boxes())
def test_partitions_in_box_matches_the_replaced_generators(box):
    rows, cols, weight = box
    got = partitions_in_box(rows, cols, weight)
    if weight is None:
        assert got == tuple(_every_weight_in_box(rows, cols))
        return
    assert got == tuple(nu for nu in _bounded_partitions(weight, cols) if len(nu) <= rows)
    if weight > 0:
        # sympy yields {part: multiplicity} dicts, and one empty dict when
        # there is no partition at all
        oracle = {tuple(sorted((p for p, k in mult.items() for _ in range(k)), reverse=True))
                  for mult in sympy_iterables.partitions(weight, m=rows, k=cols) if mult}
        assert set(got) == oracle


def test_partitions_of_n_are_the_n_by_n_box():
    assert partitions(-1) == ()
    assert partitions(0) == ((),)
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_the_weyl_core_matches_hook_content_and_the_full_pair_product():
    # the unchecked core that lascoux_ranks and e1_vanishing_table call,
    # the checked weyl_dim and the independent hook-content schur_dim, on
    # every partition of the 6 x 6 box and every n from its length to 8
    for lam in partitions_in_box(6, 6):
        for n in range(len(lam), 9):
            assert _weyl_dim(lam, n) == weyl_dim(lam, n) == schur_dim(lam, n), (lam, n)
    # rational weights, as Bott's algorithm passes them: every pair multiplied
    for weight in [(2, 0, -1, -3), (0, 0, -1, -1), (-2, -2, -2), (3, 3, 0, -4, -4)]:
        n = len(weight)
        pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
        num = math.prod(weight[p] - weight[q] + q - p for p, q in pairs)
        assert weyl_dim(weight, n) * math.prod(q - p for p, q in pairs) == num
