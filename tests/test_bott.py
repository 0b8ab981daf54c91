import pytest

from levelalg.bott import ZERO, bott_cohomology, schur_sub_twist_cohomology
from levelalg.errors import LevelAlgError
from levelalg.partitions import conjugate, schur_dim, weyl_dim
from levelalg.resolution import lascoux_ranks


def _qdual_cohomology(r, big_n, lam_conj):
    """Cohomology of S_{lam'}(Q*) on G(r, C^N): zero as a bundle when lam'
    has more than N - r parts, else Bott on lam' padded to N - r parts,
    reversed and negated, then r zeros."""
    k = big_n - r
    if len(lam_conj) > k:
        return ZERO
    padded = list(lam_conj) + [0] * (k - len(lam_conj))
    return bott_cohomology([-x for x in reversed(padded)] + [0] * r, blocks=(k, r))


def test_trivial_bundle_has_h0_one():
    res = bott_cohomology([0] * 6)
    assert (res.degree, res.dimension) == (0, 1)


def test_repeat_means_zero():
    # gamma + delta = (5,4,3,3,1,0) has a repeat
    assert bott_cohomology([0, 0, 0, 1, 0, 0]).is_zero


def test_schur_functor_vanishing_row_bounds():
    # more rows than the bundle rank: the functor itself is zero
    assert _qdual_cohomology(4, 6, (1, 1, 1)).is_zero  # Q has rank 2
    assert schur_sub_twist_cohomology(2, 8, (1, 1, 1), 0).is_zero


def test_blocks_must_be_weakly_decreasing():
    with pytest.raises(LevelAlgError):
        bott_cohomology([0, 1, 0, 0], blocks=(2, 2))


def test_line_bundles_on_p1():
    # B = O(-1) on P^1 = G(1, C^2): no cohomology
    assert schur_sub_twist_cohomology(1, 2, (1,), 0).is_zero
    # Sym^2 B = O(-2): H^1 one-dimensional
    res = schur_sub_twist_cohomology(1, 2, (2,), 0)
    assert (res.degree, res.dimension) == (1, 1)
    # O(m) on P^1: H^0 of dimension m+1
    for m in range(4):
        res = schur_sub_twist_cohomology(1, 2, (), m)
        assert (res.degree, res.dimension) == (0, m + 1)


def test_serre_duality_on_p2():
    # O(m) on P^2 = G(1, C^3): H^0 for m >= 0, H^2 for m <= -3
    for m in range(4):
        res = schur_sub_twist_cohomology(1, 3, (), m)
        assert (res.degree, res.dimension) == (0, (m + 1) * (m + 2) // 2)
    for m in (-3, -4, -5):
        res = schur_sub_twist_cohomology(1, 3, (), m)
        mm = -m - 3
        assert (res.degree, res.dimension) == (2, (mm + 1) * (mm + 2) // 2)
    assert schur_sub_twist_cohomology(1, 3, (), -1).is_zero
    assert schur_sub_twist_cohomology(1, 3, (), -2).is_zero


def test_plucker_sections_on_grassmannian():
    # H^0(G(2, C^6), O(1)) = wedge^2 C^6
    res = schur_sub_twist_cohomology(2, 6, (), 1)
    assert (res.degree, res.dimension) == (0, 15)


def test_resolution_example_summands():
    # the four nontrivial weights that appear in the (2,7,5,4) resolution,
    # hand-checked through the algorithm
    cases = {
        (5,): (4, 6),
        (6,): (4, 35),
        (5, 1): (4, 1),
        (6, 1): (4, 6),
        (6, 6): (8, 1),
    }
    for lam_conj, expect in cases.items():
        res = _qdual_cohomology(4, 6, lam_conj)
        assert (res.degree, res.dimension) == expect
    # lascoux_ranks reads the same pairs off its closed form, plus (0, 1)
    # for the empty partition
    got = {conjugate(s.lam): (s.bott_degree, s.bott_dim)
           for v in lascoux_ranks(2, 7, 5, 4).terms.values() for s in v}
    assert got == {(): (0, 1), **cases}


def test_single_degree_everywhere(rng):
    # the algorithm yields one degree or nothing by construction; check a
    # spread of random weights stays internally consistent
    for _ in range(40):
        n = rng.randint(2, 7)
        gamma = sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True)
        rng.shuffle(gamma)
        res = bott_cohomology(gamma)
        if not res.is_zero:
            assert res.dimension > 0
            assert weyl_dim(res.weight, n) == res.dimension


def test_borel_weil_on_partition_weights(rng):
    # dominant partition weights twist down to H^0 with the Weyl dimension
    for lam in [(3,), (2, 1), (4, 2, 1)]:
        n = 5
        res = bott_cohomology(list(lam) + [0] * (n - len(lam)))
        assert res.degree == 0
        assert res.dimension == schur_dim(lam, n)
