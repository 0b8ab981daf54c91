from itertools import permutations
from math import factorial, prod

import pytest

from levelalg.errors import CapExceededError, WeightMismatchError
from levelalg.kronecker import (
    _z_mu,
    character,
    diagram_intersection_size,
    dvir_bound_ok,
    kronecker,
)
from levelalg.partitions import conjugate, partitions, schur_dim


def sn_dim(lam):
    """Dimension of the symmetric-group irreducible by the hook length
    formula, an oracle independent of the characters."""
    conj = conjugate(lam)
    return factorial(sum(lam)) // prod(row - j + conj[j] - i - 1
                                       for i, row in enumerate(lam) for j in range(row))


def test_character_table_s3():
    # rows chi_lambda over classes (3), (2,1), (1,1,1)
    table = {lam: [character(lam, mu) for mu in partitions(3)]
             for lam in partitions(3)}
    assert table[(3,)] == [1, 1, 1]
    assert table[(2, 1)] == [-1, 0, 2]
    assert table[(1, 1, 1)] == [1, -1, 1]


def test_character_table_s5_spot_values():
    assert character((3, 2), (1, 1, 1, 1, 1)) == 5
    # the whole diagram contains a 2x2 square, so no length-5 border strip
    assert character((3, 2), (5,)) == 0


def test_standard_representation_is_fixed_points_minus_one():
    def fixed_points(mu):
        return sum(1 for p in mu if p == 1)

    for n in (4, 5, 6):
        for mu in partitions(n):
            assert character((n - 1, 1), mu) == fixed_points(mu) - 1


def test_character_at_identity_is_hook_dimension():
    for n in range(1, 8):
        ident = (1,) * n
        for lam in partitions(n):
            assert character(lam, ident) == sn_dim(lam)


def test_character_orthogonality_rows():
    for n in (4, 5, 6):
        ps = partitions(n)
        for a in ps:
            for b in ps:
                total = sum(factorial(n) // _z_mu(c) * character(a, c) * character(b, c)
                            for c in ps)
                assert total == (factorial(n) if a == b else 0)


def test_class_sizes_sum_to_group_order():
    # a class of cycle type mu has n! / z_mu elements
    for n in range(1, 9):
        assert sum(factorial(n) // _z_mu(mu) for mu in partitions(n)) == factorial(n)


def test_kronecker_all_trivial():
    for n in range(1, 7):
        assert kronecker((n,), (n,), (n,)) == 1


def test_kronecker_sign_pair():
    assert kronecker((1, 1), (1, 1), (2,)) == 1
    assert kronecker((1, 1), (1, 1), (1, 1)) == 0


def test_kronecker_standard_example():
    # (2,1) x (2,1) = (3) + (2,1) + (1,1,1) in S_3
    assert kronecker((2, 1), (2, 1), (3,)) == 1
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker((2, 1), (2, 1), (1, 1, 1)) == 1


def test_kronecker_symmetric_in_all_arguments(rng):
    for w in (4, 5, 6):
        ps = partitions(w)
        for _ in range(12):
            a, b, c = (rng.choice(ps) for _ in range(3))
            vals = {kronecker(*triple) for triple in permutations((a, b, c))}
            assert len(vals) == 1


def test_kronecker_weight_mismatch():
    with pytest.raises(WeightMismatchError):
        kronecker((2,), (1, 1), (3,))


def test_kronecker_cap():
    with pytest.raises(CapExceededError):
        kronecker((11,), (11,), (11,))
    assert kronecker((11,), (11,), (11,), cap=11) == 1


def test_dvir_bound_exhaustive_weight_7():
    for w in range(1, 8):
        ps = partitions(w)
        for a in ps:
            for b in ps:
                for c in ps:
                    if kronecker(a, b, c) != 0:
                        assert dvir_bound_ok(a, b, c)
                        # the boxed corollary
                        assert b[0] <= a[0] * len(c)
                        # the permuted and conjugate bounds that
                        # e1_vanishing_table enumerates mu inside
                        assert c[0] <= diagram_intersection_size(a, b)
                        assert len(c) <= diagram_intersection_size(a, conjugate(b))


def test_dvir_deliberate_violation_has_zero_coefficient():
    lam, mu = (1, 1, 1, 1), (2, 1, 1)
    rho = (4,)
    assert rho[0] > diagram_intersection_size(lam, mu)
    assert kronecker(lam, rho, mu) == 0


def test_dimension_identity_tensor_product():
    # sum over rho, mu of C * dim S_rho(C^2) * dim S_mu(C^3)
    # equals dim S_lam(C^6), for every lam of weight <= 5
    for w in range(1, 6):
        for lam in partitions(w):
            lhs = sum(
                kronecker(lam, rho, mu) * schur_dim(rho, 2) * schur_dim(mu, 3)
                for rho in partitions(w)
                for mu in partitions(w)
            )
            assert lhs == schur_dim(lam, 6)


def test_character_orthogonality_columns():
    # sum over lambda of chi_lambda(mu) chi_lambda(nu) is z_mu if mu = nu
    # and 0 otherwise, z_mu = prod_k k^{m_k} m_k! counted here directly
    from math import factorial

    for n in range(1, 9):
        ps = partitions(n)
        for mu in ps:
            z = 1
            for k in set(mu):
                z *= k ** mu.count(k) * factorial(mu.count(k))
            for nu in ps:
                total = sum(character(lam, mu) * character(lam, nu) for lam in ps)
                assert total == (z if mu == nu else 0)
