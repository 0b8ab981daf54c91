import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from conftest import all_level_hfs, burch_point
from levelalg.apolarity import hilbert_function, inverse_system_slice
from levelalg.errors import InvalidPartitionError, MalformedSequenceError
from levelalg.forms import Form, form_print
from levelalg.linalg import det
from levelalg.levelhf import (
    BurchMatrix,
    HilbertFunction,
    burch_ideal,
    count_level_hf,
    dim_stratum,
    e_sequence,
    enumerate_level_hf,
    grassmannian_dim,
    hf_from_partition,
    is_level_hf,
    is_level_sequence,
    minmax_hf,
    partition_format,
    partition_from_hf,
    partition_parse,
    q_sequence,
)

EX15 = HilbertFunction.parse("1,2,3,4,5,5,4,3,0")


def brute_force_level_hfs(t, d):
    """Oracle: depth-first search over all integer sequences with
    h_0 = 1, h_d = t, 0 <= h_i <= i+1, keeping exactly those that satisfy
    the concavity inequalities."""
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


def test_example_15_is_level():
    assert is_level_hf(EX15) == (True, None)


def test_concavity_failure_index():
    assert is_level_sequence([1, 2, 2, 3]) == (False, 2)


def test_paper_24_function_is_level():
    assert is_level_sequence([1, 2, 3, 4, 4, 2, 0]) == (True, None)


def test_malformed_endpoints_raise():
    with pytest.raises(MalformedSequenceError):
        is_level_sequence([2, 1])
    with pytest.raises(MalformedSequenceError):
        is_level_sequence([1, -1, 1])
    with pytest.raises(MalformedSequenceError):
        HilbertFunction.from_values([])
    # a type (t, d) needs 1 <= t <= d + 1
    for t, d in ((0, 3), (5, 3)):
        with pytest.raises(MalformedSequenceError, match=r"^need 1 <= t <= d \+ 1"):
            count_level_hf(t, d)


def test_example_15_e_and_q():
    es = e_sequence(EX15)
    assert es[4] == 1 and es[5] == 1 and es[7] == 2  # e_5, e_6, e_8
    assert sum(es) == 4
    assert q_sequence(EX15) == (5, 6, 8, 8)


def test_minimal_function_generator_profile():
    for t in (2, 3, 4):
        for d in (t + 1, t + 3):
            h = HilbertFunction(tuple(min(i + 1, t) for i in range(d + 1)))
            es = e_sequence(h)
            assert es[0] == 0
            assert es[t - 1] == 1  # e_t = 1
            assert es[d] == t  # e_{d+1} = t
            assert q_sequence(h) == (t,) + (d + 1,) * t


def test_25_h1_e_sequence():
    h = HilbertFunction.parse("1,2,2,2,2,2,0")
    es = e_sequence(h)
    assert es[1] == 1 and es[5] == 2  # e_2 = 1, e_6 = 2
    assert sum(es) == 3


def test_e_sequence_is_the_second_difference():
    # e_{i+1} = 2h_i - h_{i-1} - h_{i+1}, with h zero outside 0..d
    for h in all_level_hfs(5, 12):
        assert e_sequence(h) == tuple(2 * h[i] - h[i - 1] - h[i + 1] for i in range(h.d + 1))


def test_sum_invariants_all_small_cases():
    for h in all_level_hfs(4, 9):
        assert sum(e_sequence(h)) == len(q_sequence(h)) == h.t + 1
        assert sum(q_sequence(h)) == h.t * (h.d + 2)


def test_burch_example_15_verbatim():
    matrix, gens = burch_ideal(EX15)
    rows = [
        [form_print(e) if e is not None else "0" for e in row]
        for row in matrix.entries
    ]
    assert rows == [
        ["x1^4", "x2^3", "0", "0"],
        ["0", "x1^3", "x2", "0"],
        ["0", "0", "x1", "x2"],
    ]
    assert [form_print(g) for g in gens] == ["x2^5", "x1^4*x2^2", "x1^7*x2", "x1^8"]


def test_burch_gorenstein_complete_intersection():
    # type 1: the witness is a monomial complete intersection with the
    # centrally symmetric Hilbert function
    h = HilbertFunction.parse("1,2,2,2,2,1,0")  # a=2, b=5, d=5
    matrix, gens = burch_ideal(h)
    assert [form_print(g) for g in gens] == ["x2^2", "x1^5"]
    lam = inverse_system_slice(gens, 2, 5)
    assert hilbert_function(lam).values == h.values


def test_burch_roundtrip_random(rng):
    pool = list(all_level_hfs(4, 10))
    for h in rng.sample(pool, 25):
        lam = burch_point(h)
        assert hilbert_function(lam).values == h.values


def _evaluate(form, point):
    return sum(c * point[0] ** e[0] * point[1] ** e[1] for e, c in form.coeffs.items())


def test_burch_minors_match_determinants_at_random_points():
    # the closed-form minors against linalg.det of the evaluated submatrix:
    # the ratio is one nonzero constant (the monic scale) per minor
    rnd = random.Random(2002)
    every = [h for d in range(9) for t in range(1, d + 2) for h in enumerate_level_hf(t, d)]
    for h in every:
        matrix, gens = burch_ideal(h)
        for k, minor in enumerate(gens):
            ratios = set()
            for _ in range(3):
                point = (Fraction(rnd.randint(1, 9), rnd.randint(1, 9)),
                         Fraction(-rnd.randint(1, 9), rnd.randint(1, 9)))
                sub = [[0 if e is None else _evaluate(e, point)
                        for j, e in enumerate(row) if j != k]
                       for row in matrix.entries]
                ratios.add(det(sub) / _evaluate(minor, point))
            assert len(ratios) == 1 and 0 not in ratios, (h.format(), k)


def product_burch_ideal(h):
    """The Burch matrix entry by entry, and its maximal minors as products
    of the entries that deleting column k leaves on the diagonal and the
    superdiagonal, made monic: the route burch_ideal's closed form
    replaced."""
    t, d, q = h.t, h.d, q_sequence(h)
    m = tuple(tuple(Form.monomial(2, "R", (d + 2 - q[i], 0)) if j == i
                    else Form.monomial(2, "R", (0, d + 2 - q[i + 1])) if j == i + 1 else None
                    for j in range(t + 1)) for i in range(t))
    minors = [reduce(mul, [m[i][i] for i in range(k)]
                     + [m[i][i + 1] for i in range(k, t)]).monic() for k in range(t + 1)]
    return BurchMatrix(t, d, m), minors


def test_burch_ideal_is_the_product_of_entries():
    for h in all_level_hfs(5, 12):
        assert burch_ideal(h) == product_burch_ideal(h), h.format()


def test_minor_degrees_are_q_sequence():
    for h in all_level_hfs(3, 8):
        _, gens = burch_ideal(h)
        assert tuple(g.degree for g in gens) == q_sequence(h)


def test_partition_example_15():
    assert partition_from_hf(EX15) == (2, 2, 1)
    assert hf_from_partition((2, 2, 1), 3, 7).values == EX15.values


def test_partition_degenerate_max_type():
    # t = d+1 forces the maximal function; the partition is empty
    h = hf_from_partition((), 5, 4)
    assert h.values == (1, 2, 3, 4, 5)
    assert partition_from_hf(h) == ()


def test_partition_roundtrip_25():
    for h in enumerate_level_hf(2, 5):
        mu = partition_from_hf(h)
        assert hf_from_partition(mu, 2, 5).values == h.values


def test_partition_roundtrip_exhaustive():
    for h in all_level_hfs(4, 10):
        mu = partition_from_hf(h)
        assert sum(mu) == h.d - h.t + 1
        assert all(p <= h.t + 1 for p in mu)
        assert hf_from_partition(mu, h.t, h.d).values == h.values


def test_partition_validation():
    with pytest.raises(InvalidPartitionError):
        hf_from_partition((3, 1), 3, 7)  # wrong weight
    with pytest.raises(InvalidPartitionError):
        hf_from_partition((5,), 3, 7)  # part exceeds t+1


def test_enumerate_25_lists_the_four_functions():
    hs = [h.format() for h in enumerate_level_hf(2, 5)]
    assert hs == [
        "1,2,2,2,2,2,0",
        "1,2,3,3,3,2,0",
        "1,2,3,4,3,2,0",
        "1,2,3,4,4,2,0",
    ]


def test_enumerate_37_count():
    # frozen from the brute-force oracle: partitions of 5 with parts <= 4
    assert len(enumerate_level_hf(3, 7)) == 6
    assert count_level_hf(3, 7) == 6


def test_enumerate_gorenstein_count():
    for d in range(1, 10):
        expect = (d + 2) // 2 if d % 2 == 0 else (d + 1) // 2
        assert len(enumerate_level_hf(1, d)) == expect


def test_enumeration_matches_brute_force_oracle():
    for t in range(1, 4):
        for d in range(t, 10):
            if t > d + 1:
                continue
            fast = sorted(h.values for h in enumerate_level_hf(t, d))
            slow = brute_force_level_hfs(t, d)
            assert fast == slow, (t, d)


def test_enumeration_count_matches_partition_count():
    for t in range(1, 6):
        for d in range(max(1, t - 1), 13):
            if t > d + 1:
                continue
            assert len(enumerate_level_hf(t, d)) == count_level_hf(t, d)


def test_dim_stratum_values():
    assert dim_stratum(EX15) == 9
    assert [dim_stratum(h) for h in enumerate_level_hf(2, 5)] == [2, 5, 6, 8]


def test_dim_stratum_maximal_is_grassmannian():
    for t, d in [(2, 5), (3, 7), (1, 6), (4, 9)]:
        _, hmax, _ = minmax_hf(t, d)
        assert dim_stratum(hmax) == grassmannian_dim(t, d)


def test_minmax_s0_values():
    assert minmax_hf(2, 7)[2] == 6
    for d in range(1, 9):
        assert minmax_hf(1, d)[2] == (d + 1 + 1) // 2  # ceil((d+1)/2)


def test_min_function_and_its_dimension():
    for t, d in [(2, 5), (3, 8), (4, 9)]:
        hmin, _, _ = minmax_hf(t, d)
        assert hmin.values == tuple(min(i + 1, t) for i in range(d + 1))
        assert dim_stratum(hmin) == t


def test_every_subspace_has_apolar_form_below_s0(rng):
    from levelalg.apolarity import ann_slice
    from levelalg.forms import Form, Subspace, monomials

    for _ in range(10):
        d = rng.randint(3, 8)
        t = rng.randint(1, 3)
        forms = [
            Form.make(2, d, "S", {m: rng.randint(-5, 5) for m in monomials(2, d)})
            for _ in range(t)
        ]
        lam = Subspace.span(2, d, "S", forms)
        if lam.dim == 0:
            continue
        _, _, s0 = minmax_hf(lam.dim, d)
        assert any(ann_slice(lam, s).dim > 0 for s in range(1, s0 + 1))


def test_partition_string_forms():
    assert partition_format((2, 2, 1)) == "2+2+1"
    assert partition_parse("2+2+1") == (2, 2, 1)
    assert partition_parse("0") == ()


def test_burch_roundtrip_exhaustive_small():
    # concavity iff constructibility, exhaustively for t <= 3, d <= 9
    for h in all_level_hfs(3, 9):
        lam = burch_point(h)
        assert hilbert_function(lam).values == h.values
