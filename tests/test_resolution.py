import functools
import math

import pytest

from conftest import plethystic_schur_coefficients
from levelalg import levelhf, resolution
from levelalg.errors import CapExceededError, LevelAlgError
from levelalg.levelhf import enumerate_level_hf, grassmannian_dim, is_level_hf, is_level_sequence
from levelalg.bott import bott_cohomology, schur_sub_twist_cohomology
from levelalg.kronecker import kronecker
from levelalg.partitions import conjugate, partitions_in_box, schur_dim, weyl_dim
from levelalg.resolution import (
    c1_c2_analysis,
    c2_witness_hf,
    e1_vanishing_table,
    expected_codim,
    lascoux_ranks,
)


def test_lascoux_ranks_2754():
    table = lascoux_ranks(2, 7, 5, 4)
    assert table.codim == 4
    assert table.ranks() == [1, 36, 70, 36, 1]


def test_lascoux_2754_summand_structure():
    table = lascoux_ranks(2, 7, 5, 4)
    # E^{-1} is a single summand: wedge^5 of a rank-6 space tensor a
    # 6-dimensional cohomology factor
    (s,) = table.terms[-1]
    assert s.lam == (1, 1, 1, 1, 1)
    assert s.schur_rank == 6 and s.bott_dim == 6 and s.rank == 36
    # E^{-2} splits as 35 + 35
    assert sorted(x.rank for x in table.terms[-2]) == [35, 35]
    # E^{-4} is the square of a determinant line
    (top,) = table.terms[-4]
    assert top.lam == (2, 2, 2, 2, 2, 2) and top.rank == 1


def test_lascoux_palindromic_2754():
    ranks = lascoux_ranks(2, 7, 5, 4).ranks()
    assert ranks == ranks[::-1]


def test_lascoux_e0_always_rank_one():
    for args in [(2, 7, 5, 4), (2, 5, 3, 2), (1, 4, 2, 2), (3, 7, 4, 3)]:
        table = lascoux_ranks(*args)
        assert table.rank(0) == 1


def test_lascoux_dimension_formulas_agree():
    # hook content against Weyl on every summand of a couple of cases
    for args in [(2, 7, 5, 4), (2, 5, 3, 2)]:
        t, d, i, r = args
        n = t * (d - i + 1)
        table = lascoux_ranks(*args)
        for summands in table.terms.values():
            for s in summands:
                assert s.schur_rank == schur_dim(s.lam, n) == weyl_dim(s.lam, n)


def test_lascoux_cell_cap(monkeypatch):
    monkeypatch.setattr(resolution, "CELL_CAP", 10)
    with pytest.raises(CapExceededError, match="^partition box 33 x 9 exceeds the cell cap 10$"):
        lascoux_ranks(3, 20, 10, 2)


def test_lascoux_partition_cap(monkeypatch):
    # 400 cells, within the cell cap; at r = 0 all C(40, 20) partitions survive
    with pytest.raises(CapExceededError, match="^partition box 20 x 20 holds 137846528820 "
                                               "non-vanishing partitions, more than the "
                                               "partition cap 200000$"):
        lascoux_ranks(4, 23, 19, 0)
    # the 10 x 10 box stays under the cap
    assert math.comb(20, 10) <= resolution.PARTITION_CAP
    # the 6 x 2 box of Le(5, 4) on G(2, S_7) holds C(8, 2) = 28 partitions,
    # of which C(6 - 4 + 2, 2) = 6 survive
    table = lascoux_ranks(2, 7, 5, 4)
    monkeypatch.setattr(resolution, "PARTITION_CAP", 6)
    assert lascoux_ranks(2, 7, 5, 4) == table
    monkeypatch.setattr(resolution, "PARTITION_CAP", 5)
    with pytest.raises(CapExceededError, match="6 x 2 holds 6 non-vanishing partitions, "
                                               "more than the partition cap 5"):
        lascoux_ranks(2, 7, 5, 4)


def _lascoux_by_bott_on_every_partition(t, d, i, r):
    """p -> [(lam, schur_rank, bott_dim, bott_degree)] in box order:
    Bott's algorithm on S_{lam'}(Q*) over G(r, S_i) for each partition of
    the box, the route lascoux_ranks took before it enumerated the
    survivors only and read their terms off Lascoux's closed form."""
    rows, cols = t * (d - i + 1), i + 1 - r
    terms = {}
    for lam in partitions_in_box(rows, cols):
        # the Q block (rank N - r = cols) of S_{lam'}(Q*) is lam' padded,
        # reversed and negated; the rank-r block is zero
        padded = list(conjugate(lam)) + [0] * (cols - (lam[0] if lam else 0))
        res = bott_cohomology([-x for x in reversed(padded)] + [0] * r, blocks=(cols, r))
        if not res.is_zero:
            terms.setdefault(res.degree - sum(lam), []).append(
                (lam, schur_dim(lam, rows), res.dimension, res.degree))
    return terms


# every (t, d, i, r) with t <= 3, d <= 8 and 0 <= r <= min(i, t(d-i+1))
LASCOUX_GRID = [(t, d, i, r) for t in range(1, 4) for d in range(t - 1, 9)
                for i in range(d + 1) for r in range(min(i, t * (d - i + 1)) + 1)]


@functools.cache
def _grid_table(args):
    return lascoux_ranks(*args)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_lascoux_survivors_match_bott_on_every_partition(t):
    # the closed-form terms against the generic Bott algorithm, and every
    # homological degree inside [-c, 0]
    for args in LASCOUX_GRID:
        if args[0] == t:
            table = _grid_table(args)
            got = {p: [(s.lam, s.schur_rank, s.bott_dim, s.bott_degree) for s in v]
                   for p, v in table.terms.items()}
            assert got == _lascoux_by_bott_on_every_partition(*args), args
            assert all(-table.codim <= p <= 0 for p in table.terms), args


def test_lascoux_survivor_count():
    # C(R - r + C, C) survivors: choose s, alpha in an s x (R-s-r) box and
    # beta in a (C-s) x s box, and sum by Vandermonde
    for args in LASCOUX_GRID:
        t, d, i, r = args
        rows, cols = t * (d - i + 1), i + 1 - r
        count = sum(len(v) for v in _grid_table(args).terms.values())
        assert count == math.comb(rows - r + cols, cols), args


def test_lascoux_r0_ranks_are_koszul_numbers():
    # r = 0: Le(i, 0) is the zero locus of a section of the rank
    # t(d-i+1)(i+1) bundle, resolved by its Koszul complex
    for args in LASCOUX_GRID:
        t, d, i, r = args
        if r == 0:
            n = t * (d - i + 1) * (i + 1)
            assert _grid_table(args).ranks() == [math.comb(n, k) for k in range(n + 1)], args


def test_lascoux_ranks_alternate_to_zero():
    # a resolution of O_Le with codim > 0 has Euler characteristic rank 0
    for args in LASCOUX_GRID:
        ranks = _grid_table(args).ranks()
        if len(ranks) > 1:
            assert sum((-1) ** k * x for k, x in enumerate(ranks)) == 0, args


def test_expected_codim():
    assert expected_codim(2, 7, 5, 4) == 4
    assert expected_codim(2, 5, 2, 2) == 6


def test_c2_witness_lemma():
    # the witness realises H(A, i-1) = i and H(A, i) <= r exactly when C2
    for (t, d, i, r) in [(2, 7, 5, 4), (3, 16, 13, 11), (2, 13, 9, 8)]:
        h = c2_witness_hf(t, d, i, r)
        assert is_level_hf(h) == (True, None)
        assert h[i - 1] == i and h[i] <= r
        assert h.t == t and h.d == d


def test_c2_witness_on_grid():
    # every (t <= 5, d <= 13, i, r) satisfying C2 has a level witness with
    # h_i <= r; where the uncapped ramp j + 1 is already level, the witness
    # is that sequence
    for t in range(1, 6):
        for d in range(max(t - 1, 1), 14):
            for i in range(d + 1):
                for r in range(i + 1):
                    if r - (d - i) * (i - r) < t:
                        continue
                    h = c2_witness_hf(t, d, i, r)
                    assert is_level_hf(h) == (True, None)
                    assert h[i] <= r and h.t == t and h.d == d
                    ramp = [j + 1 if j < i else h[j] for j in range(d + 1)]
                    if is_level_sequence(ramp)[0]:
                        assert h.values == tuple(ramp)


def test_c2_witness_ramp_is_capped():
    # the uncapped ramp 1,2,3,4,5 exceeds t(d-j+1) = 4 at j = 4; r = 3 would
    # exceed t(d-i+1) = 2, which c1_c2_analysis rejects
    rep = c1_c2_analysis(2, 5, 5, 2)
    assert rep.c2_holds
    assert rep.c2_witness.values == (1, 2, 3, 4, 4, 2)


@functools.cache
def _level_values(t, d):
    return tuple(h.values for h in enumerate_level_hf(t, d))


def _maximal_by_quadratic_scan(t, d, i, r):
    """Admissible functions that no other one dominates, by comparing every
    pair of level Hilbert functions of type (t, d) with h_i <= r."""
    admissible = [h for h in _level_values(t, d) if h[i] <= r]
    return [h for h in admissible
            if not any(o != h and all(a >= b for a, b in zip(o, h))
                       for o in admissible)]


def test_maximal_pass_matches_quadratic_scan():
    # r up to the rank bound min(t(d-i+1), i); above it c1_c2_analysis raises
    # t up to 8 reaches parts up to K = t + 1 = 9; past t = 5, d stops at 12
    cases = [(t, d, i, r)
             for t in range(1, 9) for d in range(max(t - 1, 1), 15 if t <= 5 else 13)
             for i in range(d + 1) for r in range(min(t * (d - i + 1), i) + 1)]
    for args in cases + [(4, 20, 15, 12), (5, 24, 18, 14), (5, 32, 28, 24)]:
        got = [h.values for h, _, _ in c1_c2_analysis(*args).candidates]
        assert got == _maximal_by_quadratic_scan(*args), args
        assert len(got) <= args[0], args


def test_components_never_enumerate_level_hf(monkeypatch):
    # the candidates come from the partition side of the bijection; 931
    # level Hilbert functions of type (5, 32) are never built
    def refuse(t, d):
        raise AssertionError(f"enumerate_level_hf({t}, {d}) called")

    monkeypatch.setattr(levelhf, "enumerate_level_hf", refuse)
    monkeypatch.setattr(resolution, "enumerate_level_hf", refuse, raising=False)
    rep = c1_c2_analysis(5, 32, 28, 24)
    assert [h.values for h, _, _ in rep.candidates] == [
        tuple(range(1, 29)) + (24, 20, 15, 10, 5)
    ]


def test_components_2754():
    rep = c1_c2_analysis(2, 7, 5, 4)
    assert rep.c2_holds and not rep.c2_strict
    assert rep.expected_codim == 4 and rep.c1_holds
    hfs = sorted(h.values for h, _, _ in rep.candidates)
    assert hfs == [
        (1, 2, 3, 4, 4, 4, 4, 2),
        (1, 2, 3, 4, 5, 4, 3, 2),
    ]
    assert all(codim == 4 for _, _, codim in rep.candidates)


def test_components_family_3i_2d1_at_9_13():
    rep = c1_c2_analysis(2, 13, 9, 8)
    assert rep.c2_holds and rep.c2_strict and rep.c1_holds
    hfs = sorted(h.values for h, _, _ in rep.candidates)
    assert hfs == [
        (1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 6, 4, 2),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 4, 2),
    ]
    assert [dim for _, dim, _ in rep.candidates] == [20, 20]  # 3i - 7


def test_components_3_14_11_9_c1_fails():
    rep = c1_c2_analysis(3, 14, 11, 9)
    assert rep.c2_holds
    dims = sorted(dim for _, dim, _ in rep.candidates)
    assert dims == [27, 27, 28]
    assert not rep.c1_holds


def test_components_3_16_13_11_strict():
    rep = c1_c2_analysis(3, 16, 13, 11)
    assert rep.c2_holds and rep.c2_strict
    assert len(rep.candidates) == 1
    h, dim, codim = rep.candidates[0]
    assert h.values == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 11, 9, 6, 3)
    assert codim == 3 and rep.c1_holds


def test_components_5_32_28_24_strict():
    rep = c1_c2_analysis(5, 32, 28, 24)
    assert rep.c2_holds and rep.c2_strict
    assert len(rep.candidates) == 1
    h, _, _ = rep.candidates[0]
    assert h.values == tuple(
        list(range(1, 29)) + [24, 20, 15, 10, 5]
    )


def test_e1_table_2754_vanishing():
    for m in (0, 1, 2):
        table = e1_vanishing_table(2, 7, 5, 4, m, cap_weight=12)
        assert not table.truncated
        assert all(q == 0 for (_, q) in table.entries)


def test_e1_table_2754_h0_entries():
    # (0, 0) entries are the Pluecker section counts of O(m) on G(2, C^8)
    for m, expect in [(0, 1), (1, 28), (2, 336)]:
        table = e1_vanishing_table(2, 7, 5, 4, m, cap_weight=12)
        assert table.entries.get((0, 0), 0) == expect


def test_e1_table_t1_negative_twist():
    # t = 1: all nonzero entries sit in the top cohomological degree
    dim_g = grassmannian_dim(1, 4)
    for m in (-1, -2, -5, -7):
        table = e1_vanishing_table(1, 4, 2, 2, m, cap_weight=12)
        for (_, q) in table.entries:
            assert q == dim_g
    # and some twist produces an actually nonzero table
    table = e1_vanishing_table(1, 4, 2, 2, -5, cap_weight=12)
    assert table.entries


def _e1_by_every_triple(t, d, i, r, m, cap):
    """E1 entries by Kronecker coefficients, the route e1_vanishing_table
    took before it read them off the Schur-class kernel: every rho with
    nonzero Bott cohomology, every mu of the box, and the public kronecker
    on each triple."""
    mu_rows = d - i + 1
    entries = {}
    for p, summands in lascoux_ranks(t, d, i, r).terms.items():
        for s in summands:
            w = sum(s.lam)
            if w > cap:
                continue
            for rho in partitions_in_box(t, w, w):
                res = schur_sub_twist_cohomology(t, d + 1, rho, m)
                if res.is_zero:
                    continue
                for mu in partitions_in_box(mu_rows, w, w):
                    c = kronecker(s.lam, rho, mu, cap=cap)
                    if c:
                        key = (p, res.degree)
                        entries[key] = entries.get(key, 0) + \
                            s.bott_dim * c * schur_dim(mu, mu_rows) * res.dimension
    return entries


def _e1_by_plethysm(t, d, i, r, m, cap):
    """E1 entries with no Kronecker coefficient: for each summand lam, the
    sum over mu of g(lam, rho, mu) dim S_mu(k^{d-i+1}) is the coefficient
    c_rho of s_rho(x_1..x_t) in s_lam[(d-i+1)X]."""
    entries = {}
    for p, summands in lascoux_ranks(t, d, i, r).terms.items():
        for s in summands:
            if sum(s.lam) > cap:
                continue
            for rho, c in plethystic_schur_coefficients(s.lam, t, d - i + 1).items():
                res = schur_sub_twist_cohomology(t, d + 1, rho, m)
                if not res.is_zero:
                    key = (p, res.degree)
                    entries[key] = entries.get(key, 0) + s.bott_dim * c * res.dimension
    return entries


@pytest.mark.parametrize("args, cap", [
    ((2, 7, 4, 3), 16), ((2, 7, 5, 4), 14), ((2, 6, 4, 3), 12), ((2, 8, 6, 5), 12),
    ((2, 7, 5, 4), 12),  # the golden e1-table argv
    ((1, 6, 2, 1), 12), ((3, 5, 3, 2), 12),  # len(mu) <= |lam & rho'| binds below d-i+1
])
def test_e1_matches_every_triple_and_plethysm(args, cap):
    # the Schur-class kernel against the Kronecker coefficients of every
    # triple, and the block-branching plethysm, which computes neither
    for m in (-1, 0, 1):
        table = e1_vanishing_table(*args, m, cap_weight=cap)
        assert table.entries == _e1_by_every_triple(*args, m, cap) == \
            _e1_by_plethysm(*args, m, cap), m


def test_e1_complete_tables():
    # cap 24 is above every box weight: nothing is truncated
    table = e1_vanishing_table(2, 9, 6, 4, 0, cap_weight=24)
    assert not table.truncated
    assert table.entries == {(-12, 16): 28875, (-11, 16): 27720, (-10, 16): 5740,
                             (-9, 16): 200, (0, 0): 1}
    assert table.entries == _e1_by_plethysm(2, 9, 6, 4, 0, 24)
    table = e1_vanishing_table(2, 7, 4, 3, 0, cap_weight=24)
    assert not table.truncated
    assert table.entries == {(-10, 12): 175, (0, 0): 1}
    # recorded from the Kronecker route, which took seconds on these
    table = e1_vanishing_table(2, 10, 7, 4, 0, cap_weight=32)
    assert not table.truncated
    assert table.entries == {(-16, 18): 1002001, (-15, 18): 10602592, (-14, 18): 18712848,
                             (-13, 18): 11958144, (-12, 18): 3279540, (-11, 18): 353760,
                             (-10, 18): 8208, (0, 0): 1}
    table = e1_vanishing_table(3, 7, 5, 3, 0, cap_weight=27)
    assert not table.truncated
    assert table.entries == {(-18, 15): 54880, (-17, 15): 123480, (-16, 15): 76608,
                             (-15, 15): 12243, (-11, 10): 51408, (-10, 10): 77112,
                             (-9, 10): 33180, (-8, 10): 3240, (0, 0): 1}


def test_e1_negative_cap_is_rejected():
    # a negative cap used to skip the weight-0 term and print no entries
    with pytest.raises(LevelAlgError, match=r"^need a weight cap >= 0, got -1$"):
        e1_vanishing_table(2, 7, 4, 3, 0, cap_weight=-1)


def test_e1_table_truncation_notice():
    table = e1_vanishing_table(2, 7, 5, 4, 0, cap_weight=5)
    assert table.truncated
    assert all(w > 5 for w in table.truncated_weights)


@pytest.mark.parametrize("cap", [0, 3, 6])
def test_e1_reads_the_truncated_weights_off_the_shapes(cap):
    # only survivors at or below the cap are built; the skipped weights are
    # exactly those of the full table's heavier survivors
    for args in LASCOUX_GRID:
        if args[0] <= 2:
            weights = {sum(s.lam) for v in _grid_table(args).terms.values() for s in v}
            table = e1_vanishing_table(*args, 0, cap_weight=cap)
            assert table.truncated_weights == tuple(sorted(w for w in weights if w > cap)), args
            assert resolution._survivors(*args, weight_cap=cap) == \
                [x for x in resolution._survivors(*args) if sum(x[0]) <= cap], args


def test_e1_capped_table_of_a_large_box():
    # 167,960 survivors, of which the 76 of weight <= 10 are built
    assert len(resolution._survivors(3, 12, 9, 1, weight_cap=10)) == 76
    table = e1_vanishing_table(3, 12, 9, 1, 0)
    assert table.entries == {(0, 0): 1}
    assert table.truncated_weights == tuple(range(11, 109))


def test_c1_c2_requires_r_below_i_plus_one():
    with pytest.raises(LevelAlgError):
        c1_c2_analysis(2, 7, 5, 6)
    with pytest.raises(LevelAlgError, match=r"need 0 <= r < i \+ 1, got r = -5, i = 1"):
        c1_c2_analysis(2, 3, 1, -5)


def test_product_index_above_d_is_rejected():
    # the product map R_{d-i} (x) Lambda -> S_i needs i <= d
    from levelalg.schubert import porteous_class

    for call in (lambda: lascoux_ranks(2, 5, 9, 1),
                 lambda: e1_vanishing_table(2, 5, 9, 1, 0),
                 lambda: porteous_class(2, 5, 9, 1),
                 lambda: c1_c2_analysis(2, 5, 9, 1)):
        with pytest.raises(LevelAlgError, match="i = 9, d = 5"):
            call()


def test_negative_product_index_is_rejected():
    from levelalg.schubert import porteous_class

    for call in (lambda: lascoux_ranks(2, 5, -1, 0),
                 lambda: porteous_class(2, 5, -1, 0),
                 lambda: c1_c2_analysis(2, 5, -1, -1)):
        with pytest.raises(LevelAlgError, match="i = -1, d = 5"):
            call()


def test_rank_bound_above_the_source_rank_is_rejected():
    # r > t(d-i+1), the rank of R_{d-i} (x) Lambda: one message from all four
    from levelalg.schubert import porteous_class

    for call in (lambda: lascoux_ranks(1, 2, 2, 2),
                 lambda: e1_vanishing_table(1, 2, 2, 2, 0),
                 lambda: porteous_class(1, 2, 2, 2),
                 lambda: c1_c2_analysis(1, 2, 2, 2)):
        with pytest.raises(LevelAlgError, match=r"^rank bound 2 outside 0\.\.min\(1,3\)$"):
            call()


def test_rank_locus_computations_reject_exactly_outside_their_domain():
    # Le(i, r) on G(t, S_d): porteous_class needs 0 <= i <= d,
    # 1 <= t <= d + 1 and 0 <= r <= min(t(d - i + 1), i + 1); the other
    # three also need r < i + 1
    from levelalg.schubert import porteous_class

    def e1_table(t, d, i, r):
        return e1_vanishing_table(t, d, i, r, 0, cap_weight=6)

    for t in range(5):
        for d in range(5):
            for i in range(-1, d + 2):
                for r in range(-1, i + 3):
                    porteous_domain = (0 <= i <= d and 1 <= t <= d + 1
                                       and 0 <= r <= min(t * (d - i + 1), i + 1))
                    for call, domain in ((porteous_class, porteous_domain),
                                         (lascoux_ranks, porteous_domain and r < i + 1),
                                         (c1_c2_analysis, porteous_domain and r < i + 1),
                                         (e1_table, porteous_domain and r < i + 1)):
                        try:
                            call(t, d, i, r)
                            raised = False
                        except LevelAlgError:
                            raised = True
                        assert raised != domain, (call.__name__, t, d, i, r)


def test_le32_on_25_fails_c1():
    # expected codimension 8, actual component codimension 6: the class
    # formula is inapplicable here
    rep = c1_c2_analysis(2, 5, 3, 2)
    assert rep.expected_codim == 8
    assert [codim for _, _, codim in rep.candidates] == [6]
    assert not rep.c1_holds


def test_sigma_loci_on_25_have_single_candidates():
    for i, r, expect in [(2, 2, (1, 2, 2, 2, 2, 2)),
                         (4, 2, (1, 2, 2, 2, 2, 2)),
                         (3, 3, (1, 2, 3, 3, 3, 2))]:
        rep = c1_c2_analysis(2, 5, i, r)
        assert rep.c1_holds
        assert [h.values for h, _, _ in rep.candidates] == [expect]
