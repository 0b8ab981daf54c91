"""The resolution machinery for the rank loci Le(i, r) in G(t, S_d).

Three computations live here: the term-by-term ranks of the locally free
resolution of O_{Le} (Lascoux's closed form: each surviving box partition
gives a degree and two Schur-functor dimensions, see Weyman, "Cohomology
of Vector Bundles and Syzygies", 6.1), the C1/C2 hypothesis analysis with
candidate component lists, and the E1 page of the twisted hypercohomology
spectral sequence: each summand's plethysm read off the Schur-class
kernel of `schubert`, plus Bott on the outer Grassmannian.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bott import schur_sub_twist_cohomology
from .errors import CapExceededError, LevelAlgError
from .kronecker import DEFAULT_WEIGHT_CAP
from .levelhf import (
    HilbertFunction,
    _check_type,
    _hf_values,
    dim_stratum,
    grassmannian_dim,
    is_level_sequence,
)
from .partitions import _weyl_dim, conjugate, partitions_in_box
from .schubert import _check_index, _check_rank_bound, _schur_of_copies

# lascoux_ranks enumerates only the partitions whose Bott cohomology survives;
# the 10 x 10 box at r = 0, C(20, 10) = 184,756 of them, is the largest
# square one under this cap.
PARTITION_CAP = 200_000
# The largest partition box lascoux_ranks accepts, in cells.
CELL_CAP = 400


def expected_codim(t: int, d: int, i: int, r: int) -> int:
    """The degeneracy-locus codimension bound (t(d-i+1) - r)(i+1 - r)."""
    return (t * (d - i + 1) - r) * (i + 1 - r)


@dataclass(frozen=True)
class ResolutionSummand:
    """One summand of a resolution term: the box partition lam, the rank
    dim S_lam(k^R) of its Schur factor, and the degree r*s and dimension
    dim S_mu(k^{i+1}) of its cohomology factor H(G(r, S_i), S_{lam'}(Q*)),
    both in Lascoux's closed form (see lascoux_ranks; Weyman, 6.1); and its
    rank, the product of the two dimensions."""

    lam: tuple
    schur_rank: int
    bott_degree: int
    bott_dim: int
    rank: int


@dataclass(frozen=True)
class ResolutionTable:
    """Ranks and summands of the terms E^p, p = -c..0."""

    t: int
    d: int
    i: int
    r: int
    codim: int
    terms: dict  # p -> tuple of ResolutionSummand

    def rank(self, p: int) -> int:
        return sum(s.rank for s in self.terms.get(p, ()))

    def ranks(self) -> list[int]:
        """Ranks of E^0, E^{-1}, ..., E^{-c}."""
        return [self.rank(-k) for k in range(self.codim + 1)]


def lascoux_ranks(t: int, d: int, i: int, r: int) -> ResolutionTable:
    """Terms of the resolution of O_{Le(i,r)}, assuming expected codimension.

    Partitions lambda run over the box with R = t(d-i+1) rows and
    C = i-r+1 columns; each contributes in homological degree
    p = nu(lam') - |lam| the rank dim S_lam(k^R) times the dimension of the
    cohomology of S_{lam'}(Q*) on G(r, S_i).  With lam' padded to C parts
    and indexed from 1, that cohomology is nonzero exactly when some s has
    lam'_s >= s + r and lam'_{s+1} <= s; it then sits in degree r*s and
    is S_mu(k^{i+1}) with mu = (lam'_1 - r, ..., lam'_s - r, s^r,
    lam'_{s+1}, ...) (Lascoux, "Syzygies des varietes determinantales",
    Adv. Math. 30 (1978); Weyman, "Cohomology of Vector Bundles and
    Syzygies", 6.1).  Such a lam' is an s x (s+r) block, a partition
    alpha of at most s parts of size at most R-s-r to its right and one,
    beta, of at most C-s parts of size at most s below it, so only these
    C(R-r+C, C) survivors are enumerated, in the order of
    partitions_in_box(R, C).  A box over CELL_CAP cells, or with more
    than PARTITION_CAP survivors, raises CapExceededError before any is
    enumerated.  The domain is _check_locus's.
    """
    return _resolution_table(t, d, i, r, _survivors(t, d, i, r))


def _survivors(t: int, d: int, i: int, r: int, weight_cap: int | None = None) -> list[tuple]:
    """(lam, mu, s) for the survivors of lascoux_ranks's box, in the order
    of partitions_in_box(R, C), with the checks and caps lascoux_ranks
    documents; with a weight cap, only the survivors no heavier than it,
    so that alpha and beta are built weight by weight up to what is left.
    Both are blocks (s + a_1, ..., s + a_s, s^r, b), a padded to s parts
    and empty for s = 0: mu = (alpha; beta), and lam, the conjugate of lam',
    = (beta'; alpha'), from conjugates taken once per small box."""
    rows_bound, f = _check_locus(t, d, i, r)
    cols_bound = f - r
    if rows_bound * cols_bound > CELL_CAP:
        raise CapExceededError(
            f"partition box {rows_bound} x {cols_bound} exceeds the cell cap {CELL_CAP}"
        )
    count = comb(rows_bound - r + cols_bound, cols_bound)
    if count > PARTITION_CAP:
        raise CapExceededError(
            f"partition box {rows_bound} x {cols_bound} holds {count} non-vanishing "
            f"partitions, more than the partition cap {PARTITION_CAP}"
        )

    def upto(rows, cols, weight):
        if weight is None or weight >= rows * cols:
            return partitions_in_box(rows, cols)
        return [p for w in range(weight + 1) for p in partitions_in_box(rows, cols, w)]

    def block(s, a):
        return tuple(s + x for x in a) + (s,) * (s + r - len(a)) if s else ()

    survivors = []
    for s in range(min(cols_bound, rows_bound - r) + 1):
        left = None if weight_cap is None else weight_cap - s * (s + r)
        betas = [(beta, block(s, conjugate(beta)), sum(beta))
                 for beta in upto(cols_bound - s, s, left)]
        for alpha in upto(s, rows_bound - s - r, left):
            lam_tail, mu_head = conjugate(alpha), block(s, alpha)
            room = (cols_bound - s) * s if left is None else left - sum(alpha)
            survivors.extend((lam_head + lam_tail, mu_head + beta, s)
                             for beta, lam_head, weight in betas if weight <= room)
    # descending lexicographic, a prefix before its extensions: no part exceeds cols_bound
    survivors.sort(key=lambda survivor: survivor[0] + (cols_bound + 1,), reverse=True)
    return survivors


def _check_locus(t: int, d: int, i: int, r: int) -> tuple[int, int]:
    """_check_rank_bound's (e, f) after 0 <= i <= d, 0 <= r < i + 1 and the
    type, in that order: the one check of the rank-locus domain."""
    _check_index(d, i)
    if not 0 <= r < i + 1:
        raise LevelAlgError(f"need 0 <= r < i + 1, got r = {r}, i = {i}")
    _check_type(t, d)
    return _check_rank_bound(t, d, i, r)


def _resolution_table(t: int, d: int, i: int, r: int, survivors) -> ResolutionTable:
    """The terms of the survivors (lam, mu, s): dim S_lam(k^R) times
    dim S_mu(k^{i+1}) in homological degree p = r*s - |lam|
    = -(s^2 + |alpha| + |beta|), which lies in [-c, 0] since
    c + p >= (R-r)C - s(R-r-s) - s(C-s) - s^2 = (R-r-s)(C-s) >= 0."""
    c = expected_codim(t, d, i, r)
    rows_bound = t * (d - i + 1)
    terms: dict[int, list[ResolutionSummand]] = {}
    for lam, mu, s in survivors:
        schur, bott = _weyl_dim(lam, rows_bound), _weyl_dim(mu, i + 1)
        summand = ResolutionSummand(lam, schur, r * s, bott, schur * bott)
        terms.setdefault(r * s - sum(lam), []).append(summand)
    return ResolutionTable(t, d, i, r, c,
                           {p: tuple(v) for p, v in terms.items()})


@dataclass(frozen=True)
class ComponentReport:
    """C1/C2 analysis of Le(i, r).

    Candidate components are the strata of maximal level Hilbert functions
    (under componentwise domination) among those with h_i <= r.  Reading
    them as the irreducible components of Le(i, r) reproduces every worked
    case, but is an assumption, hence `candidates`, not `components`.
    """

    t: int
    d: int
    i: int
    r: int
    c2_holds: bool
    c2_strict: bool
    c2_witness: HilbertFunction | None
    expected_codim: int
    candidates: tuple  # of (HilbertFunction, dim, codim)
    c1_holds: bool


def c2_witness_hf(t: int, d: int, i: int, r: int) -> HilbertFunction:
    """The level Hilbert function built from C2: the ramp min{j+1, t(d-j+1)}
    to degree i-1, then min{r - (j-i)(i-r), t(d-j+1)}.

    The ramp is capped by the maximal Hilbert function of `minmax_hf`;
    uncapped, it exceeds t(d-j+1) when i is close to d.  Where the cap
    bites below i, the witness no longer has h_{i-1} = i: for r <= t(d-i+1)
    that is i = d, r = t with d > 2t, e.g. (2, 5, 5, 2) gives 1,2,3,4,4,2,0.
    """
    values = []
    for j in range(d + 1):
        if j <= i - 1:
            values.append(min(j + 1, t * (d - j + 1)))
        else:
            values.append(min(r - (j - i) * (i - r), t * (d - j + 1)))
    ok, idx = is_level_sequence(values)
    if not ok:
        raise LevelAlgError(f"internal bug: C2 witness fails concavity at {idx}")
    return HilbertFunction.from_values(values)


def c1_c2_analysis(t: int, d: int, i: int, r: int) -> ComponentReport:
    """Evaluate the numerical hypotheses C1 and C2 for Le(i, r).

    C2 is the inequality r - (d-i)(i-r) >= t; when it holds the witness
    Hilbert function is attached.  C2 is read off the inequality alone,
    also where the witness misses h_{i-1} = i (see c2_witness_hf).  C1 is
    reported as: every candidate component has codimension equal to the
    degeneracy bound.  The domain is _check_locus's.

    The candidates are built from their partitions alone, without
    enumerating the level Hilbert functions of type (t, d): see
    _maximal_admissible for the route and its proof.
    """
    _check_locus(t, d, i, r)
    c2_value = r - (d - i) * (i - r)
    c2 = c2_value >= t
    witness = c2_witness_hf(t, d, i, r) if c2 else None
    bound = expected_codim(t, d, i, r)
    dim_g = grassmannian_dim(t, d)
    maximal = map(HilbertFunction, _maximal_admissible(t, d, i, r))
    candidates = tuple(
        (h, dim_stratum(h), dim_g - dim_stratum(h)) for h in maximal
    )
    c1 = bool(candidates) and all(codim == bound for _, _, codim in candidates)
    return ComponentReport(t, d, i, r, c2, c2_value > t, witness, bound,
                           candidates, c1)


def _greedy(total: int, cap: int) -> tuple[int, ...]:
    """The dominance-largest partition of total into parts at most cap >= 1."""
    q, x = divmod(total, cap)
    return (cap,) * q + ((x,) if x else ())


def _maximal_admissible(t: int, d: int, i: int, r: int) -> list[tuple[int, ...]]:
    """The values of the level Hilbert functions of type (t, d) with
    h_i <= r that no other one dominates, lexicographically ascending.

    With h_{d-k} = t + mu_1 + ... + mu_k - k, h dominates h' componentwise
    exactly when mu dominates mu' (Macdonald, Symmetric Functions, I.1),
    and with m = d-i, h_i <= r reads mu_1 + ... + mu_m <= B = r-t+m: the
    admissible mu form a down-set of partitions of N = d-t+1 into parts at
    most K = t+1.  If the largest one, greedy(N, K), is admissible, it is
    the one candidate.  Otherwise B < min(N, mK), and a maximal mu has
    mu_1 + ... + mu_m = B: with less, some row j <= m is below K and some
    row below m is not empty, and moving the last box of the last row to
    the first row below K keeps mu admissible and dominates it.  So mu is
    a prefix alpha of B in m positive parts (there is none if B < m) above
    a tail of N-B in parts at most f = alpha_m.  Replacing alpha by the
    largest partition alpha^f of B into m parts between f and K, and then
    the tail by greedy(N-B, alpha^f_m), keeps mu admissible and dominates
    it: every candidate is one of these mu^f, 1 <= f <= B // m.  A floor
    f > N-B leaves the tail the one part N-B, as f = N-B does under the
    larger alpha^{N-B}, so f <= N-B.  For f < f' with alpha^f !=
    alpha^{f'}, alpha^f dominates alpha^{f'} strictly, and alpha^f_m < f'
    (else alpha^f would have the floor f' and be alpha^{f'}), so mu^{f'}
    is larger in row m+1: neither dominates the other, and the distinct
    mu^f are the candidates, at most B // m < K of them.
    """
    n, k, m = d - t + 1, t + 1, d - i
    bound = r - t + m
    top = _greedy(n, k)
    if sum(top[:m]) <= bound:
        return [_hf_values(top, d)]
    if bound < m:
        return []
    maximal = set()
    for f in range(1, min(n - bound, bound // m) + 1):
        raised = _greedy(bound - m * f, k - f)
        prefix = tuple(f + p for p in raised) + (f,) * (m - len(raised))
        maximal.add(_hf_values(prefix + _greedy(n - bound, prefix[-1]), d))
    return sorted(maximal)


@dataclass(frozen=True)
class E1Table:
    """Dimensions of the E1 page of the twisted hypercohomology spectral
    sequence, indexed by (p, q); absent keys are zero."""

    t: int
    d: int
    i: int
    r: int
    m: int
    entries: dict  # (p, q) -> positive dimension
    truncated_weights: tuple  # weights skipped because of the cap

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_weights)


def e1_vanishing_table(t: int, d: int, i: int, r: int, m: int,
                       cap_weight: int = DEFAULT_WEIGHT_CAP) -> E1Table:
    """E1^{p,q}(m) = H^q(G(t, S_d), E^p(m)) via plethysm plus Bott.

    Every box partition lambda decomposes S_lam(B (x) R_{d-i}) into
    summands S_rho(B) (x) S_mu(R_{d-i}) with Kronecker multiplicities
    g(lam, rho, mu).  Only c_rho = sum_mu g(lam, rho, mu) dim S_mu(k^{d-i+1})
    is needed, and that is the coefficient of s_rho(x_1, ..., x_t) in s_lam
    with each x_a repeated d-i+1 times (Macdonald, Symmetric Functions,
    I.4 and I.7): schubert._schur_of_copies on G(t, t + |lam|), whose box
    holds every rho of weight |lam| with at most t parts, so nothing is
    truncated.  That kernel computes no Kronecker or Littlewood-Richardson
    coefficient.  Bott on G(t, S_d) then locates the unique cohomology
    degree of S_rho(B)(m).  Partitions heavier than the weight cap are
    never built; their weights are reported in `truncated_weights`.  A
    negative cap is rejected.
    """
    if cap_weight < 0:
        raise LevelAlgError(f"need a weight cap >= 0, got {cap_weight}")
    table = _resolution_table(t, d, i, r, _survivors(t, d, i, r, weight_cap=cap_weight))
    # the survivors of each s weigh s(s+r) + |alpha| + |beta|, every weight
    # from s(s+r) to s(R+C-s): the skipped ones are read off that interval
    rows_bound, cols_bound = t * (d - i + 1), i + 1 - r
    skipped = sorted({w for s in range(min(cols_bound, rows_bound - r) + 1)
                      for w in range(max(cap_weight + 1, s * (s + r)),
                                     s * (rows_bound + cols_bound - s) + 1)})
    entries: dict[tuple[int, int], int] = {}
    # summand after summand meets the same rho: Bott runs once for each
    cohomology: dict = {}
    for p, summands in table.terms.items():
        for s in summands:
            plethysm = _schur_of_copies(s.lam, t, t + sum(s.lam), d - i + 1)
            for rho, c in plethysm.coeffs.items():
                res = cohomology.get(rho)
                if res is None:
                    res = cohomology[rho] = schur_sub_twist_cohomology(t, d + 1, rho, m)
                if not res.is_zero:
                    key = (p, res.degree)
                    entries[key] = entries.get(key, 0) + s.bott_dim * c * res.dimension
    return E1Table(t, d, i, r, m, entries, tuple(skipped))
