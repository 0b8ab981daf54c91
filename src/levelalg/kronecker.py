"""Symmetric-group characters and Kronecker coefficients.

Characters are computed by the Murnaghan-Nakayama rule on beta-sets
(first-column hook lengths): removing a border strip of length k from
lambda is subtracting k from one beta element so that the result is not
already in the set, with sign given by the number of elements jumped over.
The Kronecker coefficient is the class-weighted inner product of three
characters; everything is exact integer arithmetic.  Only the `kronecker`
subcommand computes one (see resolution.e1_vanishing_table).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import CapExceededError, LevelAlgError, WeightMismatchError
from .partitions import check_partition, partitions

DEFAULT_WEIGHT_CAP = 10


@lru_cache(maxsize=None)
def character(lam: tuple, mu: tuple) -> int:
    """chi_lambda evaluated on the conjugacy class of cycle type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise WeightMismatchError(f"{lam} and {mu} partition different integers")
    return _character(lam, mu)


@lru_cache(maxsize=None)
def _character(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama on partitions of equal weight, unchecked: every
    border-strip removal leaves a partition, so one check at the entry
    point covers the whole recursion."""
    if not lam:
        return 1
    k = mu[0]
    rest = mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]  # strictly decreasing
    beta_set = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        if b < k or (b - k) in beta_set:
            continue
        jumped = sum(1 for x in beta if b - k < x < b)
        new_beta = sorted((x if x != b else b - k for x in beta), reverse=True)
        new_lam = tuple(x - (ell - 1 - i) for i, x in enumerate(new_beta))
        new_lam = tuple(p for p in new_lam if p > 0)
        total += (-1) ** jumped * _character(new_lam, rest)
    return total


@lru_cache(maxsize=None)
def _z_mu(mu: tuple) -> int:
    """Order of the centraliser of a permutation of cycle type mu."""
    out = 1
    counts: dict[int, int] = {}
    for p in mu:
        counts[p] = counts.get(p, 0) + 1
    for k, m in counts.items():
        out *= factorial(m) * k ** m
    return out


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple:
    """The conjugacy classes of S_n, each with its size n! / z_class."""
    return tuple((cls, factorial(n) // _z_mu(cls)) for cls in partitions(n))


def kronecker(lam, rho, mu, cap: int = DEFAULT_WEIGHT_CAP) -> int:
    """Multiplicity of the trivial representation in R_lam (x) R_rho (x) R_mu.

    Symmetric in the three partitions.  The class-weighted sum runs over
    the p(n) conjugacy classes of S_n and reads three rows of the character
    table, each value computed on demand and cached across calls; chi_lam
    and chi_mu are read only where chi_rho is nonzero.  The weight cap
    guards the cost, which grows with p(n); raise it explicitly for larger
    weights.  The coefficient vanishes outside Dvir's support bounds
    (J. Algebra 154 (1993)); see dvir_bound_ok.
    """
    lam, rho, mu = check_partition(lam), check_partition(rho), check_partition(mu)
    n = sum(lam)
    if sum(rho) != n or sum(mu) != n:
        raise WeightMismatchError(
            f"weights differ: |{lam}| = {n}, |{rho}| = {sum(rho)}, |{mu}| = {sum(mu)}"
        )
    if n > cap:
        raise CapExceededError(
            f"weight {n} exceeds the cap {cap}; pass a larger cap explicitly"
        )
    total = 0
    for cls, size in _classes(n):
        x = _character(rho, cls)
        if x:
            total += size * x * _character(lam, cls) * _character(mu, cls)
    n_fact = factorial(n)
    if total % n_fact:
        raise LevelAlgError("internal bug: character sum is not divisible by n!")
    return total // n_fact


def diagram_intersection_size(lam, mu) -> int:
    """Number of cells common to the Young diagrams of lam and mu."""
    lam, mu = check_partition(lam), check_partition(mu)
    return sum(min(a, b) for a, b in zip(lam, mu))


def dvir_bound_ok(lam, rho, mu) -> bool:
    """Dvir's sharp support bound: rho_1 <= |lam intersect mu| whenever the
    Kronecker coefficient is nonzero (J. Algebra 154 (1993)).

    Its permutations and its conjugate form len(mu) <= |lam intersect rho'|
    hold too.  No library route applies it (see
    resolution.e1_vanishing_table).
    """
    lam, rho, mu = check_partition(lam), check_partition(rho), check_partition(mu)
    if not rho:
        return True
    return rho[0] <= diagram_intersection_size(lam, mu)
