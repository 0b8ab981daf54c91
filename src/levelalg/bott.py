"""Bott's algorithm for homogeneous bundles on Grassmannians.

A weight sequence gamma for GL(N) (weakly decreasing inside each flag
block) either has vanishing cohomology in every degree or nonzero
cohomology in exactly one degree q: add the staircase delta = (N-1, ..., 0);
a repeated value means ZERO; otherwise q is the number of inversions and
the cohomology is the GL(N)-representation of the sorted weight minus
delta, whose dimension the Weyl formula gives.

On G(k, C^N) with tautological subbundle B and quotient Q, the weight of
S_a(Q) (x) S_b(B) is the concatenation (a; b) with the Q block first; the
Pluecker line O(1) is det Q, i.e. O(m) contributes m's on the Q block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LevelAlgError
from .partitions import check_partition, weyl_dim


@dataclass(frozen=True)
class BottResult:
    """Either ZERO (degree None) or cohomology in a single degree."""

    degree: int | None
    dimension: int
    weight: tuple | None

    @property
    def is_zero(self) -> bool:
        return self.degree is None


ZERO = BottResult(None, 0, None)


def bott_cohomology(gamma, blocks=None) -> BottResult:
    """Run Bott's algorithm on a full GL(N) weight sequence.

    `blocks`, when given, lists the flag block sizes; the sequence must be
    weakly decreasing inside each block (a hard error otherwise, since it
    would not define a homogeneous bundle).
    """
    gamma = [int(g) for g in gamma]
    n = len(gamma)
    if blocks is not None:
        if sum(blocks) != n:
            raise LevelAlgError(f"blocks {blocks} do not sum to the weight length {n}")
        pos = 0
        for b in blocks:
            block = gamma[pos:pos + b]
            if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
                raise LevelAlgError(
                    f"weight {block} is not weakly decreasing within its block"
                )
            pos += b
    delta = list(range(n - 1, -1, -1))
    v = [g + d for g, d in zip(gamma, delta)]
    if len(set(v)) < n:
        return ZERO
    inversions = sum(
        1 for p in range(n) for q in range(p + 1, n) if v[p] < v[q]
    )
    sorted_v = sorted(v, reverse=True)
    weight = tuple(x - d for x, d in zip(sorted_v, delta))
    return BottResult(inversions, weyl_dim(weight, n), weight)


def schur_sub_twist_cohomology(t: int, big_n: int, rho, m: int) -> BottResult:
    """Cohomology of S_rho(B) (x) O(m) on G(t, C^N).

    Zero as a bundle (hence ZERO) when rho has more than t parts.  The
    weight is (m, ..., m) on the rank N-t quotient block followed by rho on
    the subbundle block.
    """
    rho = check_partition(rho)
    if len(rho) > t:
        return ZERO
    gamma = [m] * (big_n - t) + list(rho) + [0] * (t - len(rho))
    return bott_cohomology(gamma, blocks=(big_n - t, t))

