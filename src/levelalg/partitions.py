"""Partition combinatorics and polynomial-functor dimensions.

Partitions are tuples of weakly decreasing positive integers; the empty
tuple is the empty partition.  Dimensions of Schur functors come in two
independent flavours (hook content and Weyl), which the test suite plays
against each other.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

from .errors import InvalidPartitionError, LevelAlgError


def check_partition(lam) -> tuple[int, ...]:
    lam = tuple(int(p) for p in lam if int(p) != 0)
    if any(p < 0 for p in lam):
        raise InvalidPartitionError(f"negative part in {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InvalidPartitionError(f"{lam} is not weakly decreasing")
    return lam


def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n (none for n < 0), in descending lexicographic order."""
    return partitions_in_box(n, n, n)


@lru_cache(maxsize=None)
def partitions_in_box(rows: int, cols: int, weight: int | None = None) -> tuple:
    """Partitions with at most `rows` parts, each at most `cols`: with no
    weight, all of them depth first from the empty partition; otherwise
    those of that weight (none if negative), descending lexicographic."""

    def gen(r, maxpart, left):
        if left is None or left == 0:
            yield ()
        if r == 0 or (left is not None and left <= 0):
            return
        # with a weight, the first part must leave at most (r - 1) * first
        firsts = (range(maxpart, 0, -1) if left is None
                  else range(min(maxpart, left), (left - 1) // r, -1))
        for first in firsts:
            for rest in gen(r - 1, first, None if left is None else left - first):
                yield (first,) + rest

    return tuple(gen(rows, cols, weight))


def conjugate(lam) -> tuple[int, ...]:
    lam = check_partition(lam)
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0))


def schur_dim(lam, n: int) -> int:
    """dim of the Schur functor on an n-dimensional space: hook content."""
    lam = check_partition(lam)
    if len(lam) > n:
        return 0
    conj = conjugate(lam)
    num, den = 1, 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= row - j + conj[j] - i - 1  # the hook length at (i, j)
    if num % den:
        raise LevelAlgError("internal bug: hook content quotient is not an integer")
    return num // den


def weyl_dim(weight, n: int) -> int:
    """Weyl dimension formula for a weakly decreasing GL(n) weight.

    Works for arbitrary integer weights (negative entries allowed, i.e.
    rational representations); the weight is padded with zeros to length n.
    """
    w = list(weight) + [0] * (n - len(weight))
    if len(w) > n:
        raise InvalidPartitionError(f"weight {weight} too long for GL({n})")
    if any(w[i] < w[i + 1] for i in range(n - 1)):
        raise InvalidPartitionError(f"weight {tuple(weight)} is not dominant")
    return _weyl_dim(w, n)


def _weyl_dim(weight, n: int) -> int:
    """weyl_dim without its checks: weight is dominant with at most n
    entries, zeros implied past its end.  A pair of rows both past the end
    contributes (q - p) / (q - p), so only the pairs with p < len(weight)
    are multiplied."""
    k = len(weight)
    shifted = [w - j for j, w in enumerate(weight)] + list(range(-k, -n, -1))
    num = prod(a - b for p, a in enumerate(shifted[:k]) for b in shifted[p + 1:])
    return num // prod(map(factorial, range(n - k, n)))  # the product of the q - p


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    try:
        parts = tuple(int(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise InvalidPartitionError(f"bad partition string {text!r}") from exc
    return check_partition(parts)
