"""Level Hilbert functions in two variables.

A sequence h_0..h_d with h_0 = 1 and h_d = t is the Hilbert function of an
artin level algebra of type (t, d) in k[x1, x2] exactly when it is concave:
2 h_i >= h_{i-1} + h_{i+1} for every 0 <= i <= d, reading h as 0 outside
[0, d].  This module owns that test, the e- and q-sequences, the
Hilbert-Burch witness ideal, the bijection with partitions of d - t + 1
with parts at most t + 1, enumeration, and the stratum dimension formula
sum e_i h_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

from .errors import InvalidPartitionError, LevelAlgError, MalformedSequenceError
from .forms import Form
from .partitions import partitions_in_box


@dataclass(frozen=True)
class HilbertFunction:
    """h_0..h_d with h_0 = 1 and h_d = t >= 1; zero outside by convention."""

    values: tuple[int, ...]

    def __post_init__(self):
        v = self.values
        if not v:
            raise MalformedSequenceError("empty sequence")
        if v[0] != 1:
            raise MalformedSequenceError(f"h_0 must be 1, got {v[0]}")
        if v[-1] < 1:
            raise MalformedSequenceError("h_d must be positive (trailing zeros are stripped)")
        if any(x < 0 for x in v):
            raise MalformedSequenceError("negative entries")

    @staticmethod
    def from_values(values) -> HilbertFunction:
        vals = [int(x) for x in values]
        while vals and vals[-1] == 0:
            vals.pop()
        return HilbertFunction(tuple(vals))

    @staticmethod
    def parse(text: str) -> HilbertFunction:
        try:
            vals = [int(p.strip()) for p in text.split(",") if p.strip() != ""]
        except ValueError as exc:
            raise MalformedSequenceError(f"bad Hilbert function string {text!r}") from exc
        return HilbertFunction.from_values(vals)

    @property
    def d(self) -> int:
        return len(self.values) - 1

    @property
    def t(self) -> int:
        return self.values[-1]

    def __getitem__(self, i: int) -> int:
        if 0 <= i <= self.d:
            return self.values[i]
        return 0

    def format(self) -> str:
        """Comma list with the conventional trailing zero, e.g. 1,2,2,0."""
        return ",".join(str(x) for x in self.values) + ",0"

    def __str__(self) -> str:
        return self.format()


def is_level_sequence(values) -> tuple[bool, int | None]:
    """Concavity test: (True, None) or (False, first failing index).

    Endpoint malformation raises, as HilbertFunction does; a concavity
    failure is a negative but valid answer.
    """
    return is_level_hf(HilbertFunction.from_values(values))


def is_level_hf(h: HilbertFunction) -> tuple[bool, int | None]:
    idx = _second_differences(h)[1]
    return idx is None, idx


def _second_differences(h: HilbertFunction) -> tuple[tuple[int, ...], int | None]:
    """(2h_i - h_{i-1} - h_{i+1} for 0 <= i <= d, the first i where it is
    negative or None): the one place concavity is computed."""
    padded = (0, *h.values, 0)
    es = tuple(2 * padded[i + 1] - padded[i] - padded[i + 2] for i in range(h.d + 1))
    return es, next((i for i, e in enumerate(es) if e < 0), None)


def e_sequence(h: HilbertFunction) -> tuple[int, ...]:
    """Minimal generator counts e_1..e_{d+1}: e_{i+1} = 2h_i - h_{i-1} - h_{i+1}.
    MalformedSequenceError unless h is level: the one level check."""
    es, idx = _second_differences(h)
    if idx is not None:
        raise MalformedSequenceError(
            f"{h.format()} is not a level Hilbert function (fails at i={idx})"
        )
    return es


def q_sequence(h: HilbertFunction) -> tuple[int, ...]:
    """Generator degrees q_1 <= ... <= q_{t+1}; degree i occurs e_i times."""
    es = e_sequence(h)
    out = []
    for i, e in enumerate(es, start=1):
        out.extend([i] * e)
    return tuple(out)


@dataclass(frozen=True)
class BurchMatrix:
    """The t x (t+1) Hilbert-Burch matrix of a level Hilbert function.

    Nonzero entries sit on the diagonal (powers of x1) and superdiagonal
    (powers of x2); the maximal minors have degrees q_1..q_{t+1} and
    generate an ideal whose quotient realises the Hilbert function.
    """

    t: int
    d: int
    entries: tuple  # t rows of t+1 entries, each a Form or None (blank)


def burch_ideal(h: HilbertFunction) -> tuple[BurchMatrix, list[Form]]:
    """The witness ideal: the Burch matrix, M_{i,i} = x1^{a_i} and
    M_{i,i+1} = x2^{b_i} with a_i = d+2-q_i and b_i = d+2-q_{i+1}, zero
    elsewhere, and its t+1 maximal minors, each monic.

    Deleting column k (columns 0..t) of the bidiagonal matrix leaves a
    block-triangular one, so minor k is, up to sign, the product of the
    diagonal entries of rows 1..k and the superdiagonal entries of rows
    k+1..t: x1^{a_1+...+a_k} x2^{b_{k+1}+...+b_t}.  The minors are returned
    in column order, so their degrees are the q-sequence in nondecreasing
    order.
    """
    t, d = h.t, h.d
    q = q_sequence(h)
    a = [d + 2 - q[i] for i in range(t)]
    b = [d + 2 - q[i + 1] for i in range(t)]
    rows = tuple(tuple(Form.monomial(2, "R", (a[i], 0)) if j == i
                       else Form.monomial(2, "R", (0, b[i])) if j == i + 1 else None
                       for j in range(t + 1)) for i in range(t))
    minors = [Form.monomial(2, "R", (sum(a[:k]), sum(b[k:]))) for k in range(t + 1)]
    return BurchMatrix(t, d, rows), minors


def partition_from_hf(h: HilbertFunction) -> tuple[int, ...]:
    """mu_i = h_i - h_{i+1} + 1 read from i = d-1 down to 0, zeros dropped."""
    e_sequence(h)  # the level check
    parts = [h[i] - h[i + 1] + 1 for i in range(h.d - 1, -1, -1)]
    if any(p < 0 for p in parts):
        raise LevelAlgError("internal bug: a concave sequence gave a negative part")
    return tuple(p for p in parts if p > 0)


def hf_from_partition(mu, t: int, d: int) -> HilbertFunction:
    """Inverse bijection: partitions of d-t+1 with parts <= t+1 to Hilbert functions."""
    mu = tuple(int(p) for p in mu)
    if any(p < 1 for p in mu):
        raise InvalidPartitionError("parts must be positive")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise InvalidPartitionError("parts must be weakly decreasing")
    if sum(mu) != d - t + 1:
        raise InvalidPartitionError(
            f"partition of {sum(mu)} given; need d - t + 1 = {d - t + 1}"
        )
    if mu and mu[0] > t + 1:
        raise InvalidPartitionError(f"part {mu[0]} exceeds t + 1 = {t + 1}")
    if len(mu) > d:
        raise InvalidPartitionError(f"more than d = {d} parts")
    return HilbertFunction(_hf_values(mu, d))


def _hf_values(mu, d: int) -> tuple[int, ...]:
    """hf_from_partition's values without its checks: h_0 = 1 and
    h_j = h_{j-1} + 1 - mu_{d+1-j}, mu padded with zeros to d parts, so
    that h_{d-k} = t + mu_1 + ... + mu_k - k when mu has weight d - t + 1."""
    h, values = 1, [1]
    for p in chain(repeat(0, d - len(mu)), reversed(mu)):
        h += 1 - p
        values.append(h)
    return tuple(values)


def _check_type(t: int, d: int):
    """MalformedSequenceError unless 1 <= t <= d + 1: the one type check."""
    if not 1 <= t <= d + 1:
        raise MalformedSequenceError(f"need 1 <= t <= d + 1, got (t, d) = ({t}, {d})")


def enumerate_level_hf(t: int, d: int) -> list[HilbertFunction]:
    """All level Hilbert functions of type (t, d), lexicographically ascending."""
    _check_type(t, d)
    return [HilbertFunction(values) for values in
            sorted(_hf_values(mu, d)
                   for mu in partitions_in_box(d - t + 1, t + 1, d - t + 1))]


def count_level_hf(t: int, d: int) -> int:
    """Number of partitions of d - t + 1 with no part exceeding t + 1."""
    _check_type(t, d)
    return _count_partitions_max_part(d - t + 1, t + 1)


def _count_partitions_max_part(n: int, k: int) -> int:
    table = [[0] * (k + 1) for _ in range(n + 1)]
    for j in range(k + 1):
        table[0][j] = 1
    for m in range(1, n + 1):
        for j in range(1, k + 1):
            table[m][j] = table[m][j - 1] + (table[m - j][j] if m >= j else 0)
    return table[n][k]


def dim_stratum(h: HilbertFunction) -> int:
    """dim of the locally closed stratum: sum over i = 1..d of e_i h_i."""
    es = e_sequence(h)
    return sum(es[i - 1] * h[i] for i in range(1, h.d + 1))


def grassmannian_dim(t: int, d: int) -> int:
    return t * (d + 1 - t)


def minmax_hf(t: int, d: int) -> tuple[HilbertFunction, HilbertFunction, int]:
    """(minimal h, maximal h, s0) for type (t, d).

    The minimal function is min(i+1, t); the maximal is
    min(i+1, (d-i+1)t); s0 = ceil(t(d+1)/(t+1)) is the least degree in
    which every subspace acquires an apolar form.
    """
    _check_type(t, d)
    hmin = HilbertFunction(tuple(min(i + 1, t) for i in range(d + 1)))
    hmax = HilbertFunction(tuple(min(i + 1, (d - i + 1) * t) for i in range(d + 1)))
    s0 = -((-t * (d + 1)) // (t + 1))
    return hmin, hmax, s0


def partition_format(mu) -> str:
    return "+".join(str(p) for p in mu) if mu else "0"


def partition_parse(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split("+"))
    except ValueError as exc:
        raise InvalidPartitionError(f"bad partition string {text!r}") from exc
    return parts
