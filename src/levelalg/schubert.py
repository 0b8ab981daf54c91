"""The cohomology ring of G(t, C^n) in the Schubert basis.

Classes are integer combinations of partitions inside the t x (n-t) box,
printed in the {a,b,...} notation.  The product of two classes is by the
Littlewood-Richardson rule with silent truncation to the box, which is the
cup product on the Grassmannian.  Porteous' formula turns Chern classes of
the virtual bundle F - E into fundamental classes of rank-degeneracy loci;
they are Schur classes of several copies of the tautological roots, the
kernel the E1 tables of `resolution` read too (see _schur_of_copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import comb

from .errors import (AmbientMismatchError, DegreeError, FormSyntaxError, InvalidPartitionError,
                     LevelAlgError)
from .forms import _signed_sum, _signed_terms
from .levelhf import _check_type
from .linalg import _integer_det
from .partitions import check_partition, conjugate, parse_partition, partitions_in_box


@dataclass(frozen=True)
class SchubertClass:
    """An integer combination of Schubert classes on G(t, C^n)."""

    t: int
    n: int
    coeffs: dict  # partition tuple (trimmed) -> nonzero int

    __hash__ = None

    def __post_init__(self):
        if not 0 <= self.t <= self.n:
            raise DegreeError(f"G({self.t}, {self.n}) is empty: need 0 <= t <= n")
        for lam, c in self.coeffs.items():
            if c == 0:
                raise ValueError("zero coefficients must be omitted")
            if len(lam) > self.t or (lam and lam[0] > self.n - self.t):
                raise InvalidPartitionError(
                    f"{lam} does not fit the {self.t} x {self.n - self.t} box"
                )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: SchubertClass) -> SchubertClass:
        self._check(other)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SchubertClass(self.t, self.n, {lam: c for lam, c in out.items() if c})

    def __sub__(self, other: SchubertClass) -> SchubertClass:
        return self + other.scale(-1)

    def scale(self, k: int) -> SchubertClass:
        if k == 0:
            return SchubertClass(self.t, self.n, {})
        return SchubertClass(self.t, self.n, {lam: k * c for lam, c in self.coeffs.items()})

    def __mul__(self, other: SchubertClass) -> SchubertClass:
        return lr_multiply(self, other)

    def _check(self, other: SchubertClass):
        if (self.t, self.n) != (other.t, other.n):
            raise AmbientMismatchError(
                f"classes on G({self.t},{self.n}) and G({other.t},{other.n})"
            )

    def __str__(self) -> str:
        return format_class(self)


def schubert_class(t: int, n: int, coeffs: dict) -> SchubertClass:
    clean = {}
    for lam, c in coeffs.items():
        lam = check_partition(lam)
        if c != 0:
            clean[lam] = clean.get(lam, 0) + c
    clean = {lam: c for lam, c in clean.items() if c != 0}
    return SchubertClass(t, n, clean)


def class_one(t: int, n: int) -> SchubertClass:
    return schubert_class(t, n, {(): 1})


def class_of(t: int, n: int, lam, coeff: int = 1) -> SchubertClass:
    return schubert_class(t, n, {tuple(lam): coeff})


def _sort_key(lam):
    return (sum(lam), lam)


def format_class(a: SchubertClass) -> str:
    """Canonical printing, e.g. '10{3,3} + 6{4,2}'; the unit prints as '1'."""
    parts = []
    for lam in sorted(a.coeffs, key=_sort_key):
        c = a.coeffs[lam]
        body = "{" + ",".join(str(p) for p in lam) + "}" if lam else ""
        mag = abs(c)
        if body == "":
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}{body}"
        parts.append((c < 0, text))
    return _signed_sum(parts)


def _class_term(sc) -> tuple[tuple, int]:
    """(partition, coefficient) of one term of a class string: an optional
    integer and an optional {partition}, read at the scanner's position."""
    coeff = sc.integer() if sc.peek().isdecimal() else 1
    if sc.peek() != "{":
        return (), coeff
    start = sc.pos
    end = sc.text.find("}", start)
    if end < 0:
        raise FormSyntaxError("unclosed '{'", start)
    sc.pos = end + 1
    return parse_partition(sc.text[start + 1:end]), coeff


def parse_class(text: str, t: int, n: int) -> SchubertClass:
    """Parse '10{3,3} + 6{4,2}' style class strings."""
    coeffs: dict = {}
    for sign, (lam, coeff) in _signed_terms(text, _class_term):
        coeffs[lam] = coeffs.get(lam, 0) + sign * coeff
    return schubert_class(t, n, coeffs)


@lru_cache(maxsize=None)
def lr_coefficient(lam: tuple, mu: tuple, nu: tuple) -> int:
    """The Littlewood-Richardson coefficient c^nu_{lam, mu}."""
    return _lr_coefficient(check_partition(lam), check_partition(mu), check_partition(nu))


@lru_cache(maxsize=None)
def _lr_coefficient(lam: tuple, mu: tuple, nu: tuple) -> int:
    """c^nu_{lam, mu} on trimmed partitions, unchecked.

    Counts semistandard fillings of nu/lam with content mu whose reverse
    reading word is a lattice word.  Cells are filled in reverse reading
    order so the lattice property prunes the search as it goes.
    """
    if sum(lam) + sum(mu) != sum(nu) or any(
            a > c or b > c for a, b, c in zip_longest(lam, mu, nu, fillvalue=0)):
        return 0  # nu must contain both lam and mu
    if not mu:
        return 1
    lam_p = list(lam) + [0] * (len(nu) - len(lam))
    cells = []
    for i in range(len(nu)):
        for j in range(nu[i] - 1, lam_p[i] - 1, -1):
            cells.append((i, j))
    k = len(mu)
    filling: dict = {}
    counts = [0] * (k + 1)
    total = 0

    def place(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        left = filling.get((i, j + 1))  # cell to the right, already filled
        above = filling.get((i - 1, j))
        for v in range(1, k + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # lattice word violated
            if left is not None and v > left:
                continue  # row must weakly increase left to right
            if above is not None and v <= above:
                continue  # column must strictly increase downward
            filling[(i, j)] = v
            counts[v] += 1
            place(idx + 1)
            counts[v] -= 1
            del filling[(i, j)]

    place(0)
    return total


def lr_multiply(a: SchubertClass, b: SchubertClass) -> SchubertClass:
    """Cup product: LR expansion truncated to the box."""
    a._check(b)
    t, n = a.t, a.n
    out: dict = {}
    for lam, ca in a.coeffs.items():
        for mu, cb in b.coeffs.items():
            for nu in partitions_in_box(t, n - t, sum(lam) + sum(mu)):
                c = _lr_coefficient(lam, mu, nu)
                if c:
                    out[nu] = out.get(nu, 0) + ca * cb * c
    return SchubertClass(t, n, {nu: c for nu, c in out.items() if c})


def _skew_dim(nu: tuple, lam: tuple, copies: int, dual: bool) -> int:
    """s_{nu/lam}(1^copies), or s_{nu'/lam'}(1^copies) if dual, for lam
    inside nu: det[h_k(1^copies)] = det[C(copies + k - 1, k)], or
    det[e_k(1^copies)] = det[C(copies, k)], with k = nu_a - lam_b - a + b
    and zero entries for k < 0, of size len(nu) (Macdonald, Symmetric
    Functions, I.5)."""
    size = len(nu)
    lam += (0,) * (size - len(lam))
    return _integer_det([[(comb(copies, k) if dual else comb(copies + k - 1, k)) if k >= 0 else 0
                          for b in range(size) for k in [nu[a] - lam[b] - a + b]]
                         for a in range(size)])


def _skew_fits(nu: tuple, lam: tuple, copies: int, dual: bool) -> bool:
    """Whether nu/lam, lam inside nu, has no column longer than copies (no
    row, if dual): exactly when _skew_dim is nonzero, since s_{nu/lam}(1^N)
    counts the semistandard tableaux of shape nu/lam in 1..N, whose columns
    increase strictly, and s_{nu'/lam'} transposes the shape.  A column of
    nu/lam holds copies + 1 cells exactly when nu_{a+copies} > lam_a for
    some row a."""
    lam += (0,) * (len(nu) - len(lam))
    if dual:
        return all(p - q <= copies for p, q in zip(nu, lam))
    return all(p <= q for p, q in zip(nu[copies:], lam))


@lru_cache(maxsize=None)
def _skew_terms(lam: tuple, k: int, copies: int, dual: bool, rows: int, width: int) -> tuple:
    """((nu, c), ...): the terms of s_lam times h_k, or e_k if dual, of the
    copies, c = s_{nu/lam}(1^copies), or s_{nu'/lam'}(1^copies), over the
    nu in the rows x width box that contain lam, weigh |lam| + k and have
    c != 0, in descending lexicographic order.  Jacobi-Trudi is exact for
    every nu containing lam; _skew_fits drops the nu where c is 0 before
    its determinant is taken.  It can drop one only when a column (a row,
    if dual) of nu/lam may exceed the copies: its length is at most k and
    at most the rows (the width, if dual) of the box."""
    check = min(k, width if dual else rows) > copies
    return tuple((nu, _skew_dim(nu, lam, copies, dual))
                 for nu in partitions_in_box(rows, width, sum(lam) + k)
                 if len(nu) >= len(lam) and all(p >= q for p, q in zip(nu, lam))
                 and (not check or _skew_fits(nu, lam, copies, dual)))


def _times_part(coeffs: dict, k: int, copies: int, dual: bool, t: int, n: int) -> dict:
    """{nu: c}, c possibly 0: sum_mu coeffs[mu] sigma_mu times h_k, or e_k
    if dual, of the copies on G(t, C^n).  Each mu asks _skew_terms only for
    the rows and width its nu can reach (a row gains at most `copies`
    cells if dual, a column otherwise), so boxes wider than that, every E1
    box among them, share cache entries."""
    out: dict = {}
    reach = min(k, copies)
    for mu, c in coeffs.items():
        rows = min(t, len(mu) + (k if dual else reach))
        width = min(n - t, (mu[0] if mu else 0) + (reach if dual else k))
        for nu, s in _skew_terms(mu, k, copies, dual, rows, width):
            out[nu] = out.get(nu, 0) + c * s
    return out


def _schur_of_copies(lam: tuple, t: int, n: int, copies: int) -> SchubertClass:
    """s_lam(x (x) 1^copies) on G(t, C^n), sigma_nu = s_nu(x_1, ..., x_t):
    s_lam with each x_a repeated `copies` times.

    Jacobi-Trudi gives it as det[h_{lam_row + col - row}] of size len(lam)
    and as det[e_{lam'_row + col - row}] of size lam_1 (Macdonald,
    Symmetric Functions, I.3), with the entries taken in the copies; the
    smaller one is expanded along its first remaining row, memoised on the
    surviving column set.  shape is a partition, so shape_row - row falls
    strictly down each column: below an entry of negative degree, every
    entry of its column is zero.

    Each step multiplies a minor term sigma_mu by an entry.  Cauchy's
    identity h_k(x (x) 1^copies) = sum_rho s_rho(1^copies) s_rho(x), with
    s_mu s_rho = sum_nu c^nu_{mu rho} s_nu and s_{nu/mu} = sum_rho
    c^nu_{mu rho} s_rho, gives

        s_mu h_k(x (x) 1^copies) = sum_nu s_{nu/mu}(1^copies) s_nu,

    and e_k(x (x) 1^copies) = sum_rho s_rho'(1^copies) s_rho gives the
    same with s_{nu'/mu'}(1^copies) = det[C(copies, nu_a - mu_b - a + b)],
    over the nu containing mu with |nu| = |mu| + k (Macdonald, I.4 and
    I.5; Fulton, Intersection Theory, 14.4).  The coefficients are
    _skew_terms' binomial determinants of size len(nu) <= t, so no
    Littlewood-Richardson coefficient is computed.  The quotient onto the
    box is a ring map, so truncating every product to the box changes
    nothing inside it; an entry heavier than every nu of the box with a
    nonzero coefficient is zero there, and so is every entry right of it.
    """
    conj = conjugate(lam)
    dual = len(lam) > len(conj)
    shape = conj if dual else lam
    size = len(shape)
    # the heaviest nu in the box with len(nu) <= copies, or nu_1 <= copies if dual
    heaviest = t * min(n - t, copies) if dual else min(t, copies) * (n - t)

    @lru_cache(maxsize=None)
    def minor(cols: tuple) -> dict:
        if not cols:
            return {(): 1}
        row = size - len(cols)
        out: dict = {}
        if shape[row] + cols[0] < row:
            return out  # column cols[0] is zero from this row down
        for pos, col in enumerate(cols):
            k = shape[row] + col - row
            if k > heaviest:
                break
            sign = -1 if pos % 2 else 1
            for nu, c in _times_part(minor(cols[:pos] + cols[pos + 1:]), k, copies, dual,
                                     t, n).items():
                out[nu] = out.get(nu, 0) + sign * c
        return {nu: c for nu, c in out.items() if c}

    return SchubertClass(t, n, minor(tuple(range(size))))


def _check_index(d: int, i: int):
    """LevelAlgError unless 0 <= i <= d: the first check of every rank-locus
    domain, Porteous' and the resolution's."""
    if not 0 <= i <= d:
        raise LevelAlgError(f"need 0 <= i <= d, got i = {i}, d = {d}")


def _check_rank_bound(t: int, d: int, i: int, r: int) -> tuple[int, int]:
    """(e, f) = (t(d-i+1), i+1), the ranks of the source and target of the
    i-th product map; LevelAlgError unless 0 <= r <= min(e, f)."""
    e, f = t * (d - i + 1), i + 1
    if r < 0 or r > min(e, f):
        raise LevelAlgError(f"rank bound {r} outside 0..min({e},{f})")
    return e, f


def porteous_class(t: int, d: int, i: int, r: int) -> SchubertClass:
    """Fundamental class of the rank <= r locus of the i-th product map.

    E = S (x) R_{d-i} has rank e = t(d-i+1) and c(E) = c(S)^{d-i+1}, S the
    tautological subbundle; F is trivial of rank f = i+1.  Porteous gives
    the (e-r) x (e-r) determinant det[c_{f-r+col-row}(F - E)], where
    c(F - E) = c(Q)^{d-i+1} and c(Q) = sum_k {k} (Fulton, Intersection
    Theory, 14.4).  So c_k(F - E) is h_k of d-i+1 copies of the Chern roots
    of S*, and the determinant is the Schur class of the rectangle
    (f-r)^(e-r) in those copies (Macdonald, Symmetric Functions, I.3; see
    _schur_of_copies).  The class is
    supported on the locus when the locus has the expected codimension
    (e-r)(f-r), and is its fundamental class only when the locus is also
    generically reduced; otherwise it counts each component with its
    multiplicity.
    """
    _check_index(d, i)
    if t > d + 1:
        raise LevelAlgError(f"G({t}, S_{d}) is empty: need t <= d + 1")
    _check_type(t, d)
    e, f = _check_rank_bound(t, d, i, r)
    if r == min(e, f):
        return class_one(t, d + 1)  # the smaller determinant is empty
    return _schur_of_copies((f - r,) * (e - r), t, d + 1, d - i + 1)
