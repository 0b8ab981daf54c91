"""The cohomology ring of G(t, C^n) in the Schubert basis.

Classes are integer combinations of partitions inside the t x (n-t) box,
printed in the {a,b,...} notation.  Multiplication is by the
Littlewood-Richardson rule with silent truncation to the box, which is the
cup product on the Grassmannian.  Porteous' formula turns Chern classes of
the virtual bundle F - E into fundamental classes of rank-degeneracy loci;
they are Schur classes of several copies of the tautological roots, the
kernel the E1 tables of `resolution` read too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

from .errors import AmbientMismatchError, InputSyntaxError, InvalidPartitionError, LevelAlgError
from .partitions import _weyl_dim, check_partition, conjugate, parse_partition, partitions_in_box


@dataclass(frozen=True)
class SchubertClass:
    """An integer combination of Schubert classes on G(t, C^n)."""

    t: int
    n: int
    coeffs: dict  # partition tuple (trimmed) -> nonzero int

    __hash__ = None

    def __post_init__(self):
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
    if a.is_zero:
        return "0"
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
    out = []
    for k, (neg, text) in enumerate(parts):
        if k == 0:
            out.append(("-" if neg else "") + text)
        else:
            out.append(("- " if neg else "+ ") + text)
    return " ".join(out)


def parse_class(text: str, t: int, n: int) -> SchubertClass:
    """Parse '10{3,3} + 6{4,2}' style class strings."""
    text = text.strip()
    if text == "0":
        return schubert_class(t, n, {})
    coeffs: dict = {}
    pos = 0
    sign = 1
    first = True
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        if text[pos] in "+-":
            sign = 1 if text[pos] == "+" else -1
            pos += 1
            while pos < len(text) and text[pos].isspace():
                pos += 1
        elif not first:
            raise LevelAlgError(f"expected '+' or '-' at position {pos} of {text!r}")
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        coeff = int(text[start:pos]) if pos > start else 1
        lam: tuple = ()
        if pos < len(text) and text[pos] == "{":
            end = text.find("}", pos)
            if end < 0:
                raise InputSyntaxError(f"unclosed '{{' at position {pos} of {text!r}")
            lam = parse_partition(text[pos + 1:end])
            pos = end + 1
        coeffs[lam] = coeffs.get(lam, 0) + sign * coeff
        sign = 1
        first = False
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


def _jacobi_trudi(parts: list, shape: tuple) -> SchubertClass:
    """det[parts_{shape_row + col - row}] of size len(shape), parts[k] the
    degree-k entry for k <= shape_1 + len(shape) - 1, and zero for k < 0.

    Laplace expansion along the first remaining row, memoised on the
    surviving column set.  shape is a partition, so shape_row - row falls
    strictly down each column: below an entry of negative degree, every
    entry of its column is zero.
    """
    t, n = parts[0].t, parts[0].n
    size = len(shape)

    @lru_cache(maxsize=None)
    def minor(cols: tuple) -> SchubertClass:
        if not cols:
            return class_one(t, n)
        row = size - len(cols)
        out = SchubertClass(t, n, {})
        if shape[row] + cols[0] < row:
            return out  # column cols[0] is zero from this row down
        for pos, col in enumerate(cols):
            k = shape[row] + col - row
            if parts[k].is_zero:
                continue
            # the entry second: an LR filling has one cell per box of the second factor
            term = lr_multiply(minor(cols[:pos] + cols[pos + 1:]), parts[k])
            out = out + (term.scale(-1) if pos % 2 else term)
        return out

    return minor(tuple(range(size)))


@lru_cache(maxsize=None)
def _copies_part(t: int, n: int, copies: int, k: int, dual: bool) -> SchubertClass:
    """h_k, or e_k if dual, of `copies` copies of x_1, ..., x_t on G(t, C^n):
    by Cauchy's identity sum_nu dim S_nu(k^copies) sigma_nu, or with
    dim S_nu'(k^copies), over the nu of weight k in the box (Macdonald,
    Symmetric Functions, I.4)."""
    part = {}
    for nu in partitions_in_box(t, n - t, k):
        weight = conjugate(nu) if dual else nu
        if len(weight) <= copies:
            part[nu] = _weyl_dim(weight, copies)
    return SchubertClass(t, n, part)


def _schur_of_copies(lam: tuple, t: int, n: int, copies: int) -> SchubertClass:
    """s_lam(x (x) 1^copies) on G(t, C^n), sigma_nu = s_nu(x_1, ..., x_t):
    s_lam with each x_a repeated `copies` times.

    Jacobi-Trudi gives it as det[h_{lam_row + col - row}] of size len(lam)
    and as det[e_{lam'_row + col - row}] of size lam_1 (Macdonald, I.3),
    with the parts of _copies_part; the smaller one is expanded.  The
    quotient onto the box is a ring map, so truncating the parts and the
    products changes nothing inside it.
    """
    conj = conjugate(lam)
    dual = len(lam) > len(conj)
    shape = conj if dual else lam
    top = shape[0] + len(shape) - 1 if shape else 0  # the heaviest entry
    return _jacobi_trudi([_copies_part(t, n, copies, k, dual) for k in range(top + 1)], shape)


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
    (f-r)^(e-r) in those copies (Macdonald, Symmetric Functions, I.3),
    which _schur_of_copies expands from its smaller side.
    The class is supported on the locus when the locus has the expected
    codimension (e-r)(f-r), and is its fundamental class only when the
    locus is also generically reduced; otherwise it counts each component
    with its multiplicity.
    """
    if not 0 <= i <= d:
        raise LevelAlgError(f"need 0 <= i <= d, got i = {i}, d = {d}")
    if t < 1:
        raise LevelAlgError(f"need 1 <= t <= d + 1, got (t, d) = ({t}, {d})")
    if t > d + 1:
        raise LevelAlgError(f"G({t}, S_{d}) is empty: need t <= d + 1")
    e, f = _check_rank_bound(t, d, i, r)
    if r == min(e, f):
        return class_one(t, d + 1)  # the smaller determinant is empty
    return _schur_of_copies((f - r,) * (e - r), t, d + 1, d - i + 1)
