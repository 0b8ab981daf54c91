"""Homogeneous forms and canonical subspaces.

Two graded rings appear throughout: R = k[x1..xn], acting on S = k[y1..yn]
by differentiation.  A Form carries a ring tag ('R' or 'S') which fixes the
variable letter and which operations accept it.

The monomial order is graded lexicographic, descending, on exponent
vectors.  For n = 2 this lists x1^m, x1^{m-1}*x2, ..., x2^m, i.e. the
coefficient vector is indexed by the x2-exponent j = 0..m.  All canonical
representations (printing, echelon bases, subspace equality) refer to this
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import factorial, gcd, prod

from .errors import AmbientMismatchError, FormSyntaxError
from .linalg import (QQ, Vector, _integer_row, _sparse_rows, echelon_kernel, integer_echelon,
                     sparse_kernel)

RING_VARS = {"R": "x", "S": "y"}


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given degree, descending graded-lex."""
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if degree < 0:
        return ()

    def gen(n, d):
        if n == 1:
            yield (d,)
            return
        for e in range(d, -1, -1):
            for rest in gen(n - 1, d - e):
                yield (e,) + rest

    return tuple(gen(nvars, degree))


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


@lru_cache(maxsize=None)
def monomial_products(nvars: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """[q][m]: the index of (q-th monomial of degree a) * (m-th of degree b)."""
    index = monomial_index(nvars, a + b)
    return tuple(tuple(index[tuple(x + y for x, y in zip(mq, mm))]
                       for mm in monomials(nvars, b)) for mq in monomials(nvars, a))


@lru_cache(maxsize=None)
def divided_power_weights(nvars: int, degree: int) -> tuple[int, ...]:
    """b! = b_1! ... b_n! for each exponent vector b of the given degree, in
    monomial order: the only place these weights are computed."""
    return tuple(prod(map(factorial, b)) for b in monomials(nvars, degree))


def _lead(v) -> int:
    """The column of the first nonzero entry of v: the entries before it
    are 0, so it is the first index of that entry's value."""
    return v.index(next(filter(None, v)))


def _check_ring(ring: str):
    if ring not in RING_VARS:
        raise ValueError(f"unknown ring tag {ring!r}")


def _monic_form(nvars: int, degree: int, ring: str, entries) -> Form:
    """The form whose coefficient vector (monomials(nvars, degree) order)
    has the (column, entry) pairs entries, in column order, zero entries
    allowed, divided by its first nonzero entry; no entries give the zero
    form.  Form.monic, Subspace.basis and the apolar pass read it, each
    entry x becoming the Fraction x / lead.  Its exponent vectors come from
    monomials(nvars, degree) and its coefficients are nonzero, so only the
    ring tag is checked: the form is built by Form._trusted."""
    _check_ring(ring)
    mons = monomials(nvars, degree)
    entries = [(c, x) for c, x in entries if x]
    lead = entries[0][1] if entries else 1
    return Form._trusted(nvars, degree, ring, {mons[c]: QQ(x, lead) for c, x in entries})


def space_dim(nvars: int, degree: int) -> int:
    return len(monomials(nvars, degree))


@lru_cache(maxsize=None)
def _identity(size: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The unit rows of width size and their pivots, the echelon form of a
    whole space; shared between Subspace.full calls, which only read them."""
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size)), tuple(range(size))


@dataclass(frozen=True)
class Form:
    """A homogeneous polynomial with exact rational coefficients.

    coeffs maps exponent vectors (summing to degree) to nonzero Fractions;
    the zero form has an empty map.
    """

    nvars: int
    degree: int
    ring: str
    coeffs: dict = field(compare=True)

    def __post_init__(self):
        _check_ring(self.ring)
        for exps, c in self.coeffs.items():
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) != self.degree:
                raise ValueError(
                    f"exponent vector {exps} does not have degree {self.degree}"
                )
            if c == 0:
                raise ValueError("zero coefficients must be omitted")

    __hash__ = None

    @classmethod
    def _trusted(cls, nvars: int, degree: int, ring: str, coeffs: dict) -> Form:
        """The form with these fields, without __post_init__'s checks: for
        callers whose coefficient map is well formed by construction
        (_monic_form)."""
        form = object.__new__(cls)
        form.__dict__.update(nvars=nvars, degree=degree, ring=ring, coeffs=coeffs)
        return form

    @staticmethod
    def make(nvars: int, degree: int, ring: str, coeffs: dict) -> Form:
        clean = {e: QQ(c) for e, c in coeffs.items() if c != 0}
        return Form(nvars, degree, ring, clean)

    @staticmethod
    def zero(nvars: int, degree: int, ring: str) -> Form:
        return Form(nvars, degree, ring, {})

    @staticmethod
    def monomial(nvars: int, ring: str, exps) -> Form:
        exps = tuple(exps)
        return Form(nvars, sum(exps), ring, {exps: QQ(1)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exps) -> Fraction:
        return self.coeffs.get(tuple(exps), QQ(0))

    def vector(self) -> Vector:
        idx = monomial_index(self.nvars, self.degree)
        v = [QQ(0)] * len(idx)
        for e, c in self.coeffs.items():
            v[idx[e]] = c
        return v

    @staticmethod
    def from_vector(nvars: int, degree: int, ring: str, vec) -> Form:
        mons = monomials(nvars, degree)
        return Form.make(nvars, degree, ring, {mons[i]: QQ(c) for i, c in enumerate(vec) if c != 0})

    def _check_compatible(self, other: Form):
        if (self.nvars, self.degree, self.ring) != (other.nvars, other.degree, other.ring):
            raise AmbientMismatchError(
                f"cannot combine forms in ({self.ring}_{self.degree}, n={self.nvars}) "
                f"and ({other.ring}_{other.degree}, n={other.nvars})"
            )

    def __add__(self, other: Form) -> Form:
        self._check_compatible(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, QQ(0)) + c
        return Form.make(self.nvars, self.degree, self.ring, out)

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __neg__(self) -> Form:
        return Form(self.nvars, self.degree, self.ring, {e: -c for e, c in self.coeffs.items()})

    def scale(self, c) -> Form:
        c = QQ(c)
        if c == 0:
            return Form.zero(self.nvars, self.degree, self.ring)
        return Form(self.nvars, self.degree, self.ring, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other: Form) -> Form:
        """Polynomial product of two forms in the same ring."""
        if self.nvars != other.nvars or self.ring != other.ring:
            raise AmbientMismatchError("product of forms in different rings")
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, QQ(0)) + c1 * c2
        return Form.make(self.nvars, self.degree + other.degree, self.ring, out)

    def power(self, k: int) -> Form:
        if k < 0:
            raise ValueError("negative power")
        result = Form.monomial(self.nvars, self.ring, (0,) * self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def monic(self) -> Form:
        return _monic_form(self.nvars, self.degree, self.ring, enumerate(self.vector()))

    def substitute_linear(self, matrix) -> Form:
        """Apply the linear substitution var_i -> sum_j matrix[i][j] * var_j."""
        n, ring = self.nvars, self.ring
        one = Form.monomial(n, ring, (0,) * n)
        # powers[i][e]: the e-th power of the image of var_i, each built
        # from the one before it
        powers = []
        for i in range(n):
            image = Form.make(n, 1, ring, {tuple(int(k == j) for k in range(n)): matrix[i][j]
                                           for j in range(n)})
            row = [one]
            for _ in range(max((exps[i] for exps in self.coeffs), default=0)):
                row.append(row[-1] * image)
            powers.append(row)
        total: dict = {}
        for exps, c in self.coeffs.items():
            term = reduce(Form.__mul__, [powers[i][e] for i, e in enumerate(exps) if e] or [one])
            for m, x in term.coeffs.items():
                total[m] = total.get(m, QQ(0)) + c * x
        return Form.make(n, self.degree, ring, total)

    def __str__(self) -> str:
        return form_print(self)

    def __repr__(self) -> str:
        return f"Form({self.ring}_{self.degree}: {form_print(self)})"


def _signed_sum(terms) -> str:
    """(negative, text) pairs joined as 'a - b + c', a negative first term
    as '-a', no terms as '0': the one place signed sums are printed."""
    out = " ".join(("- " if neg else "+ ") + text for neg, text in terms)
    if not out:
        return "0"
    return "-" + out[2:] if out[0] == "-" else out[2:]


def form_print(f: Form) -> str:
    """Canonical string form; parse(print(f)) == f.  The terms come in the
    monomial order, which on the exponent vectors of one degree is
    descending lexicographic."""
    var = RING_VARS[f.ring]
    parts = []
    for m, c in sorted(f.coeffs.items(), reverse=True):
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(f"{var}{i + 1}")
            elif e > 1:
                factors.append(f"{var}{i + 1}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        parts.append((c < 0, body))
    return _signed_sum(parts)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise FormSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() == "/":
            self.take()
            den = self.integer()
            if den == 0:
                raise FormSyntaxError("zero denominator", self.pos)
            return QQ(num, den)
        return QQ(num)


def _signed_terms(text: str, term):
    """(sign, term(scanner)) for each term of the signed sum 'a - b + c' in
    text, a leading sign allowed: the one place signed sums are read, the
    counterpart of _signed_sum.  term reads one term at the scanner's
    position; if it reads nothing there, that is an error."""
    sc = _Scanner(text)
    sep = sc.take() if sc.peek() in ("+", "-") else "+"
    while True:
        sc.skip_ws()
        start = sc.pos
        value = term(sc)
        if sc.pos == start:
            raise FormSyntaxError("expected a term", start)
        yield (-1 if sep == "-" else 1), value
        sep = sc.peek()
        if sep == "":
            return
        if sep not in ("+", "-"):
            raise FormSyntaxError(f"unexpected character {sep!r}", sc.pos)
        sc.take()


def form_parse(text: str, nvars: int | None = None, ring: str | None = None) -> Form:
    """Parse the external form grammar.

    Terms are joined by '+'/'-'; a term is an optional rational p/q followed
    by '*'-separated variable powers x<i>^<e> or y<i>^<e>.  One letter class
    per form.  The number of variables is the largest index seen unless
    nvars is given.  Inhomogeneous input is rejected.
    """
    letter: str | None = None
    max_index = 0

    def term(sc: _Scanner) -> tuple[Fraction, dict[int, int]]:
        nonlocal letter, max_index
        coeff = QQ(1)
        exps: dict[int, int] = {}
        if sc.peek().isdecimal():
            coeff = sc.rational()
            if sc.peek() == "*":
                sc.take()
            elif sc.peek() in ("x", "y"):
                raise FormSyntaxError("missing '*' between coefficient and variable", sc.pos)
        while sc.peek() in ("x", "y"):
            pos = sc.pos
            v = sc.take()
            if letter is None:
                letter = v
            elif v != letter:
                raise FormSyntaxError(f"mixed variable letters {letter!r} and {v!r}", pos)
            idx = sc.integer()
            if idx < 1:
                raise FormSyntaxError("variable indices start at 1", pos)
            e = 1
            if sc.peek() == "^":
                sc.take()
                e = sc.integer()
            exps[idx - 1] = exps.get(idx - 1, 0) + e
            max_index = max(max_index, idx)
            if sc.peek() == "*":
                sc.take()
                if sc.peek() not in ("x", "y"):
                    raise FormSyntaxError("expected a variable after '*'", sc.pos)
        return coeff, exps

    terms = [(sign * coeff, exps) for sign, (coeff, exps) in _signed_terms(text, term)]

    if letter is None:
        letter = "x" if ring == "R" else "y"
    inferred_ring = "R" if letter == "x" else "S"
    if ring is not None and ring != inferred_ring:
        raise FormSyntaxError(f"expected a form in ring {ring}", 0)
    n = nvars if nvars is not None else max(max_index, 1)
    if max_index > n:
        raise FormSyntaxError(f"variable index {max_index} exceeds nvars={n}", 0)
    degrees = {sum(e.values()) for _, e in terms}
    if len(degrees) > 1:
        raise FormSyntaxError(f"inhomogeneous input (term degrees {sorted(degrees)})", 0)
    degree = degrees.pop()
    coeffs: dict = {}
    for c, e in terms:
        key = tuple(e.get(i, 0) for i in range(n))
        coeffs[key] = coeffs.get(key, QQ(0)) + c
    return Form.make(n, degree, inferred_ring, coeffs)


@dataclass(frozen=True)
class Subspace:
    """A subspace of degree-d forms, stored as its canonical integer echelon
    rows.

    echelon holds the nonzero rows of the reduced row echelon form of any
    spanning set, as coefficient vectors in the monomial order, each times
    the positive integer that clears its denominators (so primitive, with a
    positive entry at its pivot), and pivots their pivot columns.  Two
    subspaces are equal iff these are identical, so equality is equality of
    spans.  rows is the same RREF in Fractions, built on first access.
    """

    nvars: int
    degree: int
    ring: str
    echelon: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    __hash__ = None

    @staticmethod
    def span(nvars: int, degree: int, ring: str, forms) -> Subspace:
        rows = []
        for f in forms:
            if (f.nvars, f.degree, f.ring) != (nvars, degree, ring):
                raise AmbientMismatchError(
                    f"form {form_print(f)} not in {ring}_{degree} with n={nvars}"
                )
            rows.append(f.vector())
        return Subspace.from_rows(nvars, degree, ring, rows)

    @staticmethod
    def from_rows(nvars: int, degree: int, ring: str, rows) -> Subspace:
        """Span of coefficient vectors given in the monomial order."""
        width = space_dim(nvars, degree)
        return Subspace.from_echelon(nvars, degree, ring,
                                     integer_echelon(map(_integer_row, rows), width)[0])

    @staticmethod
    def from_echelon(nvars: int, degree: int, ring: str, rows) -> Subspace:
        """The span of integer rows that are the RREF rows, in order, each
        times any nonzero integer."""
        echelon, pivots = [], []
        for v in rows:
            p = _lead(v)
            g = gcd(*v) if v[p] > 0 else -gcd(*v)
            echelon.append(tuple(v) if g == 1 else tuple(x // g for x in v))
            pivots.append(p)
        return Subspace(nvars, degree, ring, tuple(echelon), tuple(pivots))

    @staticmethod
    def full(nvars: int, degree: int, ring: str) -> Subspace:
        return Subspace(nvars, degree, ring, *_identity(space_dim(nvars, degree)))

    @staticmethod
    def zero(nvars: int, degree: int, ring: str) -> Subspace:
        return Subspace(nvars, degree, ring, (), ())

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The reduced row echelon form: each echelon row over its pivot."""
        zero = QQ(0)
        return tuple(tuple(QQ(x, v[p]) if x else zero for x in v)
                     for v, p in zip(self.echelon, self.pivots))

    @cached_property
    def basis(self) -> tuple[Form, ...]:
        """The RREF rows as forms: each echelon row over its pivot, its
        first nonzero entry."""
        return tuple(_monic_form(self.nvars, self.degree, self.ring, enumerate(v))
                     for v in self.echelon)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def ambient_dim(self) -> int:
        return space_dim(self.nvars, self.degree)

    def _check_same_ambient(self, other: Subspace):
        if (self.nvars, self.degree, self.ring) != (other.nvars, other.degree, other.ring):
            raise AmbientMismatchError(
                f"subspaces of ({self.ring}_{self.degree}, n={self.nvars}) and "
                f"({other.ring}_{other.degree}, n={other.nvars}) are not comparable"
            )

    def reduce(self, f: Form) -> Vector:
        """Residual of f against the echelon basis (zero iff f lies in self)."""
        if (f.nvars, f.degree, f.ring) != (self.nvars, self.degree, self.ring):
            raise AmbientMismatchError("form not in the ambient space of the subspace")
        cur = f.vector()
        for row, p in zip(self.rows, self.pivots):
            c = cur[p]
            if c != 0:
                cur = [x - c * y for x, y in zip(cur, row)]
        return cur

    def contains(self, f: Form) -> bool:
        return all(c == 0 for c in self.reduce(f))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Canonical echelon basis of a ∩ b, in integers: the right kernel of
    the right kernels of a and b stacked (a subspace is the kernel of its
    kernel).  The kernel of a zero subspace is every unit vector."""
    a._check_same_ambient(b)
    if a.echelon == b.echelon:
        return a
    width = a.ambient_dim
    conditions = (sparse_kernel(_sparse_rows(a.echelon), width)
                  + sparse_kernel(_sparse_rows(b.echelon), width))
    return Subspace.from_echelon(a.nvars, a.degree, a.ring, echelon_kernel(conditions, width))


def _content_lines(lines) -> list[str]:
    """The stripped lines that are not blank or '#' comments: the one place
    the input-line syntax is decided."""
    lines = (line.strip() for line in lines)
    return [line for line in lines if line and not line.startswith("#")]


def _parse_forms(lines, nvars: int | None = None, ring: str | None = None) -> list[Form]:
    """form_parse of each line, the forms padded with zero exponents to the
    most variables any of them has: the one place forms are padded."""
    forms = [form_parse(line, nvars=nvars, ring=ring) for line in lines]
    n = max((f.nvars for f in forms), default=0)
    return [f if f.nvars == n else
            Form(n, f.degree, f.ring, {e + (0,) * (n - f.nvars): c for e, c in f.coeffs.items()})
            for f in forms]


def parse_subspace_lines(lines, nvars: int | None = None) -> Subspace:
    """Parse a subspace from text lines, one form per line."""
    forms = _parse_forms(_content_lines(lines), nvars)
    if not forms:
        raise FormSyntaxError("no forms supplied", 0)
    first = forms[0]
    return Subspace.span(first.nvars, first.degree, first.ring, forms)
