"""Secant planes of the rational normal curve and Waring loci.

A secant plane is always carried by its apolar operator u: the plane is the
projectivisation of the forms of degree d killed by u, which by Jordan's
lemma has dimension deg u (so projective dimension deg u - 1).  Operators
of degree d + 1 are allowed and carry the whole ambient space.  No roots
are ever extracted; every computation stays inside the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul

from .apolarity import (_apolar_pass, _condition_rows, _contract, _dense, _divided_power_row,
                        _divided_power_rows, ann_slice, inverse_system_slice)
from .errors import (
    AdmissibilityError,
    DegreeError,
    LevelAlgError,
    NotSquareError,
    PropernessError,
    WitnessError,
    ZeroSubspaceError,
)
from .forms import Form, Subspace
from .levelhf import HilbertFunction, dim_stratum, q_sequence
from .linalg import QQ, Matrix, det, rank, sparse_rank


@dataclass(frozen=True)
class SecantPlane:
    """A secant (q-1)-plane to C_d, represented by its apolar form u in R_q.

    q = d + 1 is the degenerate case of the full ambient space (every
    operator of degree d + 1 kills all of S_d).
    """

    apolar_form: Form
    ambient_degree: int

    def __post_init__(self):
        if self.apolar_form.is_zero:
            raise ZeroSubspaceError("a secant plane needs a nonzero apolar form")
        if self.apolar_form.ring != "R":
            raise DegreeError("the apolar form must be an operator (ring R)")
        if self.apolar_form.nvars != 2:
            raise DegreeError("the apolar form must be binary (two variables)")
        if self.apolar_form.degree > self.ambient_degree + 1:
            raise DegreeError(f"apolar degree {self.apolar_form.degree} exceeds d + 1 = "
                              f"{self.ambient_degree + 1}")

    @property
    def q(self) -> int:
        return self.apolar_form.degree

    @property
    def plane_dim(self) -> int:
        return self.q - 1

    def subspace(self) -> Subspace:
        """(u)^{-1}_d: the degree-d forms apolar to u, of dimension q."""
        # q = d + 1 kills all of S_d, and inverse_system_slice gives S_d
        return inverse_system_slice([self.apolar_form], self.apolar_form.nvars,
                                    self.ambient_degree)


def secant_decompose(lam: Subspace) -> list[SecantPlane]:
    """Express Lambda as an intersection of secant planes.

    The minimal generators of ann(Lambda) have degrees given by the
    q-sequence of the Hilbert function; each generator u cuts out the plane
    of forms apolar to it, and the intersection of all the planes is
    exactly Lambda.  The equality is certified and a failure signals an
    internal bug.  The Hilbert function and the generators come from the
    apolar pass shared with apolar_profile and minimal_generators, once per
    Lambda instance.

    The certificate, with J the ideal the u_k generate: the condition rows
    of the u_k (apolarity._condition_rows, spanning J_d in R_d) pair to 0
    with Lambda's divided-power rows, and their rank is d + 1 - t.  Proof
    that this holds iff the planes meet in Lambda: the planes meet in
    (J^{-1})_d, the forms of S_d every element of J_d kills, and u.F is the
    dot product of u in R_d with F's divided-power coordinates, a perfect
    pairing of R_d with S_d.  The first half says J_d lies in Lambda^perp,
    the operators of R_d killing Lambda, of dimension d + 1 - t; the second
    that dim J_d = d + 1 - t, so together J_d = Lambda^perp and
    (J^{-1})_d = (Lambda^perp)^perp = Lambda.  Conversely (J^{-1})_d =
    Lambda gives J_d = Lambda^perp, and both halves hold.  One forward
    elimination replaces the inverse system of the planes.
    """
    if lam.nvars != 2:
        raise DegreeError("secant decomposition is a two-variable operation")
    h, gens = _apolar_pass(lam)
    planes = [SecantPlane(g, lam.degree) for _, forms in gens for g in forms]
    if tuple(sorted(p.q for p in planes)) != q_sequence(h):
        raise LevelAlgError("internal bug: generator degrees do not match the q-sequence")
    rows = _condition_rows([p.apolar_form for p in planes], 2, lam.degree)
    lam_rows = [_dense(w, lam.ambient_dim) for w in _divided_power_rows(lam)]
    if (any(sum(x * w[c] for c, x in row.items()) for row in rows for w in lam_rows)
            or sparse_rank(rows) != lam.ambient_dim - lam.dim):
        raise LevelAlgError("internal bug: plane intersection is not Lambda")
    return planes


def secant_intersect(planes: list[SecantPlane]) -> tuple[Subspace, HilbertFunction]:
    """Intersect secant planes that meet properly.

    With t + 1 planes of degrees q_i in P(S_d), properness means the
    codimensions d + 1 - q_i add up to d - t + 1.  The result is the
    subspace Lambda (of dimension t) together with the Hilbert function
    h_i = 2 h_{i-1} - h_{i-2} - e_i forced by the degrees.
    """
    if not planes:
        raise PropernessError("no planes to intersect")
    d = planes[0].ambient_degree
    if any(p.ambient_degree != d for p in planes):
        raise PropernessError("planes live in different ambient degrees")
    t = len(planes) - 1
    if t < 1:
        raise PropernessError("need at least two planes")
    qs = sorted(p.q for p in planes)
    codim_sum = sum(d + 1 - q for q in qs)
    if codim_sum != d - t + 1:
        raise PropernessError(f"codimensions sum to {codim_sum}, expected d - t + 1 = {d - t + 1}")
    lam = inverse_system_slice([p.apolar_form for p in planes], 2, d)
    if lam.dim != t:
        raise PropernessError(f"intersection has dimension {lam.dim}, expected {t}: improper")
    values = [0, 1]  # h_{-1}, h_0
    for i in range(1, d + 1):
        values.append(2 * values[-1] - values[-2] - qs.count(i))
    return lam, HilbertFunction.from_values(values[1:])


def check_points(points) -> list[tuple]:
    """The pairs (a, b) as rationals, if they are pairwise distinct points of
    P^1; AdmissibilityError otherwise."""
    pts = [(QQ(a), QQ(b)) for a, b in points]
    for a, b in pts:
        if a == 0 and b == 0:
            raise AdmissibilityError("(0, 0) is not a point of P^1")
    for (i, (a1, b1)), (j, (a2, b2)) in combinations(enumerate(pts, start=1), 2):
        if a1 * b2 - a2 * b1 == 0:
            raise AdmissibilityError(f"points {i} and {j} are proportional")
    return pts


@dataclass(frozen=True)
class GAD:
    """A generalised additive decomposition pattern.

    `points` holds the coefficient pairs (c1, c2) of the pairwise
    nonproportional linear forms L_i = c1 y1 + c2 y2; `alphas` the
    exponents with -1 <= alpha_i < d.  The operator dual to L_i is
    c2 x1 - c1 x2 (the one annihilating every power of L_i).
    """

    points: tuple
    alphas: tuple

    def __post_init__(self):
        if len(self.points) != len(self.alphas):
            raise AdmissibilityError("points and exponents differ in length")
        check_points(self.points)
        if any(a < -1 for a in self.alphas):
            raise AdmissibilityError("exponents must be >= -1")

    @property
    def length(self) -> int:
        return sum(a + 1 for a in self.alphas)


def gad_subspace(g: GAD, d: int) -> Subspace:
    """W(alpha, L): forms admitting a GAD with the given pattern.

    The inverse system in degree d of u = prod (c2 x1 - c1 x2)^(alpha_i + 1),
    the forms of the secant plane u carries (Iarrobino-Kanev, LNM 1721,
    Lemma 1.31, Jordan's lemma), so its dimension is the length of the
    pattern; length d + 1 gives all of S_d.  Exponents -1 contribute
    nothing.
    """
    if any(a >= d for a in g.alphas):
        raise DegreeError("exponents must be < d")
    if g.length > d + 1:
        raise DegreeError(f"length {g.length} exceeds dim S_d = {d + 1}")
    factors = [Form.make(2, 1, "R", {(1, 0): c2, (0, 1): -c1}).power(alpha + 1)
               for (c1, c2), alpha in zip(g.points, g.alphas) if alpha >= 0]
    if not factors:
        return Subspace.zero(2, d, "S")
    return SecantPlane(reduce(mul, factors), d).subspace()


def hankel_matrix(f: Form, a: int) -> Matrix:
    """The (a+1) x (d-a+1) Hankel matrix [z_{r+c}] of a binary form
    F = sum a_i y1^{d-i} y2^i: row r is x1^{a-r} x2^r applied to F.

    The Hankel coordinates z_i = i! (d-i)! a_i, row 0 of
    hankel_matrix(f, 0), are F's divided-power coordinates, the values of
    the coordinate operators x1^{d-i} x2^i on F; in them the catalecticant
    matrices become genuine Hankel matrices with rank equal to the Hilbert
    function.
    """
    d = f.degree
    if not 0 <= a <= d:
        raise DegreeError(f"Hankel index {a} outside 0..{d}")
    if f.nvars != 2 or f.ring != "S":
        raise DegreeError("Hankel coordinates need a binary form in S")
    return [[QQ(x) for x in _dense(row, d - a + 1)]
            for row in _contract([_divided_power_row(2, d, f.vector())], 2, a, d - a)]


def hankel_rank(f: Form, a: int) -> int:
    """rank of the Hankel matrix; equals H(R/ann(F), a)."""
    return rank(hankel_matrix(f, a))


def _secant_counts(t: int, d: int, s: int) -> tuple[int, int]:
    """(N1, N2) = (s + t(s - t), t(d - t + 1)) if 1 <= t <= s <= d + 1,
    else DegreeError: the one place either count is computed."""
    if not 1 <= t <= s <= d + 1:
        raise DegreeError(f"need 1 <= t <= s <= d + 1, got (t, d, s) = ({t}, {d}, {s})")
    return s + t * (s - t), t * (d - t + 1)


def sigma_dim(t: int, d: int, s: int) -> int:
    """dim of the locus of t-spaces lying on a secant (s-1)-plane:
    min{N1, N2} = min{s + t(s - t), t(d - t + 1)}."""
    return min(_secant_counts(t, d, s))


def waring_witness_hf(t: int, d: int, s: int) -> HilbertFunction:
    """The level Hilbert function witnessing dim Sigma_s = N1 when N1 < N2.

    With m the unique integer satisfying (m+1) t > s >= m t, the witness is
    i+1 up to s-1, the constant s through d-m, then (d-i+1) t.  It has
    h_s = s and stratum dimension exactly N1.
    """
    n1, n2 = _secant_counts(t, d, s)
    if n1 >= n2:
        raise WitnessError(
            f"N1 = {n1} >= N2 = {n2}: the locus already fills the Grassmannian "
            "and no witness is needed"
        )
    m = s // t
    if s > d - m:
        raise LevelAlgError("internal bug: N1 < N2 but s > d - m")
    h = HilbertFunction(tuple(i + 1 if i < s else s if i <= d - m else (d - i + 1) * t
                              for i in range(d + 1)))
    if h[s] != s or dim_stratum(h) != n1:
        raise LevelAlgError("internal bug: witness does not have h_s = s and dimension N1")
    return h


def in_sigma(lam: Subspace, s: int) -> Form | None:
    """A nonzero degree-s apolar operator of Lambda, if one exists.

    Lambda lies on a secant (s-1)-plane iff ann(Lambda)_s is nonzero, iff
    the rank of the s-th catalecticant is at most s.  Returns the first
    echelon basis element as the witness, else None.
    """
    t = lam.dim
    if not t <= s <= lam.degree:
        raise DegreeError(f"need t <= s <= d, got s = {s}")
    slice_s = ann_slice(lam, s)
    return slice_s.basis[0] if slice_s.dim else None


def stacked_hankel(forms: list[Form], s: int) -> Matrix:
    """Hankel blocks of each form stacked vertically: t(d-s+1) rows, s+1 cols.

    Row block j is hankel_matrix(F_j, d - s), the d-s+1 Hankel rows of F_j,
    form outermost (so the determinant's sign is that of the blocks); the
    matrix drops rank exactly on the locus where span(F_1..F_t) meets a
    secant (s-1)-plane.
    """
    if not forms:
        raise ZeroSubspaceError("no forms given")
    d = forms[0].degree
    if any(f.degree != d or f.nvars != 2 or f.ring != "S" for f in forms):
        raise DegreeError("forms must be binary, in S, of one degree")
    if not 0 <= s <= d:
        raise DegreeError(f"need 0 <= s <= d, got s = {s}")
    return [row for f in forms for row in hankel_matrix(f, d - s)]


def stacked_catalecticant_det(forms: list[Form], s: int) -> Fraction:
    """Exact determinant of the stacked Hankel matrix when it is square.

    Square means t(d-s+1) = s+1; the determinant vanishes iff the span of
    the forms lies on a secant (s-1)-plane.  In the non-square case the
    canonical invariant is the rank, reported through NotSquareError.
    """
    m = stacked_hankel(forms, s)
    nrows, ncols = len(m), len(m[0])
    if nrows != ncols:
        r = rank(m)
        raise NotSquareError(f"stacked matrix is {nrows} x {ncols}; rank condition instead: "
                             f"rank {r} vs bound {s}", rank=r, bound=s)
    return det(m)


def hypersurface_case(t: int, d: int) -> tuple[int, int] | None:
    """When Sigma_s is a hypersurface in G(t, S_d): needs (t+1) | (d+2).

    Returns (s, d - s + 1) with s = d + 1 - (d+2)/(t+1); the second entry
    is the coefficient of the hyperplane class in the fundamental class.
    Returns None when the divisibility fails.
    """
    if (d + 2) % (t + 1) != 0:
        return None
    s = d + 1 - (d + 2) // (t + 1)
    return s, d - s + 1
