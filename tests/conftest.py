import random
from functools import lru_cache
from itertools import count, permutations
from math import comb, gcd

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from levelalg.apolarity import _check_generators, _times_variables, inverse_system_slice
from levelalg.errors import AdmissibilityError, DegreeError
from levelalg.forms import Form, Subspace, divided_power_weights, monomial_products, space_dim
from levelalg.levelhf import HilbertFunction, burch_ideal, enumerate_level_hf
from levelalg.linalg import QQ, _integer_row, det, integer_echelon
from levelalg.partitions import partitions_in_box
from levelalg.secant import check_points


@lru_cache(maxsize=None)
def _action_table(nvars: int, j: int, i: int) -> tuple[dict, ...]:
    """x^alpha . y^beta for every x^alpha in R_j and y^beta in S_i, j <= i.

    Entry alpha (in monomial order) maps the index of each y^beta that
    x^alpha does not kill, beta = alpha + gamma, to (index of y^gamma in
    S_{i-j}, beta!/gamma!), the factor d^alpha/dy^alpha picks up on y^beta;
    the keys come in monomial order, which multiplying by x^alpha keeps.
    The reference of the library's differentiation, which reads the same
    products and weights without building the table.  The cache shares the
    dicts between callers, which only read them.
    """
    weights, low = divided_power_weights(nvars, i), divided_power_weights(nvars, i - j)
    return tuple({b: (g, weights[b] // low[g]) for g, b in enumerate(shift)}
                 for shift in monomial_products(nvars, j, i - j))


def burch_point(h: HilbertFunction):
    """The canonical point of the stratum of h: the inverse system of the
    Hilbert-Burch witness ideal in top degree."""
    _, gens = burch_ideal(h)
    return inverse_system_slice(gens, 2, h.d)


def power_sum_span(n: int, d: int, t: int, s: int) -> Subspace:
    """t forms in n variables, each a sum of s d-th powers of linear forms
    with coefficients in -3..3, drawn from random.Random(1)."""
    rng = random.Random(1)
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    forms = []
    for _ in range(t):
        total = Form.zero(n, d, "S")
        for _ in range(s):
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            total = total + Form.make(n, 1, "S", dict(zip(units, coeffs))).power(d)
        forms.append(total)
    return Subspace.span(n, d, "S", forms)


def tangent_pool_points():
    """The Burch points of the tangent benchmark's pool: two per (t, d)
    cell, t = 2..6, t <= d <= 16, at the evenly spread positions
    (2i + 1) len / 4 of the cell's enumeration."""
    for t in range(2, 7):
        for d in range(t, 17):
            hs = enumerate_level_hf(t, d)
            for j in sorted({(2 * i + 1) * len(hs) // 4 for i in range(2)}):
                yield burch_point(hs[j])


def moved_burch_point(h: HilbertFunction, rng: random.Random):
    """A stratum point moved off the monomial locus by a random invertible
    integer change of coordinates."""
    _, gens = burch_ideal(h)
    while True:
        m = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            break
    return inverse_system_slice([g.substitute_linear(m) for g in gens], 2, h.d)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def all_level_hfs(t_max: int, d_max: int):
    for t in range(1, t_max + 1):
        for d in range(max(t - 1, 1), d_max + 1):
            if t > d + 1:
                continue
            for h in enumerate_level_hf(t, d):
                yield h


def complement_positions(sub):
    """The monomial positions that are no pivot of the Subspace sub: the
    coordinates of its quotient space."""
    return [c for c in range(sub.ambient_dim) if c not in sub.pivots]


def monomial_residuals(sub):
    """Each ambient monomial of the Subspace sub reduced against its
    echelon basis, in Fractions, read at complement_positions(sub): minus
    the rest of its echelon row for a pivot monomial, a unit vector for any
    other.  The Fraction reference of the library's integer residuals."""
    comp = complement_positions(sub)
    pivot_row = dict(zip(sub.pivots, sub.rows))
    return [[-pivot_row[o][p] for p in comp] if o in pivot_row
            else [QQ(int(p == o)) for p in comp]
            for o in range(sub.ambient_dim)]


def ideal_slice_stream(gens, nvars: int):
    """I_0, I_1, ... of the ideal generated by gens, through the first that is
    all of R_j (without end if none is), each as linalg.integer_echelon's
    rows: I_j is spanned by the degree-j generators and x_i * I_{j-1}.  The
    reference of the ideal slices that apolarity.socle reads off the inverse
    system instead."""
    _check_generators(gens, nvars)
    prev: list[list[int]] = []
    for j in count():
        width = space_dim(nvars, j)
        products = [[v.get(c, 0) for c in range(width)] for v in _times_variables(
            nvars, j - 1, [{c: x for c, x in enumerate(row) if x} for row in prev])]
        prev = integer_echelon([_integer_row(g.vector()) for g in gens if g.degree == j]
                               + products, width)[0]
        yield prev
        if len(prev) == width:
            return


def jordan_apolar_basis(factors: list[tuple], m: int) -> Subspace:
    """Apolar subspace of a factored binary operator, in closed form.

    For u = prod (a_i x1 + b_i x2)^{mu_i} with the points [a_i : b_i]
    pairwise distinct and sum(mu_i) <= m, the forms of degree m apolar to u
    are spanned by S_{mu_i - 1} (b_i y1 - a_i y2)^{m - mu_i + 1} (Jordan's
    lemma; Iarrobino-Kanev, LNM 1721, Lemma 1.31), so the result has
    dimension exactly sum(mu_i).  The Fraction reference of the library's
    inverse-system route, secant.gad_subspace.
    """
    pts = check_points([(a, b) for a, b, _ in factors])
    mus = [mu for _, _, mu in factors]
    if any(mu < 1 for mu in mus):
        raise AdmissibilityError("factor multiplicities must be >= 1")
    total = sum(mus)
    if total > m:
        raise DegreeError(f"sum of multiplicities {total} exceeds target degree {m}")
    basis = []
    for (a, b), mu in zip(pts, mus):
        dual_pow = Form.make(2, 1, "S", {(1, 0): b, (0, 1): -a}).power(m - mu + 1)
        basis += [Form.monomial(2, "S", (alpha, mu - 1 - alpha)) * dual_pow
                  for alpha in range(mu)]
    sub = Subspace.span(2, m, "S", basis)
    assert sub.dim == total, "Jordan basis lost rank"
    return sub


def row_space_intersection(a_rows, b_rows, ncols: int) -> list:
    """Canonical echelon basis of rowspace(a) ∩ rowspace(b), as Fraction
    rows: the a-parts sum c_i a_i of the kernel vectors c of the stacked
    columns [a | b], by two Gauss-Jordan eliminations of the Bareiss loop.  The reference of
    the library's kernel-of-kernels route, forms.subspace_intersect, which
    takes no Gauss-Jordan kernel."""
    if not a_rows or not b_rows:
        return []
    cols = list(zip(*map(_integer_row, (*a_rows, *b_rows))))
    width = len(a_rows) + len(b_rows)
    combos = bareiss_kernel(*bareiss_echelon(cols, width), width)
    vectors = [[sum(c * x for c, x in zip(combo[:len(a_rows)], col)) for col in cols]
               for combo in combos]
    rows, _, den = bareiss_echelon(vectors, ncols)
    return [[QQ(x, den) for x in row] for row in rows]


# -- the Bareiss loop, the reference of the library's elimination core -------

def _bareiss(m, ncols: int, jordan: bool):
    """Fraction-free elimination of the integer rows m (an iterable), zero
    rows dropped, dividing every update exactly by the previous pivot
    (Bareiss, Math. Comp. 1968).

    The pivot is the topmost row nonzero in the first column that has one.
    A row that is zero in the pivot column would only be scaled by pivot /
    previous pivot, so it is left as it is and level[i] holds the pivot it
    is scaled to.  Returns (rows, pivots, pivot): one integer row per pivot
    column and the last pivot `pivot` (1 if none).  With jordan, every other
    row is cleared at each pivot, and each row equals `pivot` at its pivot
    column and is zero at the other pivot columns.  Without it only the rows
    below each pivot are updated, and the entries of row k are (k + 1)-minors
    of m.
    """
    a = [list(row) for row in m if any(row)]
    nrows = len(a)
    level = [1] * nrows
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for p in range(r, nrows):
            if a[p][c]:
                break
        else:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            level[r], level[p] = level[p], level[r]
        prow = a[r]
        if level[r] != prev:
            prow = a[r] = [x * prev // level[r] for x in prow]
        pv = prow[c]
        for i in range(0 if jordan else r + 1, nrows):
            row = a[i]
            f = row[c]
            if f and i != r:
                a[i] = [(pv * x - f * y) // level[i] for x, y in zip(row, prow)]
                level[i] = pv
        level[r] = pv
        pivots.append(c)
        prev = pv
    if not jordan:
        return a[:len(pivots)], pivots, prev
    echelon = [row if lv == prev else [x * prev // lv for x in row]
               for row, lv in zip(a, level[:len(pivots)])]
    return echelon, pivots, prev


def bareiss_echelon(m, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """(echelon, pivots, den) of the integer rows m by the Gauss-Jordan
    Bareiss loop: the reduced row echelon form times its least common
    denominator den > 0, one row per pivot column."""
    rows, pivots, pivot = _bareiss(m, ncols, True)
    g = gcd(pivot, *[gcd(*row) for row in rows]) * (-1 if pivot < 0 else 1)
    return [[x // g for x in row] for row in rows], pivots, pivot // g


def bareiss_kernel(echelon, pivots, den: int, ncols: int) -> list[list[int]]:
    """The right kernel from bareiss_echelon's (echelon, pivots, den), one
    vector per free column f in order: den at f and -row[f] at the pivot
    column of each echelon row, over its content."""
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = den
        for row, c in zip(echelon, pivots):
            v[c] = -row[f]
        g = gcd(*v)
        kernel.append([x // g for x in v])
    return kernel


# -- s_lam[mX] in the Schur basis of t variables, without LR or Kronecker ----

@lru_cache(maxsize=None)
def _skew_dim(nu: tuple, kappa: tuple, m: int) -> int:
    """s_{nu/kappa}(1^m), the Jacobi-Trudi determinant
    det[h_{nu_a - kappa_b - a + b}(1^m)] with h_k(1^m) = C(m + k - 1, k)
    (Macdonald, Symmetric Functions, I.5), for m >= 1."""
    size = len(nu)
    kappa += (0,) * (size - len(kappa))
    return int(det([[QQ(comb(m + k - 1, k)) if k >= 0 else QQ(0)
                     for b in range(size) for k in [nu[a] - kappa[b] - a + b]]
                    for a in range(size)])) if size else 1


@lru_cache(maxsize=None)
def _block_branching(nu: tuple, blocks: int, m: int) -> dict:
    """{alpha: coefficient of x_1^alpha_1 ... x_blocks^alpha_blocks} in
    s_nu(x_1 1^m, ..., x_blocks 1^m), each x_a repeated m times: the sum
    over chains of partitions ending at nu of the products of
    x_a^{|nu_a / nu_{a-1}|} s_{nu_a / nu_{a-1}}(1^m), branched off the last
    block."""
    if blocks == 1:
        return {(sum(nu),): _skew_dim(nu, (), m)}
    out: dict = {}
    for kappa in partitions_in_box(len(nu), nu[0] if nu else 0):
        if any(k > p for k, p in zip(kappa, nu)):
            continue
        c = _skew_dim(nu, kappa, m)
        if c:
            for alpha, a in _block_branching(kappa, blocks - 1, m).items():
                key = alpha + (sum(nu) - sum(kappa),)
                out[key] = out.get(key, 0) + a * c
    return out


def plethystic_schur_coefficients(lam, t: int, m: int) -> dict:
    """{rho: c_rho} with s_lam[mX] = sum c_rho s_rho(x_1, ..., x_t), each
    x_a repeated m times, so c_rho = sum_mu g(lam, rho, mu) dim S_mu(k^m):
    the coefficient of x^(rho + delta) in s_lam[mX] times the Vandermonde
    (Fulton-Harris, Representation Theory, 24), read off the block
    branching."""
    coeffs = _block_branching(tuple(lam), t, m)
    delta = range(t - 1, -1, -1)
    w, out = sum(lam), {}
    for rho in partitions_in_box(t, w, w):
        padded = rho + (0,) * (t - len(rho))
        c = 0
        for perm in permutations(range(t)):
            inversions = sum(a > b for j, a in enumerate(perm) for b in perm[j + 1:])
            alpha = tuple(p + da - delta[k] for p, da, k in zip(padded, delta, perm))
            c += (-1) ** inversions * coeffs.get(alpha, 0)
        if c:
            out[rho] = c
    return out
