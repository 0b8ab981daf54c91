import random
from functools import lru_cache
from itertools import permutations
from math import comb

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from levelalg.apolarity import inverse_system_slice
from levelalg.forms import divided_power_weights, monomial_products
from levelalg.levelhf import HilbertFunction, burch_ideal, enumerate_level_hf
from levelalg.linalg import QQ, det, free_columns
from levelalg.partitions import partitions_in_box


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
    return free_columns(sub.pivots, sub.ambient_dim)


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
