import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from levelalg.apolarity import inverse_system_slice
from levelalg.levelhf import HilbertFunction, burch_ideal, enumerate_level_hf
from levelalg.linalg import QQ


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


def monomial_residuals(sub):
    """Each ambient monomial of the Subspace sub reduced against its
    echelon basis, in Fractions, read at complement_positions(): minus the
    rest of its echelon row for a pivot monomial, a unit vector for any
    other.  The Fraction reference of the library's integer residuals."""
    comp = sub.complement_positions()
    pivot_row = dict(zip(sub.pivots, sub.rows))
    return [[-pivot_row[o][p] for p in comp] if o in pivot_row
            else [QQ(int(p == o)) for p in comp]
            for o in range(sub.ambient_dim)]
