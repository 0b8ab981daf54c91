"""The three workloads: seeded item streams, item execution and answer checks.

An item is one user call (or a short fixed chain of calls) with the answer
the benchmark expects from it.  A stream yields items forever, one pass at a
time; every pass has the same family mix, and the seed decides the inputs
and their order.  `Item.prepare` builds the item's inputs (untimed) and the
workload's run function in `STREAMS` makes the calls and checks the answers
(timed).  A wrong answer raises `Mismatch`; the caller counts it and any
other exception as a failed item and goes on with the next one.

Library functions are always reached through their module
(`apolarity.apolar_profile(...)`), so a tracer that patches the module
attributes sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

from levelalg import apolarity, cli, forms, levelhf, secant, tangent

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
REFERENCE_DIR = os.path.join(HERE, "reference")


class Mismatch(Exception):
    """An item's output differs from the expected answer."""


@dataclass
class Item:
    family: str
    key: str
    build: object = None  # () -> payload, run untimed before the item
    expected: object = None
    payload: object = field(default=None, repr=False)

    def prepare(self):
        if self.payload is None and self.build is not None:
            self.payload = self.build()
        return self.payload


def _check(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


# -- pass layout -------------------------------------------------------------

def interleave(ranked):
    """Reorder a list sorted by cost so that every prefix samples all costs
    evenly (bit-reversed ranks).  A run cut short by its wall limit stops
    partway through a pass; this keeps the mix of that partial pass the same
    as a full pass's."""
    bits = max(1, (len(ranked) - 1).bit_length())
    ranks = (int(format(k, f"0{bits}b")[::-1], 2) for k in range(1 << bits))
    return [ranked[r] for r in ranks if r < len(ranked)]


def merge_evenly(families):
    """One pass from several families: each family's items, in their order,
    spread evenly over the pass, so that a partial pass has the full mix."""
    keyed = [((k + 0.5) / len(items), f, item)
             for f, items in enumerate(families) for k, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda x: x[:2])]


def _cells(ts, max_d):
    """(t, d) cells with t <= d <= max_d, interleaved by cost (d, then t)."""
    cells = sorted(((t, d) for t in ts for d in range(t, max_d + 1)),
                   key=lambda c: (c[1], c[0]))
    return tuple(interleave(cells))


def spread_pick(hs, k):
    """k members of hs at evenly spread fixed positions (fewer if hs is short)."""
    return [hs[j] for j in sorted({(2 * i + 1) * len(hs) // (2 * k) for i in range(k)})]


# -- stratum_roundtrip -----------------------------------------------------

STRATUM_CELLS = _cells((2, 3, 4), 12)


def _moved_burch_gens(h, matrix):
    _, gens = levelhf.burch_ideal(h)
    return [g.substitute_linear(matrix) for g in gens]


# Entries of the change of coordinates.  No zero or unit entries, so every
# moved point is generic: a zero entry leaves the point half monomial and up
# to three times cheaper than its neighbours in the same cell.
MOVE_ENTRIES = (-4, -3, 3, 4)


def _random_invertible(rng: random.Random):
    while True:
        m = [[rng.choice(MOVE_ENTRIES) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def stratum_stream(seed: int):
    """One item per (t, d) cell per pass, cells in a fixed interleaved order.

    Each cell holds two level Hilbert functions at fixed positions of its
    enumeration; the seed orders them (pass p takes the p-th, cyclically)
    and draws every change of coordinates.  A run of two passes or more
    covers every Hilbert function, so every seed does nearly the same work
    and the spread between seeds stays small."""
    rng = random.Random(seed)
    cells = [spread_pick(levelhf.enumerate_level_hf(*cell), 2) for cell in STRATUM_CELLS]
    for hs in cells:
        rng.shuffle(hs)
    npass = 0
    while True:
        for hs in cells:
            h = hs[npass % len(hs)]
            matrix = _random_invertible(rng)
            key = f"{h.format()} moved by {matrix}"
            yield Item("stratum", key,
                       build=lambda h=h, m=matrix: _moved_burch_gens(h, m),
                       expected=(h, levelhf.q_sequence(h)))
        npass += 1


def run_stratum(item: Item):
    h, q = item.expected
    gens = item.prepare()
    lam = apolarity.inverse_system_slice(gens, 2, h.d)
    _check(lam.dim == h.t, f"inverse system has dimension {lam.dim}, not {h.t}")
    profile = apolarity.apolar_profile(lam)
    _check(profile.hilbert.values == h.values, "Hilbert function differs")
    degrees = tuple(sorted(deg for deg, gs in profile.generators for _ in gs))
    _check(degrees == q, f"generator degrees {degrees} differ from q-sequence {q}")
    _check(profile.socle == ((h.d, h.t),), f"socle {profile.socle} is not level")
    planes = secant.secant_decompose(lam)
    _check(tuple(sorted(p.q for p in planes)) == q, "plane degrees differ")
    lam2, h2 = secant.secant_intersect(planes)
    _check(lam2 == lam, "re-intersected subspace differs")
    _check(h2.values == h.values, "re-intersected Hilbert function differs")


# -- tangent_burch -----------------------------------------------------------

TANGENT_CELLS = _cells(range(2, 7), 16)

# Monomial subspaces of ternary forms (n = 3), one line per subspace.
TERNARY_SUBSPACES = (
    ("y1^2", "y2^2", "y3^2"),
    ("y1^3", "y2^3", "y3^3"),
    ("y1^2*y2", "y2^2*y3", "y3^2*y1"),
    ("y1^4", "y2^4"),
    ("y1^4", "y2^4", "y3^4"),
    ("y1^3*y2", "y2^3*y3", "y3^3*y1"),
    ("y1^2*y2^2", "y3^4"),
    ("y1*y2*y3^2", "y1^4", "y2^4"),
)


def _burch_point(h):
    _, gens = levelhf.burch_ideal(h)
    return apolarity.inverse_system_slice(gens, 2, h.d)


def ternary_subspace(lines):
    return forms.parse_subspace_lines(lines, nvars=3)


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def tangent_pool():
    """Two Burch points per (t, d) cell, taken at fixed positions of the
    cell's enumeration, so that every seed runs the same points."""
    return [spread_pick(levelhf.enumerate_level_hf(*cell), 2) for cell in TANGENT_CELLS]


def tangent_stream(seed: int):
    """Per pass: the Burch points cell by cell in a fixed interleaved order,
    the ternary monomial subspaces and the Hankel-rank golden case, merged
    evenly.  The seed orders the points inside each cell and the ternary
    subspaces."""
    rng = random.Random(seed)
    cells = tangent_pool()
    ternary = load_reference("tangent_ternary.json")
    points: dict = {}

    def point(h):
        if h.values not in points:
            points[h.values] = _burch_point(h)
        return points[h.values]

    name, argv = HANKEL_GOLDEN
    golden = golden_text(name)
    while True:
        burch = [Item("burch", h.format(), build=lambda h=h: point(h),
                      expected=levelhf.dim_stratum(h))
                 for hs in cells for h in rng.sample(hs, len(hs))]
        ternaries = [Item("ternary", " | ".join(lines),
                          build=lambda lines=lines: ternary_subspace(lines),
                          expected=ternary[" | ".join(lines)])
                     for lines in rng.sample(TERNARY_SUBSPACES, len(TERNARY_SUBSPACES))]
        hankel = [Item("golden", name, build=lambda: argv, expected=golden)]
        yield from merge_evenly([burch, ternaries, hankel])


def run_tangent(item: Item):
    if item.family == "golden":
        run_cli_item(item)
        return
    lam = item.prepare()
    primal = tangent.tangent_space(lam)
    dual = tangent.tangent_space_dual(lam)
    _check(primal.dimension == dual.dimension,
           f"primal dimension {primal.dimension} != dual {dual.dimension}")
    _check(primal.dimension == item.expected,
           f"tangent dimension {primal.dimension}, expected {item.expected}")


# -- rank_loci_cli -----------------------------------------------------------

# The byte-stable CLI outputs under tests/golden/.  hankel-rank is the one
# golden case that reaches linalg, so it runs in tangent_burch instead and
# rank_loci_cli stays free of elimination.
GOLDEN_CASES = (
    ("hf_check_ex15.txt", ["hf-check", "1,2,3,4,5,5,4,3,0"]),
    ("burch_ex15.txt", ["burch", "1,2,3,4,5,5,4,3,0"]),
    ("porteous_2522.txt", ["porteous", "-t", "2", "-d", "5", "-i", "2", "-r", "2"]),
    ("lascoux_2754.txt", ["lascoux-ranks", "-t", "2", "-d", "7", "-i", "5", "-r", "4"]),
    ("components_2754.txt", ["components", "-t", "2", "-d", "7", "-i", "5", "-r", "4"]),
    ("sigma_dim_3_11_7.txt", ["sigma-dim", "-t", "3", "-d", "11", "-s", "7"]),
    ("schubert_mul.txt", ["schubert-mul", "-t", "2", "-d", "5", "10{3,3} + 6{4,2}", "{1,1}"]),
    ("hf_enumerate_25.txt", ["hf-enumerate", "-t", "2", "-d", "5"]),
    ("waring_witness_3_11_7.txt", ["waring-witness", "-t", "3", "-d", "11", "-s", "7"]),
    ("e1_table_2754_m0.txt", ["e1-table", "-t", "2", "-d", "7", "-i", "5", "-r", "4",
                              "-m", "0", "--cap-weight", "12"]),
    ("hf_partition_ex15.txt", ["hf-partition", "1,2,3,4,5,5,4,3,0"]),
)
HANKEL_GOLDEN = ("hankel_rank.txt", ["hankel-rank", "y1^7 + y2^7", "-i", "3"])


def golden_text(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def porteous_pool():
    """Rank loci Le(i, r) on G(t, S_d) with t in {2, 3}, d <= 9, a
    determinant of size e - r <= 12 and expected codimension at most
    dim G; larger determinants explode (Le(3,3) on G(3, S_9) takes 90 s)."""
    out = []
    for t in (2, 3):
        for d in range(3, 10):
            dim_g = t * (d + 1 - t)
            for i in range(1, d):
                e, f = t * (d - i + 1), i + 1
                for r in range(1, min(e, f)):
                    if e - r <= 12 and (e - r) * (f - r) <= dim_g:
                        out.append(["porteous", "-t", str(t), "-d", str(d),
                                    "-i", str(i), "-r", str(r)])
    return out


def _tdir(cmd, t, d, i, r, *extra):
    return [cmd, "-t", str(t), "-d", str(d), "-i", str(i), "-r", str(r), *extra]


CLI_POOLS = {
    "components": [_tdir("components", *p) for p in (
        (2, 7, 5, 4), (2, 12, 8, 6), (3, 12, 8, 6), (3, 15, 10, 8), (4, 16, 12, 10),
        (4, 20, 15, 12), (5, 24, 18, 14), (5, 32, 28, 24))],
    "e1-table": [_tdir("e1-table", *p) for p in (
        (2, 7, 4, 3, "-m", "0", "--cap-weight", "16"),
        (2, 7, 5, 4, "-m", "1", "--cap-weight", "14"),
        (2, 6, 4, 3, "-m", "0", "--cap-weight", "12"),
        (2, 8, 6, 5, "-m", "0", "--cap-weight", "12"))],
    "lascoux-ranks": [_tdir("lascoux-ranks", *p) for p in (
        (2, 5, 2, 2), (2, 7, 4, 3), (2, 8, 6, 5), (3, 7, 4, 4), (3, 9, 6, 5),
        (2, 9, 6, 4))],
    "schubert-mul": [["schubert-mul", "-t", t, "-d", d, a, b] for t, d, a, b in (
        ("2", "5", "{2,1}", "{1}"), ("2", "7", "{3,1}", "{2,2}"),
        ("3", "7", "{2,1}", "{2,1}"), ("3", "9", "{3,2,1}", "{2,1}"),
        ("2", "9", "{4,2}", "{3,1}"), ("3", "8", "{2,2,1} + {3,1}", "{1,1}"))],
    "kronecker": [["kronecker", *p] for p in (
        ("2,1", "2,1", "2,1"), ("3,2,1", "3,2,1", "3,2,1"), ("4,2", "3,3", "2,2,2"),
        ("4,3,2,1", "4,3,2,1", "5,3,2"), ("3,3,2", "4,2,2", "3,3,1,1"),
        ("5,3", "4,4", "3,3,2"))],
    "bott": [["bott", *p] for p in (
        ("--", "-1,-1,-1,-1;4"), ("2,1,0;3,1",), ("3,1;2,2,0",), ("0,0,0;1,1",),
        ("4,2,1;0,0",), ("--", "-2,-3;1,0,0"))],
}
PORTEOUS_PER_PASS = 28


def porteous_cost(argv) -> int:
    """dim G(t, S_d) + e - r: ranks the pool's cold costs (0.013 to 2.4 s)
    with Spearman correlation 0.98."""
    t, d, i, r = (int(argv[k]) for k in (2, 4, 6, 8))
    return t * (d + 1 - t) + t * (d - i + 1) - r


def porteous_strata():
    """The Porteous pool sorted by cost and cut into PORTEOUS_PER_PASS
    strata of neighbouring costs."""
    pool = sorted(porteous_pool(), key=lambda a: (porteous_cost(a), a))
    n = PORTEOUS_PER_PASS
    return [pool[k * len(pool) // n:(k + 1) * len(pool) // n] for k in range(n)]


def rank_loci_stream(seed: int):
    """Per pass: every argv of each small family in seeded order, the golden
    argv lists in seeded order and one Porteous argv from each cost stratum
    (pass p takes the p-th, cyclically) by rising cost, merged evenly.
    Every pass costs about the same, and three passes cover the Porteous
    pool.  The Porteous sequence is the same for every seed: an argv's cost
    depends on what the shared caches already hold, and letting the seed
    decide which costly argvs run first moved the tail latency by a fifth."""
    rng = random.Random(seed)
    reference = load_reference("rank_loci_cli.json")
    strata = porteous_strata()
    goldens = [(name, argv, golden_text(name)) for name, argv in GOLDEN_CASES]
    npass = 0
    while True:
        picks = [stratum[npass % len(stratum)] for stratum in strata]
        npass += 1
        families = [[Item(family, argv_key(argv), build=lambda argv=argv: argv,
                          expected=reference[argv_key(argv)])
                     for argv in argvs]
                    for family, argvs in [*[(f, rng.sample(v, len(v))) for f, v in CLI_POOLS.items()],
                                          ("porteous", picks)]]
        families.append([Item("golden", name, build=lambda argv=argv: argv, expected=text)
                         for name, argv, text in rng.sample(goldens, len(goldens))])
        yield from merge_evenly(families)


def argv_key(argv) -> str:
    return " ".join(argv)


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_cli(argv) -> tuple[int, str]:
    """Run `levelalg.cli.main` in-process with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def run_cli_item(item: Item):
    rc, text = call_cli(item.prepare())
    _check(rc == 0, f"exit code {rc}")
    if item.family == "golden":
        _check(text == item.expected, "output differs from the golden file")
    else:
        _check(output_digest(text) == item.expected, "output differs from the reference")


STREAMS = {
    "stratum_roundtrip": (stratum_stream, run_stratum),
    "tangent_burch": (tangent_stream, run_tangent),
    "rank_loci_cli": (rank_loci_stream, run_cli_item),
}


# Item time of one pass at the reference host speed (perfbench/hostspeed.py)
# at the commit that added the benchmark.  A timed run of S seconds runs
# round(S / PASS_SECONDS) whole passes, the same number on every host.
PASS_SECONDS = {"stratum_roundtrip": 15.0, "tangent_burch": 14.5, "rank_loci_cli": 11.0}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def pass_size(workload: str) -> int:
    """Items per pass: the size of the fixed item list of a traced run."""
    if workload == "stratum_roundtrip":
        return len(STRATUM_CELLS)
    if workload == "tangent_burch":
        return sum(len(hs) for hs in tangent_pool()) + len(TERNARY_SUBSPACES) + 1
    return (sum(len(v) for v in CLI_POOLS.values()) + PORTEOUS_PER_PASS
            + len(GOLDEN_CASES))
