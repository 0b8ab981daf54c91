"""Timings and source counts of the library as markdown, for CI's job summary
or a hand run: `python tools/timings.py`, no options, test extra installed.

Each case runs once, IN_PROCESS then CLI, its lines under its docstring.  The
in-process cases share this interpreter.  Each CLI case times `cli.main(argv)`
alone, stdout captured, in a fresh interpreter so that its caches start cold.
The exit status is 1 if a CLI call exits non-zero or a pinned md5 differs.
"""

import ast
import contextlib
import dataclasses
import hashlib
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path[:0] = [SRC, str(ROOT / "tests")]

from conftest import (burch_point, power_sum_span, random_subspace,  # noqa: E402
                      tangent_pool_points)
from levelalg import apolarity, levelhf, linalg, secant, tangent  # noqa: E402
from levelalg.forms import Form, form_print, monomials  # noqa: E402

MOVE = [[3, -4], [4, 3]]
LASCOUX_MD5 = "87ebc6cc73c89ac8eaaa78735a393b0b"  # of its 184,758 lines

# The script of a fresh interpreter: its first argument is the path to import
# levelalg from.  CHILD writes the seconds of cli.main on the rest of its
# arguments, then the call's stdout, and exits with the call's exit code.
PRELUDE = "import sys\nsys.path.insert(0, sys.argv.pop(1))\n"
CHILD = PRELUDE + """\
import contextlib, io, time
from levelalg import cli
out, start = io.StringIO(), time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
sys.stdout.write(f"{time.perf_counter() - start!r}\\n" + out.getvalue())
sys.exit(code)
"""


class GateFailure(Exception):
    """A CLI call exited non-zero, or its stdout has not the pinned md5."""


def fresh(code: str, *args: str) -> str:
    """The stdout of `python -c code SRC *args`."""
    done = subprocess.run([sys.executable, "-c", code, SRC, *args],
                          capture_output=True, text=True)
    if done.returncode:
        raise GateFailure(f"{' '.join(args)}: exit {done.returncode}, {done.stderr.strip()}")
    return done.stdout


def levelalg(argv: list[str], shown: str = "") -> tuple[str, str]:
    """The line of cli.main(argv) in a fresh interpreter, shown for argv, and its stdout."""
    seconds, _, out = fresh(CHILD, *argv).partition("\n")
    return f"levelalg {shown or ' '.join(argv)}: {float(seconds) * 1e3:.1f} ms", out


@contextlib.contextmanager
def recording(*targets):
    """Wrap each (module, name) of targets so that each call appends its (args,
    result) to calls[name], the dict yielded; restore every name on exit."""
    calls = {name: [] for _, name in targets}
    saved = [(module, name, getattr(module, name)) for module, name in targets]
    try:
        for module, name, func in saved:
            def call(*args, func=func, log=calls[name]):
                out = func(*args)
                log.append((args, out))
                return out
            setattr(module, name, call)
        yield calls
    finally:
        for module, name, func in saved:
            setattr(module, name, func)


def timed(run, *args):
    """run(*args) and its milliseconds."""
    start = time.perf_counter()
    return run(*args), (time.perf_counter() - start) * 1e3


def workload_hfs(t: int, d: int):
    """The Hilbert functions of the two workload Burch points of (t, d)."""
    hs = levelhf.enumerate_level_hf(t, d)
    return hs[len(hs) // 4], hs[3 * len(hs) // 4]


def moved(h):
    """The generators of h's Burch ideal moved by MOVE, and their inverse
    system in degree d."""
    gens = [g.substitute_linear(MOVE) for g in levelhf.burch_ideal(h)[1]]
    return gens, apolarity.inverse_system_slice(gens, 2, h.d)


def seeded_forms(n: int, d: int, count: int) -> list:
    """count forms of S_d in n variables, coefficients in -3..3 from
    random.Random(1)."""
    rng = random.Random(1)
    return [Form.make(n, d, "S", {m: rng.randint(-3, 3) for m in monomials(n, d)})
            for _ in range(count)]


def docstring_lines(src: str) -> set[int]:
    """The numbers of the lines that module, class and function docstrings
    span."""
    doc = set()
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node) is not None):
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return doc


def code_lines(src: str) -> int:
    """The lines outside docstrings, comments and blank lines."""
    doc = docstring_lines(src)
    return sum(1 for k, line in enumerate(src.splitlines(), 1)
               if k not in doc and line.strip() and not line.strip().startswith("#"))


def source_counts():
    """Source counts"""
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "src" / "levelalg").glob("*.py"))}
    rows = [(name, text.count("\n"), code_lines(text), len(docstring_lines(text)))
            for name, text in texts.items()]
    tests = sum(p.read_text(encoding="utf-8").count("\n") for p in (ROOT / "tests").glob("*.py"))
    init = [n for n in ast.parse(texts["__init__.py"]).body if isinstance(n, ast.ImportFrom)]
    yield f"src/ lines: {sum(r[1] for r in rows)}; tests/ lines: {tests}"
    yield f"levelalg public names: {sum(len(n.names) for n in init)}"
    yield "\n| module | lines | code lines | docstring lines |\n| --- | ---: | ---: | ---: |"
    yield from (f"| src/levelalg/{name} | {lines} | {code} | {doc} |"
                for name, lines, code, doc in rows)
    code, doc = sum(r[2] for r in rows), sum(r[3] for r in rows)
    yield f"\nsrc/ code lines outside docstrings, comments and blank lines: {code}"
    yield f"src/ docstring lines: {doc}"


def tangent_6_16():
    """Tangent route at the (6, 16) workload Burch points and one moved point"""
    # the chain steps stop at the first zero slice; the V_i kernels are the
    # row route's sparse_kernel calls.  The monomial Burch points take
    # neither: their slices are read off divisibility, and their
    # constraints are ranked as a graph (the graph route)
    first, second = workload_hfs(6, 16)
    for name, lam in ((first.format(), burch_point(first)), (second.format(), burch_point(second)),
                      (f"{first.format()} moved by {MOVE}", moved(first)[1])):
        monomial = all(sum(map(bool, v)) == 1 for v in lam.echelon)
        # the second call reads the annihilator slices held on lam
        for label in ("cold", "same subspace again"):
            with recording((apolarity, "_chain_step"), (tangent, "sparse_kernel")) as calls:
                ts, elapsed = timed(tangent.tangent_space, lam)
                kernels = len(calls["sparse_kernel"])
                # the route only ranks the constraints; their kernel and
                # the basis wait for the first basis access
                basis_ms = timed(getattr, ts, "basis")[1]
            steps = len(calls["_chain_step"])
            slices = (f"slices by the divisibility read ({steps} chain steps)"
                      if monomial else f"{steps} chain steps of d = {lam.degree}")
            yield (f"tangent_space, {label}, at {name}: {elapsed:.2f} ms, "
                   f"{route(ts, kernels)}, {slices}, "
                   f"first basis access (constraint kernel included) {basis_ms:.2f} ms")
        # the slices alone, on a copy that holds none, after the cold call
        # so that both read the same warm tables
        chain_ms = timed(apolarity._slices, dataclasses.replace(lam))[1]
        reader = "divisibility read" if monomial else "derivative chain"
        yield f"{reader} alone (apolarity._slices on a fresh copy) at {name}: {chain_ms:.2f} ms"


def route(ts, kernels: int) -> str:
    """The route of a TangentSpace, with its size: the graph route's
    unknowns and components (ground's included), or the row route's
    constraint rows and the V_i kernels it took."""
    rows, cols = ts.constraint_shape
    forest = ts.constraints[3]
    if forest is not None:
        return f"graph: {cols} unknowns, {sum(a == p for a, p in enumerate(forest))} components"
    return f"rows {rows}x{cols}, {kernels} V_i kernels"


def tangent_pool():
    """Warm tangent_space over the Burch points of the tangent_burch pool"""
    # a first call holds each point's slices, as the benchmark's second
    # pass finds them; the route counts come from that call
    points = list(tangent_pool_points())
    routes: dict[str, int] = {}
    for lam in points:
        name = "rows" if tangent.tangent_space(lam).constraints[3] is None else "graph"
        routes[name] = routes.get(name, 0) + 1
    best = min(timed(lambda: [tangent.tangent_space(lam) for lam in points])[1]
               for _ in range(5))
    counts = ", ".join(f"{name} {count}" for name, count in sorted(routes.items()))
    yield (f"warm tangent_space over the {len(points)} pool points (min of 5 passes): "
           f"{best:.2f} ms; routes: {counts}")


def power_sums():
    """Tangent space at seeded power-sum spans (n, d, t, s)"""
    # entries wider than 61 bits send the route to linalg.certified_rank: the
    # rows a pass mod 2^61 - 1 keeps, and whether its check fell back to exact
    for key in ((3, 8, 3, 5), (4, 6, 2, 5)):
        lam = power_sum_span(*key)
        with recording((linalg, "_modular_pivot_rows"), (linalg, "sparse_rank")) as calls:
            ts, route_ms = timed(tangent.tangent_space, lam)
            basis_ms = timed(getattr, ts, "basis")[1]
        rows, cols = ts.constraint_shape
        kept = [len(out) for _, out in calls["_modular_pivot_rows"]]
        if not kept:
            route = "exact (linalg.sparse_rank)"
        elif calls["sparse_rank"]:
            route = f"modular, {kept[0]} rows kept, check failed: exact (linalg.sparse_rank)"
        else:
            route = f"certified modular (linalg.certified_rank), {kept[0]} of {rows} rows kept"
        yield (f"tangent_space at the seeded power-sum span (n, d, t, s) = {key}: "
               f"{(route_ms + basis_ms) / 1e3:.2f} s, of which the first basis access "
               f"{basis_ms / 1e3:.2f} s; constraints {rows}x{cols}, dimension {ts.dimension}; "
               f"rank route: {route}")


def apolar_profiles():
    """Apolar profile at seeded n ≥ 3 spans"""
    spans = [(f"dense span (n, d, t) = {key}", random_subspace(random.Random(1), *key))
             for key in ((4, 6, 3), (4, 5, 4))]
    spans += [(f"power-sum span (n, d, t, s) = {key}", power_sum_span(*key))
              for key in ((3, 8, 3, 5), (4, 6, 2, 5))]
    for name, lam in spans:
        profile, elapsed = timed(apolarity.apolar_profile, lam)
        counts = ", ".join(f"{j}: {len(forms)}" for j, forms in profile.generators)
        yield (f"apolar_profile at the seeded {name}: {elapsed / 1e3:.2f} s, "
               f"generators (degree: count) {counts}")


def moved_4_12():
    """Apolar profile and secant round trip at the moved (4, 12) workload Burch points"""
    for h in workload_hfs(4, 12):
        gens, lam = moved(h)
        fresh_lam = dataclasses.replace(lam)
        # the profile runs the derivative chain and the apolar pass; the
        # decomposition reads both off lam
        profile_ms = timed(apolarity.apolar_profile, lam)[1]
        planes, decompose_ms = timed(secant.secant_decompose, lam)
        intersect_ms = timed(secant.secant_intersect, planes)[1]
        yield (f"moved Burch point {h.format()}: apolar_profile {profile_ms:.1f} ms, "
               f"secant_decompose {decompose_ms:.1f} ms, secant_intersect {intersect_ms:.1f} ms")
        # deterministic counts, on a second, untimed round: the rows each
        # chain step hands the core, and the row reductions of each stage
        combines = dict.fromkeys(("chain", "pass", "inverse systems", "certificate"), 0)
        with recording((apolarity, "_chain_step"), (linalg, "_sparse_combine"),
                       (apolarity, "_sparse_combine")) as calls:
            def stage(name, run, *args):
                before = len(calls["_sparse_combine"])
                out = run(*args)
                combines[name] += len(calls["_sparse_combine"]) - before
                return out
            stage("inverse systems", apolarity.inverse_system_slice, gens, 2, h.d)
            stage("chain", apolarity._slices, fresh_lam)
            stage("pass", apolarity.apolar_profile, fresh_lam)
            stage("inverse systems", secant.secant_intersect,
                  stage("certificate", secant.secant_decompose, fresh_lam))
        rows = sum(len(shifted) + len(new) for (_, _, (shifted, new)), _ in calls["_chain_step"])
        counts = ", ".join(f"{name} {count}" for name, count in combines.items())
        yield (f"moved Burch point {h.format()}: {rows} rows handed to the core in "
               f"{len(calls['_chain_step'])} chain steps; _sparse_combine calls: {counts}")


def round_trip():
    """Binary secant round trip"""
    # every level Hilbert function with t <= 4 and d <= 12, at its Burch
    # point moved by a seeded invertible change of coordinates
    rng, spent = random.Random(1), {}
    hs = [h for t in range(1, 5) for d in range(max(t - 1, 1), 13)
          for h in levelhf.enumerate_level_hf(t, d)]

    def lap(run, *args):
        out, ms = timed(run, *args)
        spent[run.__name__] = spent.get(run.__name__, 0) + ms
        return out

    for h in hs:
        move = [[0, 0], [0, 0]]
        while move[0][0] * move[1][1] == move[0][1] * move[1][0]:
            move = [[rng.choice((-4, -3, 3, 4)) for _ in range(2)] for _ in range(2)]
        gens = [g.substitute_linear(move) for g in levelhf.burch_ideal(h)[1]]
        lam = lap(apolarity.inverse_system_slice, gens, 2, h.d)
        lap(apolarity.apolar_profile, lam)
        lap(secant.secant_intersect, lap(secant.secant_decompose, lam))
    yield (f"binary secant round trip at {len(hs)} moved Burch points (t <= 4, d <= 12): "
           f"{sum(spent.values()):.0f} ms; "
           + ", ".join(f"{name} {ms:.0f} ms" for name, ms in spent.items()))


def startup():
    """Interpreter start-up"""
    ms = timed(fresh, PRELUDE + "import levelalg.cli")[1]
    yield (f"interpreter start-up, `import levelalg.cli` in a fresh interpreter: {ms:.0f} ms; "
           "each levelalg line times `cli.main(argv)` alone")


def rank_loci():
    """E1 tables, Porteous class and candidate components"""
    # all but the components, built from their partitions alone, read the
    # Schur-class kernel of levelalg.schubert; (2, 8, 4, 1) has the most
    # Jacobi-Trudi minors of the complete E1 tables
    for argv in ("e1-table -t 2 -d 9 -i 6 -r 4 -m 0 --cap-weight 24",
                 "e1-table -t 2 -d 10 -i 7 -r 4 -m 0 --cap-weight 32",
                 "e1-table -t 2 -d 8 -i 4 -r 1 -m 0 --cap-weight 40",
                 "porteous -t 4 -d 10 -i 8 -r 4",
                 "components -t 5 -d 32 -i 28 -r 24", "components -t 6 -d 40 -i 36 -r 30"):
        yield levelalg(argv.split())[0]


def lascoux_box():
    """Lascoux terms of the 10 x 10 box at r = 0"""
    line, out = levelalg("lascoux-ranks -t 2 -d 13 -i 9 -r 0".split())
    digest = hashlib.md5(out.encode()).hexdigest()
    yield f"{line}; stdout md5 {digest}, gated"
    if digest != LASCOUX_MD5:
        raise GateFailure(f"stdout md5 {digest}, not {LASCOUX_MD5}")


def seeded_inputs():
    """hilbert, one-shot annihilator slices and Hankel ranks on seeded forms"""
    # the quartics once grew exponential coefficients (no result in 90 s).  A
    # first ann_slice or in_sigma computes all the slices: by the derivative
    # chain at the dense span, by divisibility at the Burch point
    h = workload_hfs(4, 12)[0]
    quartics, dense, burch = ("four seeded random quartics in 4 variables",
                              "the seeded dense span (4, 6, 3)", f"the Burch point {h.format()}")
    binary = "the seeded dense binary forms of degree 40"
    inputs = {quartics: seeded_forms(4, 4, 4), binary: seeded_forms(2, 40, 3),
              dense: random_subspace(random.Random(1), 4, 6, 3).basis, burch: burch_point(h).basis}
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "forms.txt"
        for args, name in (("hilbert", quartics), ("ann -i 5", dense), ("in-sigma -s 5", dense),
                           ("ann -i 5", burch), ("in-sigma -s 5", burch),
                           ("stacked-det -s 30", binary)):
            path.write_text("".join(form_print(g) + "\n" for g in inputs[name]), encoding="utf-8")
            command, *rest = args.split()
            yield levelalg([command, "--input", str(path), *rest], f"{args} at {name}")[0]
    yield levelalg(["hankel-rank", "-i", "20", "--", form_print(inputs[binary][0])],
                   f"hankel-rank -i 20 at the first of {binary}")[0]


IN_PROCESS = (source_counts, tangent_6_16, tangent_pool, power_sums, apolar_profiles, moved_4_12,
              round_trip)
CLI = (startup, rank_loci, lascoux_box, seeded_inputs)


def main() -> int:
    failed = False
    for case in IN_PROCESS + CLI:
        print(f"### {case.__doc__}\n", flush=True)
        try:
            for line in case():
                print(line, flush=True)
        except GateFailure as exc:
            failed = True
            print(f"**gate failed in {case.__name__}:** {exc}", flush=True)
        print(flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
