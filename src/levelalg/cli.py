"""Command-line front end.

Every subcommand wraps exactly one library operation and prints structured
`key: value` lines (or one JSON object per line with --format json-lines).
Exit codes: 0 success, 2 domain error, 1 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import apolarity, bott, levelhf, resolution, schubert, secant, tangent
from .errors import InputSyntaxError, LevelAlgError
from .forms import form_parse, form_print, parse_subspace_lines
from .kronecker import DEFAULT_WEIGHT_CAP
from .kronecker import kronecker as kronecker_coefficient
from .levelhf import HilbertFunction


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"usage error: {message}\n")
        sys.exit(1)


class Emitter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.pairs: list[tuple[str, str]] = []

    def emit(self, key: str, value):
        self.pairs.append((key, str(value)))

    def flush(self):
        if self.fmt == "json-lines":
            lines = (json.dumps({"key": key, "value": value}) for key, value in self.pairs)
        else:
            lines = (f"{key}: {value}" for key, value in self.pairs)
        sys.stdout.write("".join(line + "\n" for line in lines))


def _read_lines(path: str) -> list[str]:
    """The stripped lines of a file ('-' is stdin) that are not blank or '#'."""
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise LevelAlgError(f"cannot read {path}: {exc.strerror}") from exc
    lines = (line.strip() for line in lines)
    return [line for line in lines if line and not line.startswith("#")]


def _subspace_from_input(args):
    lam = parse_subspace_lines(_read_lines(args.input))
    if lam.ring != "S":
        raise LevelAlgError("Lambda must be forms in y1..yn, not operators in x1..xn")
    return lam


def _forms_from_input(args, nvars=None, ring=None) -> list:
    out = [form_parse(line, nvars=nvars, ring=ring) for line in _read_lines(args.input)]
    if not out:
        raise LevelAlgError("no forms in input")
    return out


def _cmd_hf_check(args, em: Emitter):
    ok, idx = levelhf.is_level_hf(HilbertFunction.parse(args.sequence))
    em.emit("valid", "true" if ok else "false")
    if not ok:
        em.emit("failing_index", idx)


def _cmd_hf_enumerate(args, em: Emitter):
    hs = levelhf.enumerate_level_hf(args.t, args.d)
    em.emit("count", len(hs))
    for k, h in enumerate(hs, start=1):
        em.emit(f"hf.{k}", h.format())
        em.emit(f"dim.{k}", levelhf.dim_stratum(h))


def _cmd_hf_partition(args, em: Emitter):
    if args.mu is not None:
        if args.t is None or args.d is None:
            raise LevelAlgError("--mu needs -t and -d")
        mu = levelhf.partition_parse(args.mu)
        h = levelhf.hf_from_partition(mu, args.t, args.d)
        em.emit("hf", h.format())
    else:
        if not args.sequence:
            raise LevelAlgError("give a Hilbert function or --mu PARTITION with -t -d")
        h = HilbertFunction.parse(args.sequence)
        mu = levelhf.partition_from_hf(h)
        em.emit("partition", levelhf.partition_format(mu))
        em.emit("t", h.t)
        em.emit("d", h.d)


def _cmd_burch(args, em: Emitter):
    h = HilbertFunction.parse(args.sequence)
    matrix, gens = levelhf.burch_ideal(h)
    em.emit("q", ",".join(str(q) for q in levelhf.q_sequence(h)))
    e_seq = levelhf.e_sequence(h)
    em.emit("e", ",".join(str(e) for e in e_seq))
    for k, row in enumerate(matrix.entries, start=1):
        em.emit(f"matrix.row{k}",
                ", ".join(form_print(x) if x is not None else "0" for x in row))
    for k, g in enumerate(gens, start=1):
        em.emit(f"generator.{k}", form_print(g))
    em.emit("dim_stratum", levelhf.dim_stratum(h))


def _cmd_hilbert(args, em: Emitter):
    lam = _subspace_from_input(args)
    profile = apolarity.apolar_profile(lam)
    for key, value in profile.kv_lines():
        em.emit(key, value)


def _cmd_ann(args, em: Emitter):
    lam = _subspace_from_input(args)
    if args.i is not None:
        sl = apolarity.ann_slice(lam, args.i)
        em.emit("degree", sl.degree)
        em.emit("dim", sl.subspace.dim)
        for k, b in enumerate(sl.subspace.basis, start=1):
            em.emit(f"basis.{k}", form_print(b))
    else:
        for degree, gens in apolarity.minimal_generators(lam):
            for g in gens:
                em.emit(f"GENERATORS.{degree}", form_print(g))


def _cmd_socle(args, em: Emitter):
    gens = _forms_from_input(args, ring="R")
    nvars = max(g.nvars for g in gens)
    gens = [form_parse(form_print(g), nvars=nvars, ring="R") for g in gens]
    soc = apolarity.socle(gens, nvars)
    em.emit("SOCLE", "; ".join(f"{j}:{s}" for j, s in soc))
    em.emit("LEVEL", "true" if len(soc) == 1 else "false")
    em.emit("SOCLE_DEGREE", soc[-1][0])
    em.emit("TYPE", soc[-1][1])


def _cmd_tangent(args, em: Emitter):
    lam = _subspace_from_input(args)
    ts = tangent.tangent_space(lam)
    em.emit("dimension", ts.dimension)
    if args.shape:
        em.emit("constraints", f"{ts.constraint_shape[0]}x{ts.constraint_shape[1]}")
    if lam.nvars == 1:
        em.emit("note", "n = 1: G(1, S_d) is a point, whose tangent space is 0")
    elif lam.nvars == 2:
        em.emit("formula", levelhf.dim_stratum(ts.hilbert))
    else:
        # no closed formula for n >= 3: the tests check the dimension against
        # Hom_R(I, A)_0 built from the generators and syzygies of I instead
        em.emit("note", "n >= 3: dimension unverified against a closed formula")


def _cmd_secant_decompose(args, em: Emitter):
    lam = _subspace_from_input(args)
    planes = secant.secant_decompose(lam)
    em.emit("count", len(planes))
    for k, p in enumerate(planes, start=1):
        em.emit(f"plane.{k}.degree", p.q)
        em.emit(f"plane.{k}.dim", p.plane_dim)
        em.emit(f"plane.{k}.apolar", form_print(p.apolar_form))


def _cmd_secant_intersect(args, em: Emitter):
    ops = _forms_from_input(args, nvars=2, ring="R")
    planes = [secant.SecantPlane(u, args.d) for u in ops]
    lam, h = secant.secant_intersect(planes)
    em.emit("hf", h.format())
    em.emit("dim", lam.dim)
    for k, b in enumerate(lam.basis, start=1):
        em.emit(f"basis.{k}", form_print(b))


def _cmd_gad(args, em: Emitter):
    points, alphas = [], []
    for line in _read_lines(args.input):
        try:
            a, b, alpha = line.split(",")
            points.append((Fraction(a), Fraction(b)))
            alphas.append(int(alpha))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputSyntaxError(
                f"bad GAD line {line!r}: expected 'a,b,alpha' with rational a, b"
            ) from exc
    g = secant.GAD(tuple(points), tuple(alphas))
    sub = secant.gad_subspace(g, args.d)
    em.emit("length", g.length)
    em.emit("dim", sub.dim)
    for k, b in enumerate(sub.basis, start=1):
        em.emit(f"basis.{k}", form_print(b))


def _cmd_sigma_dim(args, em: Emitter):
    em.emit("dim", secant.sigma_dim(args.t, args.d, args.s))
    n1 = args.s + args.t * (args.s - args.t)
    n2 = args.t * (args.d - args.t + 1)
    em.emit("N1", n1)
    em.emit("N2", n2)


def _cmd_waring_witness(args, em: Emitter):
    h = secant.waring_witness_hf(args.t, args.d, args.s)
    em.emit("hf", h.format())
    em.emit("dim", levelhf.dim_stratum(h))


def _cmd_in_sigma(args, em: Emitter):
    lam = _subspace_from_input(args)
    w = secant.in_sigma(lam, args.s)
    em.emit("member", "true" if w is not None else "false")
    if w is not None:
        em.emit("witness", form_print(w))


def _cmd_stacked_det(args, em: Emitter):
    fs = _forms_from_input(args, nvars=2, ring="S")
    from .errors import NotSquareError

    try:
        value = secant.stacked_catalecticant_det(fs, args.s)
        em.emit("det", value)
        em.emit("member", "true" if value == 0 else "false")
    except NotSquareError as exc:
        em.emit("rank", exc.rank)
        em.emit("bound", exc.bound)
        em.emit("member", "true" if exc.rank <= exc.bound else "false")


def _cmd_hankel_rank(args, em: Emitter):
    f = form_parse(args.form, nvars=2, ring="S")
    em.emit("rank", secant.hankel_rank(f, args.i))


def _cmd_schubert_mul(args, em: Emitter):
    n = args.d + 1
    a = schubert.parse_class(args.a, args.t, n)
    b = schubert.parse_class(args.b, args.t, n)
    em.emit("product", schubert.format_class(schubert.lr_multiply(a, b)))


def _cmd_porteous(args, em: Emitter):
    cls = schubert.porteous_class(args.t, args.d, args.i, args.r)
    em.emit("class", schubert.format_class(cls))
    em.emit("codim", resolution.expected_codim(args.t, args.d, args.i, args.r))


def _cmd_bott(args, em: Emitter):
    try:
        blocks = [[int(p) for p in seg.split(",") if p.strip() != ""]
                  for seg in args.gamma.split(";")]
    except ValueError as exc:
        raise InputSyntaxError(f"bad weight sequence {args.gamma!r}") from exc
    gamma = [g for block in blocks for g in block]
    sizes = tuple(len(block) for block in blocks) if len(blocks) > 1 else None
    res = bott.bott_cohomology(gamma, blocks=sizes)
    if res.is_zero:
        em.emit("cohomology", "ZERO")
    else:
        em.emit("degree", res.degree)
        em.emit("dim", res.dimension)


def _cmd_kronecker(args, em: Emitter):
    from .partitions import parse_partition

    lam = parse_partition(args.lam)
    rho = parse_partition(args.rho)
    mu = parse_partition(args.mu)
    em.emit("coefficient", kronecker_coefficient(lam, rho, mu, cap=args.cap_weight))


def _cmd_lascoux_ranks(args, em: Emitter):
    table = resolution.lascoux_ranks(args.t, args.d, args.i, args.r)
    em.emit("codim", table.codim)
    em.emit("ranks", ",".join(str(x) for x in table.ranks()))
    for p in sorted(table.terms, reverse=True):
        for s in table.terms[p]:
            lam_text = ",".join(str(x) for x in s.lam) if s.lam else "0"
            em.emit(f"term.{-p}", f"lambda=({lam_text}) rank={s.rank}")


def _cmd_components(args, em: Emitter):
    rep = resolution.c1_c2_analysis(args.t, args.d, args.i, args.r)
    em.emit("C2", "true" if rep.c2_holds else "false")
    em.emit("C2_strict", "true" if rep.c2_strict else "false")
    if rep.c2_witness is not None:
        em.emit("C2_witness", rep.c2_witness.format())
    em.emit("expected_codim", rep.expected_codim)
    em.emit("C1", "true" if rep.c1_holds else "false")
    em.emit("count", len(rep.candidates))
    for k, (h, dim, codim) in enumerate(rep.candidates, start=1):
        em.emit(f"component.{k}.hf", h.format())
        em.emit(f"component.{k}.dim", dim)
        em.emit(f"component.{k}.codim", codim)
    em.emit("note", "components = maximal admissible strata (assumption)")


def _cmd_e1_table(args, em: Emitter):
    table = resolution.e1_vanishing_table(args.t, args.d, args.i, args.r,
                                          args.m, cap_weight=args.cap_weight)
    if table.truncated:
        em.emit("truncated_weights",
                ",".join(str(w) for w in table.truncated_weights))
    if not table.entries:
        em.emit("entries", "none")
    for (p, q) in sorted(table.entries):
        em.emit(f"E1.{p}.{q}", table.entries[(p, q)])


# subcommand -> (handler, help, arguments).  An argument is a positional
# name or a flag; brackets mark it optional.  One-letter flags are integers.
_COMMANDS = {
    "hf-check": (_cmd_hf_check, "validity of a level Hilbert function", "sequence"),
    "hf-enumerate": (_cmd_hf_enumerate, "all level Hilbert functions of type (t, d)",
                     "-t -d"),
    "hf-partition": (_cmd_hf_partition, "partition bijection, either direction",
                     "[sequence] [--mu] [-t] [-d]"),
    "burch": (_cmd_burch, "Hilbert-Burch matrix and witness ideal", "sequence"),
    "hilbert": (_cmd_hilbert, "Hilbert function / generators / socle of a subspace",
                "--input"),
    "ann": (_cmd_ann, "annihilator slice (-i) or minimal generators", "--input [-i]"),
    "socle": (_cmd_socle, "socle of an ideal given by generators", "--input"),
    "tangent": (_cmd_tangent, "tangent-space dimension at a subspace",
                "--input [--shape]"),
    "secant-decompose": (_cmd_secant_decompose, "secant planes through a subspace",
                         "--input"),
    "secant-intersect": (_cmd_secant_intersect,
                         "intersect secant planes (-d, apolar forms)", "--input -d"),
    "gad": (_cmd_gad, "subspace of forms with a prescribed GAD pattern", "--input -d"),
    "sigma-dim": (_cmd_sigma_dim, "dimension of the secant locus Sigma_s", "-t -d -s"),
    "waring-witness": (_cmd_waring_witness, "witness Hilbert function for Sigma_s",
                       "-t -d -s"),
    "in-sigma": (_cmd_in_sigma, "membership in Sigma_s with witness", "--input -s"),
    "stacked-det": (_cmd_stacked_det, "stacked catalecticant determinant",
                    "--input -s"),
    "hankel-rank": (_cmd_hankel_rank, "rank of the Hankel matrix of a binary form",
                    "form -i"),
    "schubert-mul": (_cmd_schubert_mul, "Littlewood-Richardson product of classes",
                     "-t -d a b"),
    "porteous": (_cmd_porteous, "Porteous class of a rank locus", "-t -d -i -r"),
    "bott": (_cmd_bott, "Bott cohomology of a weight sequence", "gamma"),
    "kronecker": (_cmd_kronecker, "Kronecker coefficient of three partitions",
                  "lam rho mu [--cap-weight]"),
    "lascoux-ranks": (_cmd_lascoux_ranks, "resolution term ranks of a rank locus",
                      "-t -d -i -r"),
    "components": (_cmd_components, "C1/C2 analysis with candidate components",
                   "-t -d -i -r"),
    "e1-table": (_cmd_e1_table, "E1 page of the twisted spectral sequence",
                 "-t -d -i -r -m [--cap-weight]"),
}

# keyword arguments of the flags that are not integers without a default
_FLAGS = {
    "--input": {"metavar": "FILE"},
    "--shape": {"action": "store_true"},
    "--mu": {},
    "--cap-weight": {"type": int, "default": DEFAULT_WEIGHT_CAP},
}


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: `parse_args` leaves it unchanged."""
    parser = _Parser(prog="levelalg",
                     description="exact computations with level algebras")
    parser.add_argument("--format", choices=("keyvalue", "json-lines"),
                        default="keyvalue")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for token in arguments.split():
            arg = token.strip("[]")
            optional = arg != token
            if arg.startswith("-"):
                kwargs = dict(_FLAGS.get(arg, {"type": int}))
                if not optional:
                    kwargs["required"] = True
            else:
                kwargs = {"nargs": "?"} if optional else {}
            p.add_argument(arg, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "hf-partition" and args.sequence is None and args.mu is None:
        parser.error("hf-partition needs a Hilbert function or --mu with -t -d")
    em = Emitter(args.format)
    try:
        _COMMANDS[args.command][0](args, em)
    except LevelAlgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    em.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
