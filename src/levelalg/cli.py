"""Command-line front end.

Every subcommand wraps exactly one library operation and yields its
(key, value) pairs; main is the one writer, which prints them as
`key: value` lines (or one JSON object per line with --format json-lines)
once the subcommand has finished, so a domain error prints nothing on
stdout.
Exit codes: 0 success, 2 domain error, 1 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import apolarity, bott, levelhf, resolution, schubert, secant, tangent
from .errors import InputSyntaxError, LevelAlgError, NotSquareError
from .forms import _content_lines, _parse_forms, form_parse, form_print, parse_subspace_lines
from .kronecker import DEFAULT_WEIGHT_CAP
from .kronecker import kronecker as kronecker_coefficient
from .levelhf import HilbertFunction
from .partitions import parse_partition


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"usage error: {message}\n")
        sys.exit(1)


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
    return _content_lines(lines)


def _subspace_from_input(args):
    lam = parse_subspace_lines(_read_lines(args.input))
    if lam.ring != "S":
        raise LevelAlgError("Lambda must be forms in y1..yn, not operators in x1..xn")
    return lam


def _forms_from_input(args, nvars=None, ring=None) -> list:
    out = _parse_forms(_read_lines(args.input), nvars=nvars, ring=ring)
    if not out:
        raise LevelAlgError("no forms in input")
    return out


def _subspace_lines(sub):
    """The dim and basis.k lines of a subspace."""
    yield "dim", sub.dim
    for k, b in enumerate(sub.basis, start=1):
        yield f"basis.{k}", form_print(b)


def _cmd_hf_check(args):
    ok, idx = levelhf.is_level_hf(HilbertFunction.parse(args.sequence))
    yield "valid", ok
    if not ok:
        yield "failing_index", idx


def _cmd_hf_enumerate(args):
    hs = levelhf.enumerate_level_hf(args.t, args.d)
    yield "count", len(hs)
    for k, h in enumerate(hs, start=1):
        yield f"hf.{k}", h.format()
        yield f"dim.{k}", levelhf.dim_stratum(h)


def _cmd_hf_partition(args):
    both = args.sequence is not None and args.mu is not None
    if both or args.sequence is None and None in (args.mu, args.t, args.d):
        build_parser().error("hf-partition needs a Hilbert function or --mu with -t -d"
                             + (", not both" if both else ""))
    if args.mu is not None:
        mu = levelhf.partition_parse(args.mu)
        h = levelhf.hf_from_partition(mu, args.t, args.d)
        yield "hf", h.format()
    else:
        if not args.sequence:
            raise LevelAlgError("give a Hilbert function or --mu PARTITION with -t -d")
        h = HilbertFunction.parse(args.sequence)
        mu = levelhf.partition_from_hf(h)
        yield "partition", levelhf.partition_format(mu)
        yield "t", h.t
        yield "d", h.d


def _cmd_burch(args):
    h = HilbertFunction.parse(args.sequence)
    matrix, gens = levelhf.burch_ideal(h)
    yield "q", ",".join(str(q) for q in levelhf.q_sequence(h))
    yield "e", ",".join(str(e) for e in levelhf.e_sequence(h))
    for k, row in enumerate(matrix.entries, start=1):
        yield f"matrix.row{k}", ", ".join(form_print(x) if x is not None else "0" for x in row)
    for k, g in enumerate(gens, start=1):
        yield f"generator.{k}", form_print(g)
    yield "dim_stratum", levelhf.dim_stratum(h)


def _cmd_hilbert(args):
    lam = _subspace_from_input(args)
    yield from apolarity.apolar_profile(lam).kv_lines()


def _cmd_ann(args):
    lam = _subspace_from_input(args)
    if args.i is not None:
        sl = apolarity.ann_slice(lam, args.i)
        yield "degree", sl.degree
        yield from _subspace_lines(sl)
    else:
        yield from apolarity._generator_lines(apolarity.minimal_generators(lam))


def _cmd_socle(args):
    gens = _forms_from_input(args, ring="R")
    soc = apolarity.socle(gens, gens[0].nvars)
    yield "SOCLE", "; ".join(f"{j}:{s}" for j, s in soc)
    yield "LEVEL", len(soc) == 1
    yield "SOCLE_DEGREE", soc[-1][0]
    yield "TYPE", sum(s for _, s in soc)


def _cmd_tangent(args):
    lam = _subspace_from_input(args)
    ts = tangent.tangent_space(lam)
    yield "dimension", ts.dimension
    if args.shape:
        yield "constraints", f"{ts.constraint_shape[0]}x{ts.constraint_shape[1]}"
    if lam.nvars == 1:
        yield "note", "n = 1: G(1, S_d) is a point, whose tangent space is 0"
    elif lam.nvars == 2:
        yield "formula", levelhf.dim_stratum(ts.hilbert)
    else:
        # no closed formula for n >= 3 (see the tangent module)
        yield "note", "n >= 3: dimension unverified against a closed formula"


def _cmd_secant_decompose(args):
    lam = _subspace_from_input(args)
    planes = secant.secant_decompose(lam)
    yield "count", len(planes)
    for k, p in enumerate(planes, start=1):
        yield f"plane.{k}.degree", p.q
        yield f"plane.{k}.dim", p.plane_dim
        yield f"plane.{k}.apolar", form_print(p.apolar_form)


def _cmd_secant_intersect(args):
    ops = _forms_from_input(args, nvars=2, ring="R")
    planes = [secant.SecantPlane(u, args.d) for u in ops]
    lam, h = secant.secant_intersect(planes)
    yield "hf", h.format()
    yield from _subspace_lines(lam)


def _cmd_gad(args):
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
    yield "length", g.length
    yield from _subspace_lines(secant.gad_subspace(g, args.d))


def _cmd_sigma_dim(args):
    yield "dim", secant.sigma_dim(args.t, args.d, args.s)
    n1, n2 = secant._secant_counts(args.t, args.d, args.s)
    yield "N1", n1
    yield "N2", n2


def _cmd_waring_witness(args):
    h = secant.waring_witness_hf(args.t, args.d, args.s)
    yield "hf", h.format()
    yield "dim", levelhf.dim_stratum(h)


def _cmd_in_sigma(args):
    lam = _subspace_from_input(args)
    w = secant.in_sigma(lam, args.s)
    yield "member", w is not None
    if w is not None:
        yield "witness", form_print(w)


def _cmd_stacked_det(args):
    fs = _forms_from_input(args, nvars=2, ring="S")
    try:
        value = secant.stacked_catalecticant_det(fs, args.s)
        yield "det", value
        yield "member", value == 0
    except NotSquareError as exc:
        yield "rank", exc.rank
        yield "bound", exc.bound
        yield "member", exc.rank <= exc.bound


def _cmd_hankel_rank(args):
    f = form_parse(args.form, nvars=2, ring="S")
    yield "rank", secant.hankel_rank(f, args.i)


def _cmd_schubert_mul(args):
    n = args.d + 1
    a = schubert.parse_class(args.a, args.t, n)
    b = schubert.parse_class(args.b, args.t, n)
    yield "product", schubert.format_class(schubert.lr_multiply(a, b))


def _cmd_porteous(args):
    cls = schubert.porteous_class(args.t, args.d, args.i, args.r)
    yield "class", schubert.format_class(cls)
    yield "codim", resolution.expected_codim(args.t, args.d, args.i, args.r)


def _cmd_bott(args):
    try:
        blocks = [[int(p) for p in seg.split(",") if p.strip() != ""]
                  for seg in args.gamma.split(";")]
    except ValueError as exc:
        raise InputSyntaxError(f"bad weight sequence {args.gamma!r}") from exc
    gamma = [g for block in blocks for g in block]
    sizes = tuple(len(block) for block in blocks) if len(blocks) > 1 else None
    res = bott.bott_cohomology(gamma, blocks=sizes)
    if res.is_zero:
        yield "cohomology", "ZERO"
    else:
        yield "degree", res.degree
        yield "dim", res.dimension


def _cmd_kronecker(args):
    lam = parse_partition(args.lam)
    rho = parse_partition(args.rho)
    mu = parse_partition(args.mu)
    yield "coefficient", kronecker_coefficient(lam, rho, mu, cap=args.cap_weight)


def _cmd_lascoux_ranks(args):
    table = resolution.lascoux_ranks(args.t, args.d, args.i, args.r)
    yield "codim", table.codim
    yield "ranks", ",".join(str(x) for x in table.ranks())
    for p in sorted(table.terms, reverse=True):
        key = f"term.{-p}"
        for s in table.terms[p]:
            yield key, f"lambda=({','.join(map(str, s.lam)) or '0'}) rank={s.rank}"


def _cmd_components(args):
    rep = resolution.c1_c2_analysis(args.t, args.d, args.i, args.r)
    yield "C2", rep.c2_holds
    yield "C2_strict", rep.c2_strict
    if rep.c2_witness is not None:
        yield "C2_witness", rep.c2_witness.format()
    yield "expected_codim", rep.expected_codim
    yield "C1", rep.c1_holds
    yield "count", len(rep.candidates)
    for k, (h, dim, codim) in enumerate(rep.candidates, start=1):
        yield f"component.{k}.hf", h.format()
        yield f"component.{k}.dim", dim
        yield f"component.{k}.codim", codim
    yield "note", "components = maximal admissible strata (assumption)"


def _cmd_e1_table(args):
    table = resolution.e1_vanishing_table(args.t, args.d, args.i, args.r,
                                          args.m, cap_weight=args.cap_weight)
    if table.truncated:
        yield "truncated_weights", ",".join(str(w) for w in table.truncated_weights)
    if not table.entries:
        yield "entries", "none"
    for (p, q) in sorted(table.entries):
        yield f"E1.{p}.{q}", table.entries[(p, q)]


# subcommand -> (handler, help, arguments).  An argument is a positional
# name or a flag; brackets mark it optional, and an optional positional is
# its subcommand's only one.  One-letter flags are integers.
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
def _signature(command: str) -> tuple:
    """The (argument, add_argument keywords) pairs of a subcommand, in the
    order of its _COMMANDS spec: the one reader of the spec grammar."""
    signature = []
    for token in _COMMANDS[command][2].split():
        arg = token.strip("[]")
        optional = arg != token
        if arg.startswith("-"):
            kwargs = dict(_FLAGS.get(arg, {"type": int}))
            if not optional:
                kwargs["required"] = True
        else:
            kwargs = {"nargs": "?"} if optional else {}
        signature.append((arg, kwargs))
    return tuple(signature)


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process: `parse_args` leaves it unchanged."""
    parser = _Parser(prog="levelalg",
                     description="exact computations with level algebras")
    parser.add_argument("--format", choices=("keyvalue", "json-lines"),
                        default="keyvalue")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in _signature(name):
            p.add_argument(arg, **kwargs)
    return parser


def _plain_args(argv: list[str]):
    """The Namespace `build_parser().parse_args(argv)` gives, read without
    argparse, if argv is plain; None otherwise.

    Plain is: an optional `--format keyvalue|json-lines` first, a subcommand,
    then words and that subcommand's flags spelled out, each flag value its
    own token not starting with '-'; every required argument present, no
    surplus word and every integer readable.  The argv may also end in
    `-- X`, X not '--' and no other '--' in it, if no word comes before:
    X is then the one word, whatever it starts with, so it is plain only
    for a subcommand with one positional (one with more has no optional
    one), which argparse also fills with X.  Anything else (help,
    abbreviations, any other '--', '-t5', negative values, usage errors) is
    left to argparse, which writes every usage text.  Words fill the
    positionals in order, as argparse fills them while no optional
    positional has another positional beside it.
    """
    fmt = "keyvalue"
    if argv[:1] == ["--format"]:
        if argv[1:2] not in (["keyvalue"], ["json-lines"]):
            return None
        fmt, argv = argv[1], argv[2:]
    if not argv or argv[0] not in _COMMANDS:
        return None
    signature = _signature(argv[0])
    flags = {arg: kwargs for arg, kwargs in signature if arg.startswith("-")}
    values, words, tokens = {}, [], argv[1:]
    tail = tokens[-2:-1] == ["--"] and tokens.count("--") == 1
    tokens = iter(tokens[:-2] if tail else tokens)
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
        elif token not in flags:
            return None
        elif flags[token].get("action") == "store_true":
            values[token] = True
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            try:
                values[token] = flags[token].get("type", str)(value)
            except ValueError:
                return None
    if tail:
        if words:
            return None
        words = argv[-1:]
    args = argparse.Namespace(format=fmt, command=argv[0])
    for arg, kwargs in signature:
        if arg.startswith("-"):
            if arg not in values and kwargs.get("required"):
                return None
            default = kwargs.get("default", False if "action" in kwargs else None)
            setattr(args, arg.lstrip("-").replace("-", "_"), values.get(arg, default))
        elif words:
            setattr(args, arg, words.pop(0))
        elif "nargs" in kwargs:
            setattr(args, arg, None)
        else:
            return None
    return None if words else args


def _text(value) -> str:
    """The text of a value that is not a str: true or false for a bool."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        # a str value is its own text, so the lines of a large table take
        # no call each
        pairs = [(key, value if isinstance(value, str) else _text(value))
                 for key, value in _COMMANDS[args.command][0](args)]
    except LevelAlgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.format == "json-lines":
        lines = (json.dumps({"key": key, "value": value}) + "\n" for key, value in pairs)
    else:
        lines = (f"{key}: {value}\n" for key, value in pairs)
    sys.stdout.write("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
