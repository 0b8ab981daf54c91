import io
import json
import contextlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import levelalg
from levelalg import cli
from levelalg.cli import _COMMANDS, _FLAGS, _plain_args, _signature, build_parser, main
from levelalg.errors import LevelAlgError
from levelalg.forms import Form, form_print, monomials
from levelalg.partitions import partitions_in_box

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN_CASES = {
    "hf_check_ex15.txt": ["hf-check", "1,2,3,4,5,5,4,3,0"],
    "burch_ex15.txt": ["burch", "1,2,3,4,5,5,4,3,0"],
    "porteous_2522.txt": ["porteous", "-t", "2", "-d", "5", "-i", "2", "-r", "2"],
    "lascoux_2754.txt": ["lascoux-ranks", "-t", "2", "-d", "7", "-i", "5", "-r", "4"],
    "components_2754.txt": ["components", "-t", "2", "-d", "7", "-i", "5", "-r", "4"],
    "sigma_dim_3_11_7.txt": ["sigma-dim", "-t", "3", "-d", "11", "-s", "7"],
    "schubert_mul.txt": ["schubert-mul", "-t", "2", "-d", "5",
                         "10{3,3} + 6{4,2}", "{1,1}"],
    "hf_enumerate_25.txt": ["hf-enumerate", "-t", "2", "-d", "5"],
    "waring_witness_3_11_7.txt": ["waring-witness", "-t", "3", "-d", "11", "-s", "7"],
    "e1_table_2754_m0.txt": ["e1-table", "-t", "2", "-d", "7", "-i", "5",
                             "-r", "4", "-m", "0", "--cap-weight", "12"],
    "hankel_rank.txt": ["hankel-rank", "y1^7 + y2^7", "-i", "3"],
    "hf_partition_ex15.txt": ["hf-partition", "1,2,3,4,5,5,4,3,0"],
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_outputs_are_byte_stable(name):
    rc, out = run_cli(GOLDEN_CASES[name])
    assert rc == 0
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        assert out == fh.read()
    rc2, out2 = run_cli(GOLDEN_CASES[name])
    assert rc2 == 0 and out2 == out


def test_hf_check_output():
    rc, out = run_cli(["hf-check", "1,2,3,4,5,5,4,3,0"])
    assert rc == 0 and out == "valid: true\n"


def test_hf_check_invalid_reports_index():
    rc, out = run_cli(["hf-check", "1,2,2,3,2,0"])
    assert rc == 0
    assert "valid: false" in out and "failing_index: 2" in out


def test_json_lines_format():
    rc, out = run_cli(["--format", "json-lines", "hf-check", "1,2,2,2,2,2,0"])
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"key": "valid", "value": "true"}]


def test_a_subcommand_that_fails_after_yielding_prints_no_line(monkeypatch, capsys):
    # main writes once the subcommand has finished, so its lines go unprinted
    def failing(args):
        yield "valid", True
        yield "count", 3
        raise LevelAlgError("failed after two lines")

    monkeypatch.setitem(_COMMANDS, "hf-check", (failing, *_COMMANDS["hf-check"][1:]))
    for fmt in ([], ["--format", "json-lines"]):
        assert main([*fmt, "hf-check", "1,2,1,0"]) == 2
        assert capsys.readouterr() == ("", "error: failed after two lines\n")


def test_domain_error_exit_code(capsys):
    rc = main(["hf-check", "2,1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["hf-check"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_hilbert_profile_from_file(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("y1^7\ny1^6*y2\ny1^3*y2^4\n")
    rc, out = run_cli(["hilbert", "--input", str(path)])
    assert rc == 0
    assert "HILBERT: 1,2,3,4,5,5,4,3,0" in out
    assert "GENERATORS.5: x2^5" in out
    assert "SOCLE: 7:3" in out
    assert "LEVEL: true" in out


def test_ann_slice_from_file(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("y1^7\ny1^6*y2\ny1^3*y2^4\n")
    rc, out = run_cli(["ann", "--input", str(path), "-i", "5"])
    assert rc == 0
    assert "dim: 1" in out and "basis.1: x2^5" in out


def test_socle_from_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("x1^2\nx1*x2^2\nx2^4\n")
    rc, out = run_cli(["socle", "--input", str(path)])
    assert rc == 0
    assert "SOCLE: 2:1; 3:1" in out and "LEVEL: false" in out


def test_socle_type_counts_every_socle_degree(tmp_path):
    # R/(x1^2, x1*x2, x2^3) is spanned by 1, x1, x2, x2^2; its socle is
    # spanned by x1 and x2^2, so the type is 2
    path = tmp_path / "gens.txt"
    path.write_text("x1^2\nx1*x2\nx2^3\n")
    assert run_cli(["socle", "--input", str(path)]) == \
        (0, "SOCLE: 1:1; 2:1\nLEVEL: false\nSOCLE_DEGREE: 2\nTYPE: 2\n")


def test_schubert_mul_rejects_an_empty_grassmannian(capsys):
    # -d 0 is G(2, 1): no 2-planes in a line
    for t, d, n in (("2", "0", 1), ("-1", "3", 4), ("5", "3", 4)):
        assert main(["schubert-mul", "-t", t, "-d", d, "1", "1"]) == 2
        assert capsys.readouterr() == \
            ("", f"error: G({t}, {n}) is empty: need 0 <= t <= n\n")


def test_socle_with_a_constant_generator_is_the_unit_ideal(tmp_path, capsys):
    # the constant stays an operator in R when the forms are widened; with
    # 1, 1, 1, x4 the degree bound 0 + 0 + 0 + 1 - 4 + 2 is negative, and
    # degree 0 is still read
    path = tmp_path / "gens.txt"
    for text in ("x1^2\nx2^2\n1\n", "1\n1\n1\nx4\n"):
        path.write_text(text)
        assert main(["socle", "--input", str(path)]) == 2
        assert capsys.readouterr() == \
            ("", "error: the generators span the unit ideal; the quotient is zero\n")


def test_tangent_from_file(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("y1^5\ny1^4*y2\n")
    rc, out = run_cli(["tangent", "--input", str(path), "--shape"])
    assert rc == 0
    assert "dimension: 2" in out and "formula: 2" in out
    assert "constraints:" in out


def test_tangent_in_one_variable(tmp_path):
    # S_d is a line, so Lambda = S_d and G(1, S_d) is a point
    path = tmp_path / "lam.txt"
    path.write_text("y1^4\n")
    assert run_cli(["tangent", "--input", str(path), "--shape"]) == \
        (0, "dimension: 0\nconstraints: 0x0\nnote: n = 1: G(1, S_d) is a point, "
            "whose tangent space is 0\n")


def test_tangent_shape_at_a_moved_point(tmp_path):
    # Example 15's Burch point under a change of coordinates: basis forms
    # with denominators, and the constraint count of the rational route
    path = tmp_path / "lam.txt"
    path.write_text(
        "y1^7 + 21*y1^4*y2^3 + 105/2*y1^3*y2^4 + 105/2*y1^2*y2^5 + 49/2*y1*y2^6 + 9/2*y2^7\n"
        "y1^6*y2 - 11*y1^4*y2^3 - 25*y1^3*y2^4 - 24*y1^2*y2^5 - 11*y1*y2^6 - 2*y2^7\n"
        "y1^5*y2^2 + 13/3*y1^4*y2^3 + 15/2*y1^3*y2^4 + 13/2*y1^2*y2^5 + 17/6*y1*y2^6"
        " + 1/2*y2^7\n")
    assert run_cli(["tangent", "--input", str(path), "--shape"]) == \
        (0, "dimension: 9\nconstraints: 6x15\nformula: 9\n")


def test_secant_decompose_and_intersect_roundtrip(tmp_path):
    lam = tmp_path / "lam.txt"
    lam.write_text("y1^6\ny1^3*y2^3\n")
    rc, out = run_cli(["secant-decompose", "--input", str(lam)])
    assert rc == 0
    forms = [line.split(": ", 1)[1] for line in out.splitlines()
             if ".apolar" in line]
    ops = tmp_path / "ops.txt"
    ops.write_text("\n".join(forms) + "\n")
    rc, out = run_cli(["secant-intersect", "--input", str(ops), "-d", "6"])
    assert rc == 0
    assert "hf: 1,2,3,4,4,3,2,0" in out
    assert "dim: 2" in out


# Apolar subcommands on two inputs: Example 15's Burch point moved by
# [[3, -4], [4, 3]] (basis forms with denominators), and a ternary
# subspace with binomial generators.  The *_OPS inputs are the minimal
# generators printed by `ann`.
APOLAR_INPUTS = {
    "BINARY": (
        "y1^7 - 280/9*y1^4*y2^3 + 4445/54*y1^3*y2^4 - 6958/81*y1^2*y2^5"
        " + 33320/729*y1*y2^6 - 3040/243*y2^7\n"
        "y1^6*y2 - 140/9*y1^4*y2^3 + 4465/108*y1^3*y2^4 - 1265/27*y1^2*y2^5"
        " + 6476/243*y1*y2^6 - 4880/729*y2^7\n"
        "y1^5*y2^2 - 95/18*y1^4*y2^3 + 355/32*y1^3*y2^4 - 2545/216*y1^2*y2^5"
        " + 3155/486*y1*y2^6 - 374/243*y2^7\n"),
    "BINARY_OPS": (
        "x1^5 + 15/4*x1^4*x2 + 45/8*x1^3*x2^2 + 135/32*x1^2*x2^3"
        " + 405/256*x1*x2^4 + 243/1024*x2^5\n"
        "x1^4*x2^2 + 29/18*x1^3*x2^3 + 841/864*x1^2*x2^4 + 247/576*x1*x2^5"
        " + 211/1536*x2^6\n"
        "x1*x2^7 + 21/32*x2^8\n"
        "x2^8\n"),
    "TERNARY": "y1^4 + y2^4 + y3^4\ny1^2*y2*y3\n",
    "TERNARY_OPS": ("x1*x2^2\nx1*x3^2\nx2^2*x3\nx2*x3^2\n"
                    "x1^4 - x3^4\nx1^3*x2\nx1^3*x3\nx2^4 - x3^4\n"),
}

APOLAR_PINNED = [
    (['hilbert'], "BINARY",
     'HILBERT: 1,2,3,4,5,5,4,3,0\n'
     'GENERATORS.5: x1^5 + 15/4*x1^4*x2 + 45/8*x1^3*x2^2 + 135/32*x1^2*x2^3 + 405/256*x1*x2^4 + 243/1024*x2^5\n'
     'GENERATORS.6: x1^4*x2^2 + 29/18*x1^3*x2^3 + 841/864*x1^2*x2^4 + 247/576*x1*x2^5 + 211/1536*x2^6\n'
     'GENERATORS.8: x1*x2^7 + 21/32*x2^8\n'
     'GENERATORS.8: x2^8\n'
     'SOCLE: 7:3\n'
     'LEVEL: true\n'
     'TYPE: 3\n'
     'SOCLE_DEGREE: 7\n'),
    (['ann'], "BINARY",
     'GENERATORS.5: x1^5 + 15/4*x1^4*x2 + 45/8*x1^3*x2^2 + 135/32*x1^2*x2^3 + 405/256*x1*x2^4 + 243/1024*x2^5\n'
     'GENERATORS.6: x1^4*x2^2 + 29/18*x1^3*x2^3 + 841/864*x1^2*x2^4 + 247/576*x1*x2^5 + 211/1536*x2^6\n'
     'GENERATORS.8: x1*x2^7 + 21/32*x2^8\n'
     'GENERATORS.8: x2^8\n'),
    (['ann', '-i', '5'], "BINARY",
     'degree: 5\n'
     'dim: 1\n'
     'basis.1: x1^5 + 15/4*x1^4*x2 + 45/8*x1^3*x2^2 + 135/32*x1^2*x2^3 + 405/256*x1*x2^4 + 243/1024*x2^5\n'),
    (['ann', '-i', '6'], "BINARY",
     'degree: 6\n'
     'dim: 3\n'
     'basis.1: x1^6 - 105/32*x1^3*x2^3 - 3085/512*x1^2*x2^4 - 2127/1024*x1*x2^5 + 2205/8192*x2^6\n'
     'basis.2: x1^5*x2 - 5/12*x1^3*x2^3 + 655/1152*x1^2*x2^4 - 5/192*x1*x2^5 - 569/2048*x2^6\n'
     'basis.3: x1^4*x2^2 + 29/18*x1^3*x2^3 + 841/864*x1^2*x2^4 + 247/576*x1*x2^5 + 211/1536*x2^6\n'),
    (['socle'], "BINARY_OPS",
     'SOCLE: 7:3\n'
     'LEVEL: true\n'
     'SOCLE_DEGREE: 7\n'
     'TYPE: 3\n'),
    (['secant-decompose'], "BINARY",
     'count: 4\n'
     'plane.1.degree: 5\n'
     'plane.1.dim: 4\n'
     'plane.1.apolar: x1^5 + 15/4*x1^4*x2 + 45/8*x1^3*x2^2 + 135/32*x1^2*x2^3 + 405/256*x1*x2^4 + 243/1024*x2^5\n'
     'plane.2.degree: 6\n'
     'plane.2.dim: 5\n'
     'plane.2.apolar: x1^4*x2^2 + 29/18*x1^3*x2^3 + 841/864*x1^2*x2^4 + 247/576*x1*x2^5 + 211/1536*x2^6\n'
     'plane.3.degree: 8\n'
     'plane.3.dim: 7\n'
     'plane.3.apolar: x1*x2^7 + 21/32*x2^8\n'
     'plane.4.degree: 8\n'
     'plane.4.dim: 7\n'
     'plane.4.apolar: x2^8\n'),
    (['secant-intersect', '-d', '7'], "BINARY_OPS",
     'hf: 1,2,3,4,5,5,4,3,0\n'
     'dim: 3\n'
     'basis.1: y1^7 - 280/9*y1^4*y2^3 + 4445/54*y1^3*y2^4 - 6958/81*y1^2*y2^5 + 33320/729*y1*y2^6 - 3040/243*y2^7\n'
     'basis.2: y1^6*y2 - 140/9*y1^4*y2^3 + 4465/108*y1^3*y2^4 - 1265/27*y1^2*y2^5 + 6476/243*y1*y2^6 - 4880/729*y2^7\n'
     'basis.3: y1^5*y2^2 - 95/18*y1^4*y2^3 + 355/32*y1^3*y2^4 - 2545/216*y1^2*y2^5 + 3155/486*y1*y2^6 - 374/243*y2^7\n'),
    (['hilbert'], "TERNARY",
     'HILBERT: 1,3,6,6,2,0\n'
     'GENERATORS.3: x1*x2^2\n'
     'GENERATORS.3: x1*x3^2\n'
     'GENERATORS.3: x2^2*x3\n'
     'GENERATORS.3: x2*x3^2\n'
     'GENERATORS.4: x1^4 - x3^4\n'
     'GENERATORS.4: x1^3*x2\n'
     'GENERATORS.4: x1^3*x3\n'
     'GENERATORS.4: x2^4 - x3^4\n'
     'SOCLE: 4:2\n'
     'LEVEL: true\n'
     'TYPE: 2\n'
     'SOCLE_DEGREE: 4\n'),
    (['ann'], "TERNARY",
     'GENERATORS.3: x1*x2^2\n'
     'GENERATORS.3: x1*x3^2\n'
     'GENERATORS.3: x2^2*x3\n'
     'GENERATORS.3: x2*x3^2\n'
     'GENERATORS.4: x1^4 - x3^4\n'
     'GENERATORS.4: x1^3*x2\n'
     'GENERATORS.4: x1^3*x3\n'
     'GENERATORS.4: x2^4 - x3^4\n'),
    (['ann', '-i', '3'], "TERNARY",
     'degree: 3\n'
     'dim: 4\n'
     'basis.1: x1*x2^2\n'
     'basis.2: x1*x3^2\n'
     'basis.3: x2^2*x3\n'
     'basis.4: x2*x3^2\n'),
    (['ann', '-i', '4'], "TERNARY",
     'degree: 4\n'
     'dim: 13\n'
     'basis.1: x1^4 - x3^4\n'
     'basis.2: x1^3*x2\n'
     'basis.3: x1^3*x3\n'
     'basis.4: x1^2*x2^2\n'
     'basis.5: x1^2*x3^2\n'
     'basis.6: x1*x2^3\n'
     'basis.7: x1*x2^2*x3\n'
     'basis.8: x1*x2*x3^2\n'
     'basis.9: x1*x3^3\n'
     'basis.10: x2^4 - x3^4\n'
     'basis.11: x2^3*x3\n'
     'basis.12: x2^2*x3^2\n'
     'basis.13: x2*x3^3\n'),
    (['socle'], "TERNARY_OPS",
     'SOCLE: 4:2\n'
     'LEVEL: true\n'
     'SOCLE_DEGREE: 4\n'
     'TYPE: 2\n'),
]


@pytest.mark.parametrize("argv, name, expected", APOLAR_PINNED,
                         ids=[f"{' '.join(a)}-{n}" for a, n, _ in APOLAR_PINNED])
def test_apolar_outputs_are_byte_stable(argv, name, expected, tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(APOLAR_INPUTS[name])
    assert run_cli([*argv, "--input", str(path)]) == (0, expected)


def test_json_lines_carry_the_keyvalue_pairs(tmp_path):
    # the one writer prints the same (key, value) pairs in both formats
    argvs = list(GOLDEN_CASES.values())
    for name, text in APOLAR_INPUTS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        argvs += [[*argv, "--input", str(path)] for argv, n, _ in APOLAR_PINNED if n == name]
    assert len(argvs) == len(GOLDEN_CASES) + len(APOLAR_PINNED)
    for argv in argvs:
        rc, out = run_cli(argv)
        assert rc == 0 and out, argv
        pairs = [tuple(line.split(": ", 1)) for line in out.splitlines()]
        rc, out = run_cli(["--format", "json-lines", *argv])
        rows = [json.loads(line) for line in out.splitlines()]
        assert rc == 0 and all(list(row) == ["key", "value"] for row in rows), argv
        assert [(row["key"], row["value"]) for row in rows] == pairs, argv


def test_gad_subcommand(tmp_path):
    path = tmp_path / "gad.txt"
    path.write_text("0,1,1\n1,0,0\n")
    rc, out = run_cli(["gad", "--input", str(path), "-d", "4"])
    assert rc == 0
    assert "length: 3" in out and "dim: 3" in out


def test_gad_of_length_d_plus_one_prints_all_of_s_d(tmp_path):
    path = tmp_path / "gad.txt"
    path.write_text("1,0,1\n0,1,1\n")
    assert run_cli(["gad", "--input", str(path), "-d", "3"]) == \
        (0, "length: 4\ndim: 4\nbasis.1: y1^3\nbasis.2: y1^2*y2\nbasis.3: y1*y2^2\n"
            "basis.4: y2^3\n")


def test_in_sigma_subcommand(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("y1^7\ny1^6*y2\ny1^3*y2^4\n")
    rc, out = run_cli(["in-sigma", "--input", str(path), "-s", "5"])
    assert rc == 0
    assert "member: true" in out and "witness: x2^5" in out


def test_stacked_det_subcommand(tmp_path):
    path = tmp_path / "pencil.txt"
    path.write_text("y1^7 + y2^7\ny1^6*y2 - 2*y1*y2^6\n")
    rc, out = run_cli(["stacked-det", "--input", str(path), "-s", "5"])
    assert rc == 0
    assert out.startswith("det: ")


def test_hankel_rank_subcommand():
    rc, out = run_cli(["hankel-rank", "y1^7 + y2^7", "-i", "3"])
    assert rc == 0 and out == "rank: 2\n"


def test_hankel_rank_of_the_zero_form_checks_its_index(capsys):
    rc, out = run_cli(["hankel-rank", "0", "-i", "0"])
    assert rc == 0 and out == "rank: 0\n"
    capsys.readouterr()
    assert main(["hankel-rank", "0", "-i", "5"]) == 2
    assert capsys.readouterr() == ("", "error: Hankel index 5 outside 0..0\n")


def test_bott_subcommand():
    rc, out = run_cli(["bott", "0,0,0,0;1,1"])
    assert rc == 0 and out == "cohomology: ZERO\n"
    rc, out = run_cli(["bott", "1,1,0,0,0"])
    assert rc == 0
    assert "degree: 0" in out


def test_kronecker_subcommand():
    rc, out = run_cli(["kronecker", "2,1", "2,1", "2,1"])
    assert rc == 0 and out == "coefficient: 1\n"
    rc, out = run_cli(["kronecker", "11", "11", "11", "--cap-weight", "11"])
    assert rc == 0 and out == "coefficient: 1\n"


def test_e1_table_subcommand():
    rc, out = run_cli(["e1-table", "-t", "2", "-d", "7", "-i", "5", "-r", "4",
                       "-m", "0", "--cap-weight", "12"])
    assert rc == 0
    assert "E1.0.0: 1" in out


def test_hf_partition_both_directions():
    rc, out = run_cli(["hf-partition", "1,2,3,4,5,5,4,3,0"])
    assert rc == 0 and "partition: 2+2+1" in out
    rc, out = run_cli(["hf-partition", "--mu", "2+2+1", "-t", "3", "-d", "7"])
    assert rc == 0 and "hf: 1,2,3,4,5,5,4,3,0" in out


def test_hf_partition_takes_a_sequence_or_mu(capsys):
    # neither, or both, is a usage error; an empty sequence a domain error
    for argv in (["hf-partition"],
                 ["hf-partition", "1,2,2,0", "--mu", "3", "-t", "2", "-d", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("usage error: hf-partition needs a Hilbert function or --mu")
        assert err.endswith("not both") == ("--mu" in argv)
    assert main(["hf-partition", ""]) == 2
    assert capsys.readouterr() == \
        ("", "error: give a Hilbert function or --mu PARTITION with -t -d\n")


def test_hf_partition_mu_needs_t_and_d(capsys):
    # --mu without -t or -d is a usage error, as a missing sequence is
    for argv in (["hf-partition", "--mu", "3"], ["hf-partition", "--mu", "3", "-t", "2"],
                 ["hf-partition", "--mu", "3", "-d", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == \
            "usage error: hf-partition needs a Hilbert function or --mu with -t -d"


def test_waring_witness_not_needed_is_domain_error(capsys):
    rc = main(["waring-witness", "-t", "2", "-d", "5", "-s", "5"])
    assert rc == 2
    assert "no witness" in capsys.readouterr().err


def test_kronecker_cap_is_domain_error(capsys):
    rc = main(["kronecker", "11", "11", "11"])
    assert rc == 2
    assert "cap" in capsys.readouterr().err


def test_in_sigma_nonmember(tmp_path):
    path = tmp_path / "lam.txt"
    path.write_text("y1^7 + 2*y2^7\n3*y1^6*y2 - y1*y2^6 + y1^4*y2^3\n")
    rc, out = run_cli(["in-sigma", "--input", str(path), "-s", "4"])
    assert rc == 0
    assert "member: false" in out


def test_stacked_det_non_square_reports_rank(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("y1^7 + y2^7\n")
    rc, out = run_cli(["stacked-det", "--input", str(path), "-s", "5"])
    assert rc == 0
    assert "rank: 2" in out and "bound: 5" in out and "member: true" in out


def test_bott_nonzero_with_blocks():
    # a leading negative weight needs the usual -- separator
    rc, out = run_cli(["bott", "--", "-1,-1,-1,-1;4"])
    assert rc == 0
    assert "degree: 4" in out and "dim: " in out


def test_secant_intersect_improper_is_domain_error(tmp_path, capsys):
    path = tmp_path / "ops.txt"
    path.write_text("x1*x2\nx1^2 - x2^2\n")
    rc = main(["secant-intersect", "--input", str(path), "-d", "7"])
    assert rc == 2


def test_missing_input_is_usage_error():
    for argv in (["hilbert"], ["tangent"], ["secant-intersect", "-d", "7"],
                 ["in-sigma", "-s", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_unreadable_input_is_domain_error(capsys):
    rc = main(["hilbert", "--input", "/nonexistent/lam.txt"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv, input_text", [
    (["hf-check", "1,a,2"], None),
    (["bott", "1,2;x"], None),
    (["schubert-mul", "-t", "2", "-d", "5", "{2,1", "{1}"], None),
    (["schubert-mul", "-t", "2", "-d", "5", "{2,a}", "{1}"], None),
    (["schubert-mul", "-t", "2", "-d", "5", "{1} +", "{1}"], None),
    (["schubert-mul", "-t", "2", "-d", "5", "+", "{1}"], None),
    (["schubert-mul", "-t", "2", "-d", "5", "", "{1}"], None),
    (["schubert-mul", "-t", "2", "-d", "5", "{1} + + {2}", "{1}"], None),
    (["schubert-mul", "-t", "2", "-d", "5", "²{1}", "{1}"], None),
    (["hankel-rank", "-i", "1", "y1^²"], None),
    (["gad", "-d", "4"], "0,1,1\nx,0,0\n"),
    (["gad", "-d", "4"], "0,1\n"),
    (["gad", "-d", "4"], "1/0,1,1\n"),
    (["hf-enumerate", "-t", "x", "-d", "5"], None),
    (["lascoux-ranks", "-t", "2", "-d", "5", "-i", "9", "-r", "1"], None),
    (["e1-table", "-t", "2", "-d", "5", "-i", "9", "-r", "1", "-m", "0"], None),
    (["porteous", "-t", "2", "-d", "5", "-i", "9", "-r", "1"], None),
    (["components", "-t", "2", "-d", "5", "-i", "9", "-r", "1"], None),
    (["porteous", "-t", "2", "-d", "5", "-i", "-1", "-r", "0"], None),
    (["porteous", "-t", "3", "-d", "1", "-i", "0", "-r", "0"], None),
    (["lascoux-ranks", "-t", "3", "-d", "1", "-i", "0", "-r", "0"], None),
    (["lascoux-ranks", "-t", "4", "-d", "23", "-i", "19", "-r", "0"], None),
    (["e1-table", "-t", "3", "-d", "1", "-i", "0", "-r", "0", "-m", "0"], None),
    (["porteous", "-t", "0", "-d", "3", "-i", "1", "-r", "0"], None),
    (["components", "-t", "2", "-d", "3", "-i", "1", "-r", "-5"], None),
    (["lascoux-ranks", "-t", "1", "-d", "2", "-i", "2", "-r", "2"], None),
    (["e1-table", "-t", "1", "-d", "2", "-i", "2", "-r", "2", "-m", "0"], None),
    (["e1-table", "-t", "2", "-d", "7", "-i", "4", "-r", "3", "-m", "0",
      "--cap-weight", "-1"], None),
    (["components", "-t", "1", "-d", "2", "-i", "2", "-r", "2"], None),
    (["components", "-t", "0", "-d", "3", "-i", "1", "-r", "0"], None),
    (["components", "-t", "3", "-d", "1", "-i", "1", "-r", "1"], None),
    (["sigma-dim", "-t", "0", "-d", "3", "-s", "1"], None),
    (["waring-witness", "-t", "0", "-d", "3", "-s", "2"], None),
    (["hilbert"], "x1^2\nx2^2\n"),
    (["tangent"], "x1^2\nx2^2\n"),
], ids=["hf-check-letter", "bott-letter", "class-unclosed-brace", "class-letter",
        "class-trailing-sign", "class-sign-only", "class-empty", "class-double-sign",
        "class-superscript", "form-superscript",
        "gad-letter", "gad-two-fields", "gad-zero-denominator", "flag-letter",
        "lascoux-i-above-d", "e1-i-above-d", "porteous-i-above-d",
        "components-i-above-d", "porteous-i-negative", "porteous-empty-grassmannian",
        "lascoux-empty-grassmannian", "lascoux-partition-cap", "e1-empty-grassmannian",
        "porteous-t-zero", "components-r-negative", "lascoux-r-above-rank",
        "e1-r-above-rank", "e1-negative-cap", "components-r-above-rank",
        "components-t-zero", "components-empty-grassmannian", "sigma-dim-t-zero",
        "waring-witness-t-zero", "hilbert-operators", "tangent-operators"])
def test_malformed_input_is_a_one_line_error(argv, input_text, tmp_path):
    # a fresh interpreter, so that an uncaught exception shows as a traceback
    if input_text is not None:
        path = tmp_path / "input.txt"
        path.write_text(input_text)
        argv = argv + ["--input", str(path)]
    src = os.path.dirname(os.path.dirname(levelalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "levelalg.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode in (1, 2), proc.stderr
    assert "Traceback" not in proc.stderr and "internal bug" not in proc.stderr
    assert proc.stdout == ""
    marker = "error: " if proc.returncode == 2 else "usage error: "
    assert [line for line in proc.stderr.splitlines() if "error" in line] == \
        [proc.stderr.splitlines()[-1]]
    assert proc.stderr.splitlines()[-1].startswith(marker)


@pytest.mark.parametrize("tdir, out", [
    ("2 1 0 0", "class: 0\ncodim: 4\n"),
    ("2 1 0 1", "class: 1\ncodim: 0\n"),
    ("2 1 1 1", "class: 0\ncodim: 1\n"),
    ("1 0 0 0", "class: 0\ncodim: 1\n"),
    ("1 0 0 1", "class: 1\ncodim: 0\n"),
])
def test_porteous_on_a_point(tdir, out):
    # G(d + 1, S_d) is a point
    t, d, i, r = tdir.split()
    assert run_cli(["porteous", "-t", t, "-d", d, "-i", i, "-r", r]) == (0, out)


def test_porteous_on_an_empty_grassmannian(capsys):
    for t, d in (("3", "1"), ("5", "2")):
        assert main(["porteous", "-t", t, "-d", d, "-i", "0", "-r", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: G({t}, S_{d}) is empty: need t <= d + 1\n"


def test_reused_parser_answers_as_a_fresh_interpreter():
    # main builds its parser once per process; a run of calls in one
    # interpreter must print what each call prints in a fresh one
    calls = [["hf-check"],
             ["porteous", "-t", "2", "-d", "5", "-i", "2", "-r", "2"],
             ["--format", "json-lines", "hf-check", "1,2,3,4,5,5,4,3,0"],
             ["bott", "--", "-1,-1,-1,-1;4"],
             ["kronecker", "2,1", "2,1", "2,1", "--cap", "5"],
             ["hf-partition"],
             ["-h"]]
    src = os.path.dirname(os.path.dirname(levelalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = """
import contextlib, io, json, sys
from levelalg.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          capture_output=True, text=True, env=env, check=True)
    in_one = json.loads(proc.stdout)
    for argv, got in zip(calls, in_one, strict=True):
        fresh = subprocess.run([sys.executable, "-m", "levelalg.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert got == [fresh.returncode, fresh.stdout, fresh.stderr], argv
    assert [rc for rc, _, _ in in_one] == [1, 0, 0, 0, 0, 1, 0]


# bott weights that start with a minus sign, after the usual `--`
DASHED_BOTT_ARGVS = (["bott", "--", "-1,-1,-1,-1;4"], ["bott", "--", "-2,-3;1,0,0"])


def test_plain_calls_build_no_parser(monkeypatch):
    # the golden argvs are plain: main reads them off the subcommand table,
    # and so are the one-positional calls that end in `-- X`
    build_parser.cache_clear()
    for name, argv in GOLDEN_CASES.items():
        with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
            assert run_cli(argv) == (0, fh.read()), name
    outputs = [run_cli(argv) for argv in DASHED_BOTT_ARGVS]
    assert build_parser.cache_info().currsize == 0
    assert [rc for rc, _ in outputs] == [0, 0]
    for argv in DASHED_BOTT_ARGVS:
        assert _plain_args(argv) == _argparse_args(argv)
        assert _plain_args(argv).gamma == argv[-1]
    # argparse prints the same
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert [run_cli(argv) for argv in DASHED_BOTT_ARGVS] == outputs
    assert build_parser.cache_info().currsize == 1


def _argparse_args(argv):
    """build_parser().parse_args(argv), or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def test_golden_argvs_are_plain():
    for argv in GOLDEN_CASES.values():
        args = _plain_args(argv)
        assert args is not None and args == _argparse_args(argv), argv


_VALUES = ("2", "0", "-1", "+3", " 4", "1_0", "٣", "²", "", "-", "x", "{1}", "-{1} + {2}")
_JUNK = ("--", "-h", "--inp", "--cap", "-t5", "--cap-weight=3", "--format", "-q")


@st.composite
def _spec_argvs(draw):
    """An argv shaped by a _COMMANDS spec: some optional arguments left out,
    flags (now and then twice) in any order with the positionals between
    them, values "2" or from _VALUES; then now and then one junk token
    inserted, one token deleted, or the two tokens after the subcommand
    repeated; now and then a `-- X` tail, X a positional's value moved
    there or "--" or one from _VALUES; now and then a --format first."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    units, words = [], []
    for token in _COMMANDS[command][2].split():
        arg = token.strip("[]")
        for _ in range(draw(st.integers(0 if arg != token else 1, 2))):
            value = draw(st.sampled_from(_VALUES)) if draw(st.booleans()) else "2"
            if not arg.startswith("-"):
                words.append(value)
                units.append([value])
            elif "action" in _FLAGS.get(arg, {}):
                units.append([arg])
            else:
                units.append([arg, value])
    tail = draw(st.sampled_from(("none", "none", "moved", "drawn")))
    if tail == "moved" and words:
        units.remove([words[0]])
        tail = ["--", words[0]]
    elif tail == "drawn":
        tail = ["--", draw(st.sampled_from(("--", *_VALUES)))]
    argv = [command, *(x for unit in draw(st.permutations(units)) for x in unit)]
    change = draw(st.sampled_from(("none", "none", "junk", "delete", "repeat")))
    k = draw(st.integers(0, len(argv)))
    if change == "junk":
        argv.insert(k, draw(st.sampled_from(_JUNK)))
    elif change == "delete" and k < len(argv):
        del argv[k]
    elif change == "repeat":
        argv = argv[:3] + argv[1:]
    if isinstance(tail, list):
        argv += tail
    fmt = draw(st.sampled_from(([], [], ["--format", "json-lines"], ["--format", "keyvalue"],
                                ["--format", "x"])))
    return fmt + argv


def test_one_positional_commands_read_a_dashed_tail():
    # `-- X` fills a subcommand's only positional, whatever X starts with;
    # with several positionals, or X = "--", argparse reads the argv
    singles = [c for c in _COMMANDS if sum(not a.startswith("-") for a, _ in _signature(c)) == 1]
    assert sorted(singles) == ["bott", "burch", "hankel-rank", "hf-check", "hf-partition"]
    for command in singles:
        flags = [x for arg, kwargs in _signature(command) if kwargs.get("required")
                 for x in (arg, "2")]
        for value in ("2", *_VALUES):
            argv = [command, *flags, "--", value]
            assert _plain_args(argv) is not None, argv
            assert _plain_args(argv) == _argparse_args(argv), argv
        # a word already fills the positional, or a second `--`
        for argv in ([command, "2", *flags, "--", "3"], [command, *flags, "--", "--"],
                     [command, "--", *flags, "--", "3"]):
            assert _plain_args(argv) is None, argv
    for argv in (["kronecker", "2", "2", "--", "-"], ["kronecker", "2", "2", "--", "--"],
                 ["schubert-mul", "-t", "2", "-d", "5", "{1}", "--", "-{1}"]):
        assert _plain_args(argv) is None, argv


@settings(max_examples=300, deadline=None)
@given(st.one_of(_spec_argvs(), st.lists(
    st.sampled_from((*_COMMANDS, "-t", "-d", "--input", "--mu", "--shape", *_VALUES, *_JUNK)),
    max_size=6)))
def test_plain_reader_agrees_with_argparse(argv):
    args = _plain_args(argv)
    assert args is None or args == _argparse_args(argv), argv


# -- a total CLI on the subcommands that reach linalg ------------------------

@st.composite
def _form_lines(draw, nvars=st.integers(1, 3)):
    """Lines of forms in y1..yn, n <= 3 drawn from nvars, of degree <= 5
    (now and then of a second degree), coefficients in -3..3, with zero
    forms, repeats and rescaled copies mixed in."""
    n, d = draw(nvars), draw(st.integers(0, 5))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.sampled_from((d, d, d, draw(st.integers(0, 5)))))
        coeffs = {m: draw(st.integers(-3, 3)) for m in monomials(n, degree)
                  if draw(st.booleans())}
        f = Form.make(n, degree, "S", coeffs)
        lines.append(form_print(f))
        for _ in range(draw(st.integers(0, 2))):
            lines.append(form_print(f.scale(draw(st.sampled_from((1, -1, 2, -3))))))
    return draw(st.permutations(lines))


@st.composite
def _generator_lines(draw, nvars=st.integers(1, 3)):
    """Lines of operators in x1..xn, n <= 3 drawn from nvars, of degree
    <= 4, coefficients in -3..3, with zero lines, constants and repeats
    mixed in."""
    n = draw(nvars)
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        degree = draw(st.integers(0, 4))
        coeffs = {m: draw(st.integers(-3, 3)) for m in monomials(n, degree)
                  if draw(st.booleans())}
        lines += [form_print(Form.make(n, degree, "R", coeffs))] * draw(st.integers(1, 2))
    return draw(st.permutations(lines))


@st.composite
def _plane_lines(draw, d):
    """Lines of t + 1 nonzero binary operators, 1 <= t <= d + 1, of degrees
    q_i <= d + 1 adding up to t (d + 2): the codimensions d + 1 - q_i of
    their secant planes in S_d add up to d - t + 1, as secant-intersect -d d
    asks, and such planes mostly meet properly."""
    d = max(d, 0)
    t = draw(st.integers(1, d + 1))
    left, qs = d - t + 1, []
    for _ in range(t):
        codim = draw(st.integers(0, left))
        qs.append(d + 1 - codim)
        left -= codim
    lines = []
    for q in (*qs, d + 1 - left):
        coeffs = {m: draw(st.integers(-3, 3)) for m in monomials(2, q)}
        coeffs[draw(st.sampled_from(monomials(2, q)))] = draw(st.sampled_from((1, -2, 3)))
        lines.append(form_print(Form.make(2, q, "R", coeffs)))
    return lines


@st.composite
def _gad_lines(draw, d):
    """Lines 'a,b,alpha' of a GAD pattern in degree d: point entries in
    -3..3 or a fraction (so (0, 0) and proportional points occur), now and
    then a zero denominator; exponents mostly -1 <= alpha < d with length
    sum(alpha + 1) <= d + 1, now and then any in -2..4."""
    entries = st.sampled_from(("0", "1", "-1", "2", "-2", "3", "-3", "1/2", "-4/3", "1/0"))
    lines, left = [], max(d + 1, 0)
    for _ in range(draw(st.integers(1, 3))):
        alpha = draw(st.one_of(st.integers(-1, max(min(d, left) - 1, -1)), st.integers(-2, 4)))
        left -= alpha + 1
        lines.append(f"{draw(entries)},{draw(entries)},{alpha}")
    return lines


@settings(max_examples=220, deadline=None)
@given(st.sampled_from((
    ["tangent"], ["tangent", "--shape"], ["hilbert"], ["ann"], ["ann", "-i"],
    ["in-sigma", "-s"], ["stacked-det", "-s"], ["hankel-rank", "-i"],
    ["secant-decompose"], ["secant-intersect", "-d"], ["gad", "-d"])),
    st.integers(-1, 6), st.data())
def test_linalg_subcommands_are_total(tmp_path_factory, command, k, data):
    # secant-intersect reads operator lines and gad point lines; the others
    # read form lines.  The secant commands take two variables, so they
    # mostly draw two, and secant-intersect also draws planes that -d k
    # admits
    binary = st.sampled_from((2, 2, 2, 1, 3))
    lines = data.draw({"secant-decompose": _form_lines(binary),
                       "secant-intersect": st.one_of(_plane_lines(k), _generator_lines(binary)),
                       "gad": _gad_lines(k)}.get(command[0], _form_lines()))
    if command[0] == "hankel-rank":
        argv = [command[0], lines[0], "-i", str(k)]
    else:
        path = tmp_path_factory.mktemp("total") / "input.txt"
        path.write_text("\n".join(lines) + "\n")
        argv = command + ([str(k)] if command[-1].startswith("-") else []) + \
            ["--input", str(path)]
    rc, out = _run_total(argv)
    printed = dict(line.split(": ", 1) for line in out.splitlines())
    if command[0] == "tangent" and rc == 0 and "formula" in printed:
        assert printed["dimension"] == printed["formula"], lines


def _run_total(argv):
    """(exit code, stdout) of main(argv) in this interpreter, asserting the
    total-CLI contract: exit 0, 1 or 2, no uncaught exception, no traceback
    and no `internal bug` on stderr, and a domain error as one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue() and "internal bug" not in err.getvalue(), argv
    if rc == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    return rc, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(_generator_lines())
def test_socle_is_total(tmp_path_factory, lines):
    # socle reaches integer_echelon through the ideal slices and the socle
    # ranks, on generator lines
    path = tmp_path_factory.mktemp("socle") / "gens.txt"
    path.write_text("\n".join(lines) + "\n")
    rc, out = _run_total(["socle", "--input", str(path)])
    if rc == 0:
        assert [line.split(": ")[0] for line in out.splitlines()] == \
            ["SOCLE", "LEVEL", "SOCLE_DEGREE", "TYPE"], lines


# -- and on the subcommands that do not ---------------------------------------

def _with_junk(argvs):
    """Each argv as drawn, or with one token after the subcommand replaced
    by junk text."""
    @st.composite
    def spoiled(draw):
        argv = draw(argvs)
        k = draw(st.integers(1, len(argv) - 1))
        return [*argv[:k], draw(st.text("0123456789,;{}+- ax", max_size=8)), *argv[k + 1:]]
    return st.one_of(argvs, spoiled())


def _tokens(*pairs):
    return [str(x) for pair in pairs for x in pair]


@st.composite
def _rank_locus(draw, command, t_max):
    """-t -d -i -r in or one step outside 1 <= t <= d + 1, 0 <= i <= d and
    0 <= r <= i, with d <= 6; e1-table also gets -m and a small weight cap."""
    t = draw(st.integers(0, t_max))
    d = draw(st.integers(max(t - 2, -1), 6))
    i = draw(st.integers(-1, d + 1))
    argv = [command, *_tokens(("-t", t), ("-d", d), ("-i", i),
                              ("-r", draw(st.integers(-1, max(i, 0) + 1))))]
    if command == "e1-table":
        argv += _tokens(("-m", draw(st.integers(-2, 2))),
                        ("--cap-weight", draw(st.integers(-1, 8))))
    return argv


@st.composite
def _same_weight_partitions(draw):
    n = draw(st.integers(0, 6))
    parts = st.sampled_from(list(partitions_in_box(n, n, n)))
    return [",".join(map(str, draw(parts))) or "0" for _ in range(3)]


@st.composite
def _schubert_product(draw):
    """Two classes of G(t, d + 1), t <= 3, d <= 5: sums of Schubert symbols
    in the t x (d + 1 - t) box, now and then one a column too wide."""
    t = draw(st.integers(1, 3))
    d = draw(st.integers(t - 1, 5))
    symbol = st.lists(st.integers(0, d + 2 - t), max_size=t).map(
        lambda v: "{" + ",".join(map(str, sorted(v, reverse=True))) + "}")
    term = st.tuples(st.integers(1, 9), symbol).map(lambda c: f"{c[0]}{c[1]}")
    classes = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    return ["schubert-mul", *_tokens(("-t", t), ("-d", d)), draw(classes), draw(classes)]


_LEVEL_HFS = [h.format() for t in range(1, 4) for d in range(max(t - 1, 1), 7)
              for h in levelalg.enumerate_level_hf(t, d)]
_SEQUENCES = st.one_of(
    st.sampled_from(_LEVEL_HFS),
    st.lists(st.integers(0, 6), max_size=7).map(lambda v: ",".join(map(str, [1, *v, 0]))),
    st.lists(st.integers(-1, 6), min_size=1, max_size=7).map(lambda v: ",".join(map(str, v))))
_OTHER_COMMANDS = _with_junk(st.one_of(
    *(_rank_locus(c, 3) for c in ("porteous", "components", "lascoux-ranks")),
    _rank_locus("e1-table", 2),
    *(st.lists(st.integers(-4, 4), min_size=1, max_size=6).map(
        lambda v, sep=sep: ["bott", "--", sep.join(map(str, v))]) for sep in (",", ";")),
    st.tuples(_same_weight_partitions(), st.integers(-1, 8)).map(
        lambda v: ["kronecker", *v[0], "--cap-weight", str(v[1])]),
    _schubert_product(),
    *(_SEQUENCES.map(lambda seq, c=c: [c, seq]) for c in ("hf-check", "burch", "hf-partition")),
    st.tuples(st.lists(st.integers(1, 4), max_size=4), st.integers(0, 3), st.integers(0, 6)).map(
        lambda v: ["hf-partition", "--mu", "+".join(map(str, sorted(v[0], reverse=True))) or "0",
                   *_tokens(("-t", v[1]), ("-d", v[2]))]),
    st.tuples(st.integers(-1, 4), st.integers(-1, 8)).map(
        lambda v: ["hf-enumerate", *_tokens(("-t", v[0]), ("-d", v[1]))]),
    *(st.tuples(st.integers(0, 4), st.integers(0, 10), st.integers(0, 9)).map(
        lambda v, c=c: [c, *_tokens(("-t", v[0]), ("-d", v[1]), ("-s", v[0] + v[2] - 1))])
      for c in ("sigma-dim", "waring-witness")),
))


@settings(max_examples=300, deadline=None)
@given(_OTHER_COMMANDS)
def test_other_subcommands_are_total(argv):
    # porteous, components, lascoux-ranks, e1-table, bott, kronecker,
    # schubert-mul, hf-*, burch, sigma-dim and waring-witness
    _run_total(argv)
