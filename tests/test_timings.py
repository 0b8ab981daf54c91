"""Smoke test of tools/timings.py, the timings of CI's job summary: its
in-process cases run and print their lines, its source counts give each
module's docstring lines, its counting patches are undone, a CLI case times
the call in a fresh interpreter, and its gates fail on a non-zero exit and
on the wrong md5."""

import hashlib
import importlib.util
import pathlib

import pytest

from levelalg import apolarity, linalg, tangent

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "timings.py"
_spec = importlib.util.spec_from_file_location("timings", _PATH)
timings = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(timings)

PATCHED = ((apolarity, "_chain_step"), (tangent, "sparse_kernel"),
           (linalg, "_modular_pivot_rows"), (linalg, "sparse_rank"),
           (linalg, "_sparse_combine"), (apolarity, "_sparse_combine"))


def test_case_names_are_unique():
    # a case's name is its function's name; its heading is its docstring
    cases = timings.IN_PROCESS + timings.CLI
    for names in ([case.__name__ for case in cases], [case.__doc__ for case in cases]):
        assert len(set(names)) == len(names) and all(names)


def test_the_in_process_cases_print_their_lines_and_undo_their_patches():
    before = [getattr(module, name) for module, name in PATCHED]
    for case in timings.IN_PROCESS:
        lines = list(case())
        assert any(lines) and all(isinstance(line, str) for line in lines), case.__name__
    assert all(getattr(module, name) is func
               for (module, name), func in zip(PATCHED, before))


def test_source_counts_give_each_module_its_docstring_lines():
    src = '"""Module\n\ndoc."""\n\n\ndef f():\n    """One."""\n    # a comment\n    return 1\n'
    assert timings.docstring_lines(src) == {1, 2, 3, 7}
    assert timings.code_lines(src) == 2
    lines = list(timings.source_counts())
    rows = [line.split("|")[1:-1] for line in lines if line.startswith("| src/levelalg/")]
    assert len(rows) == len(list((timings.ROOT / "src" / "levelalg").glob("*.py")))
    for name, total, code, doc in rows:
        text = (timings.ROOT / name.strip()).read_text(encoding="utf-8")
        assert int(doc) == len(timings.docstring_lines(text)) > 0, name
        assert int(code) + int(doc) <= int(total), name
    assert f"src/ docstring lines: {sum(int(row[3]) for row in rows)}" in lines


def test_a_patch_is_undone_when_the_case_raises():
    before = apolarity._chain_step
    with pytest.raises(ZeroDivisionError):
        with timings.recording((apolarity, "_chain_step")):
            assert apolarity._chain_step is not before
            1 / 0
    assert apolarity._chain_step is before


def test_a_cli_case_times_the_call_in_a_fresh_interpreter_and_gates_its_exit():
    line, out = timings.levelalg(["hf-check", "1,2,3,4,5,5,4,3,0"])
    assert line.startswith("levelalg hf-check 1,2,3,4,5,5,4,3,0: ") and line.endswith(" ms")
    assert out == "valid: true\n"
    with pytest.raises(timings.GateFailure, match="exit 2"):
        timings.levelalg(["components", "-t", "0", "-d", "3", "-i", "1", "-r", "0"])


@pytest.mark.parametrize("pinned", [True, False])
def test_main_exits_1_when_the_lascoux_md5_differs(monkeypatch, capsys, pinned):
    # every fresh interpreter "prints" the same stdout; its md5 is pinned or not
    stdout = "lines\n"
    monkeypatch.setattr(timings, "IN_PROCESS", ())
    monkeypatch.setattr(timings, "fresh", lambda code, *args: f"0.001\n{stdout}")
    if pinned:
        monkeypatch.setattr(timings, "LASCOUX_MD5", hashlib.md5(stdout.encode()).hexdigest())
    assert timings.main() == (0 if pinned else 1)
    out = capsys.readouterr().out
    assert ("gate failed" in out) is not pinned
    assert sum(line.startswith("levelalg ") for line in out.splitlines()) == 14
