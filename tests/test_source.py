import ast
import importlib
import io
import pathlib
import re
import sys
import tokenize
from functools import cached_property

import levelalg


def test_library_has_no_assert_statements():
    # invariants must still be checked under python -O, which strips asserts
    package = pathlib.Path(levelalg.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_imports_only_the_standard_library():
    # no runtime dependencies: sympy and hypothesis are test-only oracles
    package = pathlib.Path(levelalg.__file__).parent
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert imported
    assert [(name, module) for name, module in sorted(imported)
            if module not in sys.stdlib_module_names and module != "levelalg"] == []


def _prose_matches(pattern):
    """(module path, line, match) for every match of pattern in a docstring
    or comment of a library module."""
    package = pathlib.Path(levelalg.__file__).parent
    for path in sorted(package.glob("*.py")):
        src = path.read_text(encoding="utf-8")
        prose = [(node.body[0].lineno, ast.get_docstring(node, clean=False))
                 for node in ast.walk(ast.parse(src))
                 if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                 and ast.get_docstring(node) is not None]
        prose += [(tok.start[0], tok.string)
                  for tok in tokenize.generate_tokens(io.StringIO(src).readline)
                  if tok.type == tokenize.COMMENT]
        for line, text in prose:
            for match in pattern.finditer(text):
                yield path, line + text.count("\n", 0, match.start()), match


# a number with a unit of time (ms, µs, us, s), or a number followed by x
MEASUREMENT = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:\s?(?:ms|µs|us|s)\b|x\b)")


def test_no_docstring_or_comment_quotes_a_measurement():
    # timings and speed ratios go stale with the code and the host; they
    # belong in CHANGES.md, next to how they were taken
    assert [f"{path.name}:{line}: {match.group()}"
            for path, line, match in _prose_matches(MEASUREMENT)] == []


# "see name" in prose; a name is checked when it reads as code: it holds a
# dot or an underscore, or a capital after its first letter (a class name)
POINTER = re.compile(r"\bsee\s+([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def _resolves(module, name: str) -> bool:
    """Whether name is a function, class, method or property of module (a
    bare name must be defined there) or, dotted, module.name of a library
    module."""
    head, *rest = name.split(".")
    path = pathlib.Path(module.__file__)
    defined = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    if head in defined:
        obj = getattr(module, head)
    elif rest and (path.parent / f"{head}.py").exists():
        obj = importlib.import_module(f"levelalg.{head}")
    else:
        return False
    for attr in rest:
        obj = vars(obj).get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
        if obj is None:
            return False
    return callable(obj) or isinstance(obj, (property, cached_property))


def test_every_see_pointer_names_a_function_or_class():
    # a proof has one home; every other place points at it with "see name",
    # and a pointer must not outlive the function it names
    stale, checked = [], 0
    for path, line, match in _prose_matches(POINTER):
        name = match.group(1)
        if "_" in name or "." in name or any(c.isupper() for c in name[1:]):
            module = importlib.import_module(
                "levelalg" if path.stem == "__init__" else f"levelalg.{path.stem}")
            checked += 1
            if not _resolves(module, name):
                stale.append(f"{path.name}:{line}: see {name}")
    assert stale == [] and checked >= 20


# Public functions that no library function or CLI subcommand calls, each
# kept for the reason given.  Any other such function is an orphan.
UNCALLED_PUBLIC_FUNCTIONS = {
    "internal_product": "the README's differentiation action; the sympy oracle's entry point",
    "hilbert_function": "the README example; the benchmark harness tests require its span",
    "count_level_hf": "the independent count in the acceptance tests",
    "hypersurface_case": "named in the README and in the acceptance tests",
    "subspace_intersect": "row-space intersection in the README tour",
    "right_kernel": "exported and named in the README's linalg line: the Fraction "
                    "kernel the tests' reference routes take",
    "det": "exported and named in the README's linalg line: the Fraction determinant "
           "the tests' reference for stacked_catalecticant_det takes",
    "stacked_hankel": "the exported Fraction view of the stacked Hankel matrix; the "
                      "tests' reference for stacked_catalecticant_det",
    "lr_coefficient": "the benchmark reads its cache statistics",
    "character": "the benchmark reads its cache statistics; the tests' character oracle",
    "class_of": "builds the Schubert classes of the acceptance tests",
    "minmax_hf": "the extremal level Hilbert functions that the tests bound against",
    "schur_dim": "the hook-content dimension, the tests' independent check on the Weyl "
                 "product that lascoux_ranks and the Schur-class kernel call unchecked",
    "dvir_bound_ok": "acceptance criterion 11 imports it; no library route applies "
                     "the bound since the E1 tables left the Kronecker coefficients",
}


# Public methods and properties of library classes that no library code
# reads as an attribute, each kept for the reason given.
UNCALLED_PUBLIC_METHODS = {
    "Form.coeff": "the acceptance tests read the coefficients of an operator with it",
    "Form.substitute_linear": "the benchmark and the acceptance tests move Burch "
                              "generators with it",
    "Subspace.contains": "the acceptance tests check that a secant plane holds a form",
    "Form.scale": "the tests build linear combinations of forms with it",
    "Form.monic": "the tests compare forms up to scale with it",
    "SchubertClass.is_zero": "the Schubert tests check vanishing products and classes",
    "TangentSpace.basis": "the tangent tests check the Hom(I_d, R_d/I_d) matrices; "
                          "tools/timings.py times the first access",
}


# Public methods whose name another library class also defines, so that a
# read of the name cannot say whose method it is.  Each names its library
# reader (module.function or module.Class.method), which must read the name,
# or None, and then its reason is in UNCALLED_PUBLIC_METHODS.
SHARED_NAME_READERS = {
    "BottResult.is_zero": "cli._cmd_bott",
    "Form.is_zero": "apolarity._condition_rows",
    "SchubertClass.is_zero": None,
    "Form.scale": None,
    "SchubertClass.scale": "schubert.SchubertClass.__sub__",
    "Form.zero": "forms.Form.scale",
    "Subspace.zero": "secant.gad_subspace",
    "Subspace.basis": "cli._subspace_lines",
    "TangentSpace.basis": None,
}


def test_every_public_function_has_a_caller_or_a_reason():
    # a function counts as called when a library module other than __init__
    # (whose imports only re-export) reads it, or an alias it is imported
    # under, outside its own definition; a method or property of a class
    # when such a module reads an attribute of its name outside its own
    # definition, and, if another class defines the same name, when the
    # reader SHARED_NAME_READERS names reads that attribute
    package = pathlib.Path(levelalg.__file__).parent
    functions, methods, read, readers = set(), set(), set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if alias.asname}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                units = [(member, node.name) for member in node.body]
                units += [(expr, None) for expr in node.decorator_list + node.bases]
            else:
                units = [(node, None)]
            for unit, cls in units:
                own = unit.name if isinstance(unit, ast.FunctionDef) else None
                if own and not own.startswith("_"):
                    if cls:
                        methods.add((cls, own))
                    else:
                        functions.add(own)
                reader = ".".join(filter(None, (path.stem, cls, own)))
                for sub in ast.walk(unit):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        read.add((aliases.get(sub.id, sub.id), own, False))
                    elif isinstance(sub, ast.Attribute):
                        read.add((sub.attr, own, True))
                        readers.add((sub.attr, reader))
    called = {name for name, where, _ in read if name != where}
    attributes = {name for name, where, attribute in read if attribute and name != where}
    assert sorted(functions - called) == sorted(UNCALLED_PUBLIC_FUNCTIONS)
    names = [name for _, name in methods]
    shared = {f"{cls}.{name}": name for cls, name in methods if names.count(name) > 1}
    assert sorted(shared) == sorted(SHARED_NAME_READERS)
    assert [(method, reader) for method, reader in SHARED_NAME_READERS.items()
            if reader is not None and (shared[method], reader) not in readers] == []
    uncalled = {f"{cls}.{name}" for cls, name in methods if name not in attributes}
    uncalled |= {method for method, reader in SHARED_NAME_READERS.items() if reader is None}
    assert sorted(uncalled) == sorted(UNCALLED_PUBLIC_METHODS)
