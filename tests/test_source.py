import ast
import pathlib
import sys

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
