import ast
import pathlib

import levelalg


def test_library_has_no_assert_statements():
    # invariants must still be checked under python -O, which strips asserts
    package = pathlib.Path(levelalg.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
