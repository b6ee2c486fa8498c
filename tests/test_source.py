"""Checks on the library source itself."""

import ast
from pathlib import Path

import nielsen_forge


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements; invariants raise typed errors
    paths = sorted(Path(nielsen_forge.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
