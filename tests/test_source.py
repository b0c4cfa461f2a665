"""Checks on the library source itself."""

import ast
from pathlib import Path

import linkcone


def test_library_raises_invariants_instead_of_asserting():
    # `python -O` strips assert statements, so an invariant the library
    # relies on must be raised as an exception (for example RuntimeError)
    sources = sorted(Path(linkcone.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
