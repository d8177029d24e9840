"""Checks on the package source itself."""

import ast
from pathlib import Path

import complexity_one

SOURCES = sorted(Path(complexity_one.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so self-checks must raise package errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
