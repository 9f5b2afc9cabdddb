"""Checks on the package source itself."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fairdiv"


def test_the_package_holds_no_assert_statement():
    """``python -O`` drops ``assert`` statements, so a check the program
    relies on raises explicitly instead."""
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
