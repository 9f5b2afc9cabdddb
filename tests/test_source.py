"""Checks on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_importing_the_cli_loads_no_dataclasses_inspect_or_datetime():
    """Each command runs in its own process, so what ``import fairdiv.cli``
    loads is paid on every call; none of these modules is needed by any
    command.  A bare interpreter (``-S``: no site packages) shows what the
    package itself imports."""
    script = "import sys, fairdiv.cli; print(sorted({'dataclasses', 'inspect', 'datetime'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
