"""Smoke tests: each script in scripts/ runs to completion on small inputs."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
CNF = "c two clauses\np cnf 3 2\n1 2 -3 0\n-1 -2 -3 0\n"
UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("text", [None, CNF, UNSAT_CNF], ids=["built-in", "sat", "unsat"])
def test_inspect_reduction(tmp_path, capsys, text):
    argv = []
    if text is not None:
        (tmp_path / "f.cnf").write_text(text)
        argv = [str(tmp_path / "f.cnf")]
    assert load("inspect_reduction").main(argv) == 0
    assert "dominance search:" in capsys.readouterr().out

