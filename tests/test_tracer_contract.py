"""The benchmark's tracer (bench/tracer.py) wraps program functions by
module and name.  A renamed function would silently drop out of a traced
run, so every name it lists must resolve in ``fairdiv``."""

import importlib
import importlib.util
import inspect
import pathlib
import sys

from fairdiv import generate_weights, max_atomic_instance

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # read the file, write nothing beside it
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_the_package(monkeypatch):
    tracer = load_tracer(monkeypatch)
    for module in tracer.MODULES:
        importlib.import_module(f"{tracer.PACKAGE}.{module}")
    for layer, targets in tracer.LAYERS.items():
        for module, func in targets:
            target = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), func, None)
            assert callable(target), f"{layer}: {tracer.PACKAGE}.{module}.{func} is gone"
            assert inspect.isgeneratorfunction(target) == (func in tracer.GENERATORS), func


def test_the_weight_matrix_keeps_the_field_the_tracer_reads():
    weights = generate_weights(max_atomic_instance([[2, 1]]))
    assert weights.weights == ((1, 2),)
