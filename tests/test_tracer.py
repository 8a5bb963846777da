"""The benchmark's tracer (bench/tracer.py) wraps the program by name,
from outside.  Every name it lists must resolve on ainfbench, or a traced
benchmark run stops at install or loses a metric."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from ainfbench import hochschild
from ainfbench.scalars import FieldSpec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()

    def module(name):
        return importlib.import_module(f"{tracer.PACKAGE}.{name}")

    for modname, names in tracer.SPAN_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(module(modname), name, None)), f"{modname}.{name}"
    for modname, cls, meth in (tracer.SPAN_METHODS + tracer.COUNTED_METHODS
                               + tracer.GENERATOR_METHODS):
        assert meth in vars(getattr(module(modname), cls)), f"{modname}.{cls}.{meth}"
    for modname, cls, meth in tracer.GENERATOR_METHODS:
        assert inspect.isgeneratorfunction(vars(getattr(module(modname), cls))[meth])


def test_tracer_installs_and_restores():
    # the wrappers see calls made through the module, and go on exit
    tracer = _load_tracer()
    before = hochschild.delta_matrix
    with tracer.Tracer() as t:
        hochschild.hh_bar(FieldSpec(0), 2)
    assert hochschild.delta_matrix is before
    totals = t.totals()
    assert totals["hochschild.hh_bar.calls"] == 1
    assert totals["hochschild.delta_matrix.calls"] > 0
