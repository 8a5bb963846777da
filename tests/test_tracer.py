"""The benchmark's tracer (bench/tracer.py) wraps the program by name,
from outside, and its workloads (bench/workloads.py) call the program by
name.  Every name either lists must resolve on ainfbench, or a benchmark
run stops at install, loses a metric or fails its operations."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from ainfbench import hochschild
from ainfbench.scalars import FieldSpec

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


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


def _workload_bindings():
    """[(what, resolved)] for each name bench/workloads.py imports from
    ainfbench and each attribute it reads on an imported ainfbench module;
    resolved is False when the name is missing."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ainfbench":
            source = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(source, alias.name, None)
                found.append((f"{node.module}.{alias.name}", value is not None))
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            module = modules[node.value.id]
            found.append((f"{module.__name__}.{node.attr}", hasattr(module, node.attr)))
    return found


def test_every_name_the_workloads_bind_resolves():
    # a name deleted from the program would strand a workload with no
    # other tier-1 test failing
    found = _workload_bindings()
    assert ("ainfbench.polygons.triangle_criterion", True) in found
    assert ("ainfbench.quiver.Element", True) in found
    assert [what for what, resolved in found if not resolved] == []


def test_tracer_sees_the_gauge_solves(Q, model8):
    # mc_extend and extract_invariants solve through is_coboundary, which
    # the tracer wraps at every binding, so their solves get spans
    from ainfbench import gauge

    tracer = _load_tracer()
    for run in (lambda: gauge.mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10),
                lambda: gauge.extract_invariants(model8.minimal)):
        with tracer.Tracer() as t:
            run()
        assert t.totals()["hochschild.is_coboundary.calls"] > 0
