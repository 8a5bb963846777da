"""src/ holds only the program: every top-level function, class and method
is reached from ``cli.main`` or from a name the benchmark binds (the
tracer's wrapped names, and every name bench/workloads.py imports, calls
or reads).  Code that only tests call lives under tests/.

Reachability is by name, read from the syntax tree: a reached definition
reaches every definition whose name a Name or Attribute node in its body
carries, whatever the object, so a shared method name keeps all its
holders.  Statements that run at import (module and class bodies,
decorators, defaults, bases) are reached; a reached class reaches its
dunders, which are exempt from the report.

Every process imports the package, so it imports only the stdlib modules
it computes with: its value types and records are written out, since
dataclasses imports inspect (and ast, dis and tokenize with it).  The
value types keep what the generated classes gave them."""

import ast
import copy
import importlib.util
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ainfbench.gauge import DeformationClass
from ainfbench.hochschild import Cochain
from ainfbench.polygons import PolygonScene, SceneCurve, preset_scene
from ainfbench.quiver import Generator
from ainfbench.scalars import FieldSpec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ainfbench"
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _names(*nodes) -> set:
    """The identifiers that Name and Attribute nodes under nodes carry."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _import_time(node) -> list:
    """The parts of a definition that run when its module is imported."""
    parts = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return parts + node.bases + node.keywords
    return parts + node.args.defaults + [d for d in node.args.kw_defaults if d]


def _definitions():
    """([(qualified name, simple name, walked nodes)], import-time nodes).
    A function's walked node is itself; a class's are its non-method
    statements and its dunder methods."""
    defs, seeds = [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{module}.{node.name}", node.name, [node]))
                seeds += _import_time(node)
            elif isinstance(node, ast.ClassDef):
                own = []
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        seeds += _import_time(item)
                        if _is_dunder(item.name):
                            own.append(item)
                        else:
                            defs.append((f"{module}.{node.name}.{item.name}", item.name, [item]))
                    else:
                        own.append(item)
                defs.append((f"{module}.{node.name}", node.name, own))
                seeds += _import_time(node)
            else:
                seeds.append(node)
    return defs, seeds


def _bench_names() -> set:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {f for fs in tracer.SPAN_FUNCTIONS.values() for f in fs}
    names |= {meth for _, _, meth in (tracer.SPAN_METHODS + tracer.COUNTED_METHODS
                                      + tracer.GENERATOR_METHODS)}
    tree = ast.parse(WORKLOADS.read_text())
    names |= _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ainfbench":
            names |= {alias.name for alias in node.names}
    return names


def unreached() -> list:
    """Qualified names of the non-dunder definitions under src/ that
    neither cli.main nor the benchmark's names reach."""
    defs, seeds = _definitions()
    by_name = {}
    for entry in defs:
        by_name.setdefault(entry[1], []).append(entry)
    reached = set()
    todo = ["main"] + sorted(_bench_names() | _names(*seeds))
    while todo:
        name = todo.pop()
        for qual, _, nodes in by_name.get(name, ()):
            if qual not in reached:
                reached.add(qual)
                todo += _names(*nodes)
    return sorted(qual for qual, simple, _ in defs
                  if qual not in reached and not _is_dunder(simple))


def test_every_definition_is_reached_by_the_program_or_the_benchmark():
    assert unreached() == []


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "unwanted = {'dataclasses', 'inspect'}\n"
            "print(sorted(unwanted & set(sys.modules)))\n"
            "import ainfbench\n"
            "print(sorted(unwanted & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    before, after = proc.stdout.splitlines()
    if before != "[]":
        pytest.skip(f"the interpreter loads {before} before any import")
    assert after == "[]"


@pytest.mark.parametrize("cls, args, text", [
    (FieldSpec, (0,), "FieldSpec(characteristic=0)"),
    (FieldSpec, (5,), "FieldSpec(characteristic=5)"),
    (Generator, ("u", "a", "b", 1), "Generator(name='u', source='a', target='b', degree=1)"),
])
def test_value_types_are_immutable_and_go_by_value(cls, args, text):
    value, twin = cls(*args), cls(*args)
    assert repr(value) == text
    assert twin == value and hash(twin) == hash(value) and {value: 1}[twin] == 1
    assert value != cls(*args[:-1], args[-1] + 2)
    for same in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert same == value and hash(same) == hash(value) and repr(same) == text
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, field, args[-1])
    assert repr(value) == text


def test_records_compare_by_value():
    ref = Cochain(6, -4)
    assert DeformationClass(1, Fraction(1, 2), ref, ref) == \
        DeformationClass(1, Fraction(1, 2), Cochain(6, -4), Cochain(6, -4))
    assert DeformationClass(1, 2, ref, ref) != DeformationClass(1, 3, ref, ref)
    curve = SceneCurve("gamma0", "h", 1, Fraction(2, 3))
    assert curve == SceneCurve("gamma0", "h", 1, Fraction(2, 3))
    assert curve != SceneCurve("gamma0", "h", -1, Fraction(2, 3))
    scene = preset_scene()
    assert scene == preset_scene()
    assert scene != PolygonScene(scene.curves, scene.z, scene.maslov, Fraction(1, 8))
