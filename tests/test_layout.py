"""src/ holds only the program: every top-level function, class and method
is reached from ``cli.main`` or from a name the benchmark binds (the
tracer's wrapped names, and every name bench/workloads.py imports, calls
or reads).  Code that only tests call lives under tests/.

Reachability is by name, read from the syntax tree: a reached definition
reaches every definition whose name a Name or Attribute node in its body
carries, whatever the object, so a shared method name keeps all its
holders.  Statements that run at import (module and class bodies,
decorators, defaults, bases) are reached; a reached class reaches its
dunders, which are exempt from the report."""

import ast
import importlib.util
from pathlib import Path

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
