"""Outside-in tracer for the benchmark's traced runs.

The program has no instrumentation of its own, so the tracer wraps its
public functions from outside: each wrapped call records a span (name,
start, end, parent) and a few size counters read from the arguments and
results.  The modules import each other by name (``from .linalg import
rank``), so a function is replaced at every module attribute that binds
it, not only where it is defined.  High-frequency calls get counters, not
spans.  ``Tracer`` is a context manager: wrappers exist only inside the
``with`` block and the originals are put back on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

PACKAGE = "ainfbench"
# Functions that get a span, by module.  linalg.rref is looked up in the
# linalg globals by rank/solve/nullspace, so patching it there also
# catches those internal calls.
SPAN_FUNCTIONS = {
    "linalg": ("rref", "rank", "solve", "nullspace"),
    "hochschild": ("delta_matrix", "coboundary", "gerst_compose",
                   "is_coboundary", "reference_cocycle", "class_coordinate",
                   "hh_bar"),
    "skoldberg": ("skoldberg_dims",),
    "perturbation": ("transfer", "lemma_check"),
    "gauge": ("gauge_apply", "extract_invariants", "kill_orders",
              "mc_extend", "m6_certificate"),
    "polygons": ("triangle_criterion", "mu3_series", "triangle_witnesses",
                 "quad_witnesses"),
}
# (module, class, method) wrapped on the class itself.
SPAN_METHODS = (("quiver", "AInfStructure", "ainf_check"),)
COUNTED_METHODS = (("quiver", "AInfStructure", "relation_defect"),)
GENERATOR_METHODS = (("quiver", "QuiverCategory", "tuples"),)

# Span names (with the module prefix) whose totals the per-layer metrics
# report; every name above appears here.
SPAN_NAMES = tuple(
    [f"{m}.{f}" for m, fs in SPAN_FUNCTIONS.items() for f in fs]
    + [f"{m}.{meth}" for m, _, meth in SPAN_METHODS]
)


def _matrix_key(rows):
    """Content key of a sparse matrix (list of dict rows), order kept."""
    return hash(tuple(tuple(sorted(r.items())) for r in rows))


class Tracer:
    """Spans and counters for one traced operation.

    Spans are kept in memory as [name, start, end, parent] and written
    once, by ``write``; ``totals`` turns them into per-layer figures.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.tuples_by_span: Counter = Counter()
        self._stack: list = []
        self._patches: list = []
        self._seen_matrices: set = set()
        self._seen_deltas: set = set()

    # -- installation -------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and name.split(".")[0] == PACKAGE]

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, names in SPAN_FUNCTIONS.items():
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            for name in names:
                original = getattr(mod, name)
                wrapper = self._span_wrapper(f"{modname}.{name}", original)
                for m in self._modules():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        for modname, cls, meth in SPAN_METHODS:
            klass = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), cls)
            self._patch(klass, meth,
                        self._span_wrapper(f"{modname}.{meth}", klass.__dict__[meth]))
        for modname, cls, meth in COUNTED_METHODS:
            klass = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), cls)
            self._patch(klass, meth,
                        self._count_wrapper(f"{modname}.{meth}.calls", klass.__dict__[meth]))
        for modname, cls, meth in GENERATOR_METHODS:
            klass = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), cls)
            self._patch(klass, meth,
                        self._yield_wrapper(f"{modname}.{meth}.yielded", klass.__dict__[meth]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, name, fn):
        # optional size hooks: _before_<name>(*args) and _after_<name>(result)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            record = [name, clock(), None, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after:
                after(result)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_wrapper(self, key, fn):
        counters, by_span = self.counters, self.tuples_by_span
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = spans[stack[-1]][0] if stack else "(top)"
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[key] += n
                by_span[caller] += n

        return wrapper

    # -- size counters, read from arguments and results ---------------

    def _before_linalg_rref(self, rows, ops, *rest, **kw):
        c = self.counters
        nnz = sum(len(r) for r in rows)
        c["linalg.nnz_in"] += nnz
        c["linalg.max_rows"] = max(c["linalg.max_rows"], len(rows))
        ncols = len({col for r in rows for col in r})
        c["linalg.max_cols"] = max(c["linalg.max_cols"], ncols)
        key = (ops.spec.characteristic, len(rows), _matrix_key(rows))
        if key in self._seen_matrices:
            c["linalg.repeat_nnz"] += nnz
        self._seen_matrices.add(key)

    def _after_linalg_rref(self, pivots):
        self.counters["linalg.pivots"] += len(pivots)

    def _before_hochschild_delta_matrix(self, alg, r, s, *rest, **kw):
        mu2 = frozenset(alg.tables.get(2, {}).items())
        key = (alg.spec.characteristic, tuple(alg.cat.generators), r, s, hash(mu2))
        if key in self._seen_deltas:
            self.counters["hochschild.delta_matrix.repeats"] += 1
        self._seen_deltas.add(key)

    def _before_quiver_ainf_check(self, struct, *rest, **kw):
        self.counters["quiver.support"] += sum(len(t) for t in struct.tables.values())

    def _after_polygons_triangle_witnesses(self, result):
        self.counters["polygons.witnesses"] += len(result)

    _after_polygons_quad_witnesses = _after_polygons_triangle_witnesses

    # -- results ------------------------------------------------------

    def totals(self):
        """Per-layer figures: '<name>.calls', '<name>.s' (inclusive, outer
        calls only when a name nests in itself) and '<name>.self_s'
        (duration minus the part covered by child spans), plus counters
        and the derived ratios."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for name, calls, incl, self_s in span_totals(self.spans):
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        c = self.counters
        for key in ("linalg.nnz_in", "linalg.max_cols", "linalg.max_rows",
                    "linalg.pivots", "quiver.support", "quiver.relation_defect.calls",
                    "quiver.tuples.yielded", "polygons.witnesses"):
            out[key] = c[key]
        # weighted by input nonzeros: the Sköldberg oracle re-eliminates
        # over a hundred near-empty matrices, which a count would weigh
        # like one 7338-row solve
        out["linalg.repeat_ratio"] = _ratio(c["linalg.repeat_nnz"], c["linalg.nnz_in"])
        out["hochschild.delta_matrix.repeat_ratio"] = _ratio(
            c["hochschild.delta_matrix.repeats"], out["hochschild.delta_matrix.calls"])
        out["quiver.visited_per_entry"] = _ratio(
            c["quiver.relation_defect.calls"], c["quiver.support"])
        return out

    def write(self, path):
        """Write the spans and counters once, as one JSON document."""
        doc = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "tuples_by_span": dict(self.tuples_by_span),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def span_totals(spans):
    """[(name, calls, inclusive_s, self_s)] from [name, start, end, parent]
    records.  Self time is a span's duration minus the union of its child
    spans' intervals (clipped to the parent); inclusive time counts a span
    only when no ancestor carries the same name."""
    children: dict[int, list] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    acc: dict[str, list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = acc.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += (end - start) - covered
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry[1] += end - start
    return [(name, c, s, self_s) for name, (c, s, self_s) in acc.items()]
