"""Graded quiver categories and sparse A-infinity structure tables.

Conventions, fixed once for the whole package:

* An input tuple is written (a_d, ..., a_1) left to right, a_1 innermost;
  it is composable when source(a_j) = target(a_{j+1}) for consecutive
  positions j, j+1 of the stored tuple (function-composition order).
* mu^d has degree 2 - d: every table entry satisfies
  deg(out) = sum(deg(inputs)) + 2 - d.
* The A-infinity relations carry the sign (-1)^{reduced degree of the
  untouched right tail}:

      sum_{m,n} (-1)^{eps_n} mu(a_d,...,mu^m(a_{n+m},...,a_{n+1}),...,a_1) = 0,
      eps_n = sum_{i<=n} (deg(a_i) - 1).

  This is the unique convention (up to global equivalence) under which the
  presets below satisfy the relations, minimal products relate to the
  composition product by mu^2(x,y) = (-1)^{deg y} (x o y), and the
  Hochschild coboundary of hochschild.py is bracketing with mu^2.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from .scalars import (ZERO, Element, FieldSpec, Frozen, accumulate, field_mismatch,
                      parse_number, parse_scalar)


class Generator(Frozen):
    __slots__ = ("name", "source", "target", "degree")

    def __init__(self, name: str, source: str, target: str, degree: int):
        self._freeze(name, source, target, degree)


def index_by_output(entries) -> dict:
    """{generator: [(key, coefficient)]} over (key, Element) table entries."""
    index = {}
    for key, el in entries:
        for g, c in el.terms.items():
            index.setdefault(g, []).append((key, c))
    return index


def splices(acc: dict, outer: dict, inner: dict, odd: dict, shift: int = 1) -> dict:
    """The insertion of inner into outer, scattered into acc and returned:
    for every outer key K, position p and inner key w whose value holds
    K[p] with coefficient c, acc[t] += (-1)^(shift * ||K[p+1:]||) c
    outer[K] with t = K[:p] + w + K[p+1:].  ||tail|| is the parity of
    the tail's reduced degrees in odd (QuiverCategory.odd), carried right
    to left; shift is inner's shifted degree, 1 for every mu^m.  Each t is
    composable when both tables are; other tuples get no term.  The one
    evaluator of the A-infinity relations, the circle product and the
    gauge action's g-side."""
    by_output = index_by_output(inner.items())
    for K in outer:
        tail = 0
        for p in range(len(K) - 1, -1, -1):
            for w, c in by_output.get(K[p], ()):
                accumulate(acc.setdefault(K[:p] + w + K[p + 1:], {}), outer, ((K, c),),
                           tail & shift)
            tail ^= odd[K[p]]
    return acc


class QuiverCategory:
    """Objects, graded generating morphisms, and designated identities.

    The identity of an object may be a single degree-0 generator or a
    formal combination of idempotents (as in the tests' simplicial preset).
    """

    def __init__(self, objects, generators, identities):
        self.objects = list(objects)
        self.generators: dict[str, Generator] = {}
        for g in generators:
            if g.name in self.generators:
                raise ValueError(f"duplicate generator {g.name}")
            if g.source not in self.objects or g.target not in self.objects:
                raise ValueError(f"unknown object in generator {g.name}")
            self.generators[g.name] = g
        self.order = {name: i for i, name in enumerate(self.generators)}
        # the parity of each reduced degree deg - 1, the Koszul sign's letters
        self.odd = {name: (g.degree - 1) % 2 for name, g in self.generators.items()}
        self.identities: dict[str, Element] = dict.fromkeys(self.objects, ZERO)
        self.identities.update(identities)  # zero where none is designated
        for obj, el in self.identities.items():
            for name in el.terms:
                g = self.generators[name]
                if g.degree != 0 or g.source != obj or g.target != obj:
                    raise ValueError(f"identity of {obj} uses invalid {name}")
        self._by_source = {o: [] for o in self.objects}
        for g in self.generators.values():
            self._by_source[g.source].append(g.name)
        id_names = set()
        for el in self.identities.values():
            id_names.update(el.terms)
        self._identity_components = id_names
        # objects, generators in declaration order and identity components:
        # all that cochain bases and delta read (not the identities'
        # coefficients, which carry the field)
        self.signature = (tuple(self.objects), tuple(self.generators.values()),
                          frozenset(id_names))

    def deg(self, name: str) -> int:
        return self.generators[name].degree

    def source(self, name: str) -> str:
        return self.generators[name].source

    def target(self, name: str) -> str:
        return self.generators[name].target

    def gens_from(self, obj: str):
        return self._by_source[obj]

    def is_identity_component(self, name: str) -> bool:
        return name in self._identity_components

    def nonidentity_generators(self):
        return [n for n in self.generators if n not in self._identity_components]

    def composable(self, names) -> bool:
        gens = self.generators
        for j in range(len(names) - 1):
            if gens[names[j]].source != gens[names[j + 1]].target:
                return False
        return True

    def tuples(self, d: int, alphabet=None, totals=None, sums=False):
        """Composable tuples (a_d, ..., a_1) of length d >= 1, lazily, in
        the deterministic declaration order.

        With totals (a set of ints), only the tuples whose degree sum lies
        in it, in the same order.  The search carries each prefix's degree
        sum and drops the prefix as soon as no k letters can take that sum
        to a total, k the letters it still lacks: fits[k], the sums from
        which k letters reach a total, is built once, so each push is one
        set lookup.  Without totals every d-letter sum is a total.  With
        sums, each tuple comes as (tuple, degree sum), the sum the search
        has carried."""
        if d < 1:
            return
        names = list(alphabet) if alphabet is not None else list(self.generators)
        gens = self.generators
        deg = {n: gens[n].degree for n in names}
        steps = set(deg.values())
        if totals is None:
            totals = {0}
            for _ in range(d):
                totals = {t + g for t in totals for g in steps}
        fits = [set(totals)]
        for _ in range(d - 1):
            fits.append({t - g for t in fits[-1] for g in steps})
        # the letters that may follow each letter, reversed, so that the
        # depth-first stack pops them in declaration order
        by_target = {o: [] for o in self.objects}
        for n in reversed(names):
            by_target[gens[n].target].append(n)
        after = {n: by_target[gens[n].source] for n in names}
        stack = [((n,), deg[n]) for n in reversed(names) if deg[n] in fits[d - 1]]
        while stack:
            prefix, total = stack.pop()
            remaining = d - len(prefix)
            if remaining == 0:
                yield (prefix, total) if sums else prefix
                continue
            fit = fits[remaining - 1]
            for n in after[prefix[-1]]:
                t = total + deg[n]
                if t in fit:
                    stack.append((prefix + (n,), t))

    def tuples_among(self, candidates, alphabet=None) -> list:
        """The candidates over alphabet (all generators when None), in the
        order of tuples (declaration index, letter by letter).  Callers
        pass composable tuples of one length, as splices builds them."""
        allowed = set(alphabet) if alphabet is not None else self.generators
        order = self.order
        return sorted((t for t in candidates if all(n in allowed for n in t)),
                      key=lambda t: [order[n] for n in t])

    def sort_terms(self, el: Element):
        return sorted(el.terms.items(), key=lambda kv: self.order[kv[0]])


class EntryError(ValueError):
    """A table entry that check_table refuses, at key."""

    def __init__(self, key, message: str):
        super().__init__(message)
        self.key = key


def check_table(cat: QuiverCategory, label: str, table: dict, weight: int, arity: int,
                p: int):
    """Each entry of a mu^d (weight 2) or g^k (weight 1) table over the
    field of characteristic p has a composable length-arity key of
    generators, and outputs over that field of degree |names| + weight -
    arity with the key's source and target; else EntryError."""
    gens = cat.generators
    for names, el in table.items():
        if len(names) != arity:
            raise EntryError(names, f"arity-{arity} table holds tuple {names}")
        if not all(map(gens.__contains__, names)) or not cat.composable(names):
            raise EntryError(names, f"noncomposable {label} key {names}")
        if el.p != p:
            raise EntryError(names, f"{label}{names}: {field_mismatch(el.p, p)}")
        want = sum(gens[n].degree for n in names) + weight - arity
        src, tgt = gens[names[-1]].source, gens[names[0]].target
        for g in el.terms:
            gen = gens[g]
            if gen.degree != want or gen.source != src or gen.target != tgt:
                raise EntryError(names, f"{label}{names} -> {g}: expects degree {want}, "
                                        f"{src}->{tgt}")


class AInfStructure:
    """Sparse mu^d tables over a quiver category, d <= truncation order N.

    tables[d] maps composable generator tuples to Elements; absent means 0.
    """

    def __init__(self, spec: FieldSpec, cat: QuiverCategory, truncation: int,
                 tables=None):
        self.spec = spec
        self.cat = cat
        self.truncation = truncation
        self.tables: dict[int, dict[tuple, Element]] = {}
        for d, table in (tables or {}).items():
            clean = {t: v for t, v in table.items() if not v.is_zero()}
            if clean:
                self.tables[d] = clean
        self.check_degrees()

    def check_degrees(self):
        """Degree and composability bookkeeping for every stored entry."""
        for d, table in self.tables.items():
            if not 1 <= d <= self.truncation:
                raise ValueError(f"table arity {d} not in 1..{self.truncation}")
            check_table(self.cat, f"mu^{d}", table, 2, d, self.spec.characteristic)

    def present_arities(self):
        return sorted(d for d, t in self.tables.items() if t)

    def relation_defect(self, names) -> Element:
        """Left-hand side of the A-infinity relation on one tuple, window
        by window.  The per-tuple oracle of ainf_check, which sums the same
        terms for every tuple at once by splices."""
        d, tables = len(names), self.tables
        tails = [0]  # tails[n]: the parity of the last n letters
        for name in reversed(names):
            tails.append(tails[-1] ^ self.cat.odd[name])
        acc = {}
        for m, inner in tables.items():
            outer = tables.get(d - m + 1)
            for n in range(d - m + 1) if outer else ():  # n letters right of the window
                val = inner.get(names[d - n - m: d - n])
                if val is not None:
                    head, rest = names[: d - n - m], names[d - n:]
                    accumulate(acc, outer, ((head + (g,) + rest, c) for g, c in val.terms.items()),
                               tails[n])
        return Element(acc, self.spec.characteristic)

    def ainf_check(self, up_to: int):
        """Violated (arity, tuple) pairs of the A-infinity relations over
        every composable tuple (identities included) of length <= up_to,
        in the order of cat.tuples(d); empty means the relations hold.

        Each arity d is one splices scatter of every mu^m into
        mu^(d-m+1), which is exact with no unitality assumed: only the
        tuples it reaches get a term, so the others hold.  A splice of mu^m
        into mu^n has arity m + n - 1, so the arities above 2 * (top
        arity) - 1 have no term and are not walked."""
        if up_to > self.truncation:
            raise ValueError("cannot check beyond truncation order")
        tables, cat, p = self.tables, self.cat, self.spec.characteristic
        bad = []
        for d in range(1, min(up_to, 2 * max(tables, default=1) - 1) + 1):
            acc = {}
            for m, inner in tables.items():
                splices(acc, tables.get(d - m + 1, {}), inner, cat.odd)
            bad += [(d, t) for t in cat.tuples_among(acc) if not Element(acc[t], p).is_zero()]
        return bad

# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# The 6-dimensional category: objects a, b; u: a->b of degree 1, v: b->a
# of degree 0, degree-1 loops e1 = vu and f1 = uv, identities e0, f0.
A_GENERATORS = {g.name: g for g in (
    Generator("e0", "a", "a", 0),
    Generator("e1", "a", "a", 1),
    Generator("f0", "b", "b", 0),
    Generator("f1", "b", "b", 1),
    Generator("u", "a", "b", 1),
    Generator("v", "b", "a", 0),
)}


def _assoc_mul_A(x: str, y: str):
    """Composition product of the 6-dimensional algebra: x o y, y applied
    first; None when zero or not composable.  Nonzero off-identity
    products are u o v = f1 and v o u = e1; length-3 paths vanish."""
    if A_GENERATORS[x].source != A_GENERATORS[y].target:
        return None
    if x in ("e0", "f0"):
        return y
    if y in ("e0", "f0"):
        return x
    if (x, y) == ("u", "v"):
        return "f1"
    if (x, y) == ("v", "u"):
        return "e1"
    return None


def preset_A(spec: FieldSpec, truncation: int = 12) -> AInfStructure:
    """Minimal associative structure on the 6-dimensional two-object
    category (A_GENERATORS).  Only mu^2 is nonzero, with the twist
    mu^2(x,y) = (-1)^{deg y} (x o y)."""
    p = spec.characteristic
    cat = QuiverCategory(
        ["a", "b"], A_GENERATORS.values(),
        {"a": Element.single("e0", 1, p), "b": Element.single("f0", 1, p)},
    )
    mu2 = {}
    for pair in cat.tuples(2):
        prod = _assoc_mul_A(*pair)
        if prod is None:
            continue
        mu2[pair] = Element.single(prod, -1 if cat.deg(pair[1]) % 2 else 1, p)
    return AInfStructure(spec, cat, truncation, {2: mu2})


def _table(spec, entries):
    """{key: Element} from (key, [(integer coefficient, generator)]) entries."""
    return {tuple(names): Element({g: c for c, g in combo}, spec.characteristic)
            for names, combo in entries}


def preset_C(spec: FieldSpec, truncation: int = 12) -> AInfStructure:
    """Eight-generator dg category quasi-isomorphic to the 6-dimensional
    category: hom(b,a) is resolved by v0, v1 (degree 0) and v01 (degree 1)
    with d v0 = -v01, d v1 = v01; everything else matches preset_A."""
    gens = [
        Generator("e0", "a", "a", 0),
        Generator("e1", "a", "a", 1),
        Generator("f0", "b", "b", 0),
        Generator("f1", "b", "b", 1),
        Generator("v0", "b", "a", 0),
        Generator("v1", "b", "a", 0),
        Generator("v01", "b", "a", 1),
        Generator("u01", "a", "b", 1),
    ]
    p = spec.characteristic
    cat = QuiverCategory(
        ["a", "b"], gens,
        {"a": Element.single("e0", 1, p), "b": Element.single("f0", 1, p)},
    )
    mu1 = _table(spec, [
        (("v0",), [(-1, "v01")]),
        (("v1",), [(1, "v01")]),
    ])
    mu2 = _table(spec, [
        (("e0", "e0"), [(1, "e0")]),
        (("e0", "e1"), [(-1, "e1")]),
        (("e1", "e0"), [(1, "e1")]),
        (("f0", "f0"), [(1, "f0")]),
        (("f0", "f1"), [(-1, "f1")]),
        (("f1", "f0"), [(1, "f1")]),
        (("v0", "f0"), [(1, "v0")]),
        (("v1", "f0"), [(1, "v1")]),
        (("v01", "f0"), [(1, "v01")]),
        (("v0", "f1"), [(-1, "v01")]),
        (("e0", "v0"), [(1, "v0")]),
        (("e0", "v1"), [(1, "v1")]),
        (("e1", "v1"), [(1, "v01")]),
        (("e0", "v01"), [(-1, "v01")]),
        (("f0", "u01"), [(-1, "u01")]),
        (("u01", "e0"), [(1, "u01")]),
        (("v0", "u01"), [(-1, "e1")]),
        (("u01", "v1"), [(1, "f1")]),
    ])
    return AInfStructure(spec, cat, truncation, {1: mu1, 2: mu2})


# ---------------------------------------------------------------------------
# Canonical text format
# ---------------------------------------------------------------------------

def format_element(el: Element, cat: QuiverCategory) -> str:
    if el.is_zero():
        return "0"
    return " + ".join(f"{c}*{g}" for g, c in cat.sort_terms(el))


def parse_element(text: str, cat: QuiverCategory, spec: FieldSpec) -> Element:
    text = text.strip()
    if text == "0":
        return ZERO
    out = ZERO
    for term in text.split(" + "):
        if "*" not in term:
            raise ValueError(f"malformed term {term!r} (expected c*gen)")
        c, g = term.split("*", 1)
        g = g.strip()
        if g not in cat.generators:
            raise ValueError(f"unknown generator {g!r}")
        out = out + Element.single(g, parse_scalar(c, spec), spec.characteristic)
    return out


def table_rows(table: dict, cat: QuiverCategory, out_cat: QuiverCategory = None) -> list:
    """Rows 'a_d ... a_1 -> element' of a table keyed over cat, in the order
    of cat.tuples; outputs written over out_cat (cat when None)."""
    return [f"{' '.join(names)} -> {format_element(table[names], out_cat or cat)}"
            for names in cat.tuples_among(table)]


def dump(struct: AInfStructure, extra_sections=None) -> str:
    """Canonical, byte-stable text form (load . dump == identity)."""
    cat = struct.cat
    for name in [*cat.objects, *cat.generators]:
        if _HEADER.fullmatch(name):
            raise ValueError(f"name {name} would be read as a section header")
    lines = [f"FIELD {struct.spec}", f"TRUNCATION {struct.truncation}", "OBJECTS"]
    lines += cat.objects
    lines.append("GENERATORS")
    for g in cat.generators.values():
        lines.append(f"{g.name} {g.source} {g.target} {g.degree}")
    lines.append("IDENTITIES")
    for obj in cat.objects:
        lines.append(f"{obj} {format_element(cat.identities[obj], cat)}")
    for d in struct.present_arities():
        lines.append(f"MU{d}")
        lines += table_rows(struct.tables[d], cat)
    for header, rows in (extra_sections or []):
        lines.append(header)
        lines += rows
    return "\n".join(lines) + "\n"


_FIXED = ("FIELD", "TRUNCATION", "OBJECTS", "GENERATORS", "IDENTITIES")
# the section names; any other word, capitals included, is a name
_HEADER = re.compile("|".join(_FIXED) + r"|(MU|IOTA)\d+")


def _split_sections(text: str):
    """Sections as (name, [(line, lineno)], header lineno)."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if _HEADER.fullmatch(head):
            if any(name == head for name, _, _ in sections):
                raise ValueError(f"line {lineno}: section {head} given twice")
            if head in ("FIELD", "TRUNCATION"):
                body = line.split(None, 1)
                if len(body) != 2:
                    raise ValueError(f"line {lineno}: {head} needs a value")
                sections.append((head, [(body[1], lineno)], lineno))
                current = None
                continue
            if line != head:
                raise ValueError(f"line {lineno}: unexpected text after {head}")
            current = (head, [], lineno)
            sections.append(current)
        elif current is not None:
            current[1].append((line, lineno))
        else:
            raise ValueError(f"line {lineno}: content before any section header")
    return sections


@contextmanager
def _at_line(lineno: int):
    """A ValueError or zero denominator (1/0, 1/5 over F5) naming the line."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def parse_table(rows, d: int, section: str, cat: QuiverCategory, spec: FieldSpec,
                lines: dict) -> dict:
    """Rows 'a_d ... a_1 -> element', given as (row, line number) pairs, as
    one arity-d table, each key's line recorded in lines; errors carry the
    offending line number.  The constructor that takes the table checks
    its entries, once, and load names a bad entry's line."""
    table = {}
    for row, lineno in rows:
        with _at_line(lineno):
            lhs, _, rhs = row.partition("->")
            names = tuple(lhs.split())
            if len(names) != d:
                raise ValueError(f"tuple {names} has wrong arity for {section}")
            if names in table:
                raise ValueError(f"tuple {names} given twice in {section}")
            table[names] = parse_element(rhs, cat, spec)
            lines[names] = lineno
    return table


def load(text: str) -> AInfStructure:
    """Parse the canonical format; IOTA<d> sections (an inclusion written
    beside the structure) are skipped.  Errors carry the offending line
    number."""
    sections = _split_sections(text)
    by_name = {name: rows for name, rows, _ in sections}
    try:
        headers = [by_name["FIELD"][0], by_name["TRUNCATION"][0]]
        obj_rows, gen_rows, id_rows = (by_name[name] for name in
                                       ("OBJECTS", "GENERATORS", "IDENTITIES"))
    except KeyError as missing:  # named at the last line, line 1 of an empty file
        last = max(len(text.splitlines()), 1)
        raise ValueError(f"line {last}: missing section {missing}") from None
    with _at_line(headers[0][1]):
        spec = FieldSpec.parse(headers[0][0])
    with _at_line(headers[1][1]):
        truncation = parse_number(int, "TRUNCATION", headers[1][0])
    if truncation < 1:  # no relation would be checked
        raise ValueError(f"line {headers[1][1]}: TRUNCATION must be at least 1, "
                         f"got {truncation}")
    objects, gens, identities = [], [], {}
    for row, lineno in obj_rows:
        with _at_line(lineno):
            if len(row.split()) > 1 or row in objects:
                raise ValueError(f"bad or repeated object row {row!r}")
            objects.append(row)
    for row, lineno in gen_rows:
        parts = row.split()
        with _at_line(lineno):
            if len(parts) != 4:
                raise ValueError(f"bad generator row {row!r}")
            degree = parse_number(int, "generator degree", parts[3])
            gens.append(Generator(parts[0], parts[1], parts[2], degree))
            QuiverCategory(objects, gens, {})  # a repeated name, an unknown object
    cat = QuiverCategory(objects, gens, {})
    for row, lineno in id_rows:
        with _at_line(lineno):
            parts = row.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"bad identity row {row!r}")
            obj, combo = parts
            if obj not in objects or obj in identities:
                raise ValueError(f"unknown or repeated object {obj}")
            identities[obj] = parse_element(combo, cat, spec)
            QuiverCategory(objects, gens, identities)  # degree-0 endomorphisms
    cat = QuiverCategory(objects, gens, identities)
    tables, lines = {}, {}
    for name, rows, head in sections:
        if name.startswith("MU"):
            d = int(name[2:])
            if not 1 <= d <= truncation:
                raise ValueError(f"line {head}: table arity {d} not in 1..{truncation}")
            tables[d] = parse_table(rows, d, name, cat, spec, lines)
    try:
        return AInfStructure(spec, cat, truncation, tables)
    except EntryError as exc:  # a check_table fault, named by its key's line
        raise ValueError(f"line {lines[exc.key]}: {exc}") from None
