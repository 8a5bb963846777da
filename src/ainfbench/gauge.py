"""Gauge transformations of minimal structures and the two invariants.

A gauge transformation is a sequence of degree-preserving normalized maps
g^k: A^(x k) -> A[1-k] with g^1 = id.  It acts on a minimal structure mu
through the functor equation

    sum_{r, s_1+..+s_r=d} mu_new^r(g^{s_r}(block_r), .., g^{s_1}(block_1))
      = sum_{m,n} (-1)^{eps_n} g^{d-m+1}(a_d .. mu^m(window) .. a_1),

solved for mu_new arity by arity (the all-ones partition isolates
mu_new^d on the left).  Linearized, gauging by a single component g^{d-1}
shifts mu^d by -delta(g^{d-1}), which is how orders with vanishing HH
class get killed.

The two residual invariants live in the 1-dimensional cells HH^2(A,A)^-4
(order 6) and HH^2(A,A)^-6 (order 8); coordinates are reported against
the deterministic reference cocycles of hochschild.reference_cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hochschild import (
    Cochain,
    CoboundarySystem,
    class_coordinate,
    coboundary,
    gerst_compose,
    is_coboundary,
    mu_cochain,
    reference_cocycle,
)
from .quiver import AInfStructure, Element, ZERO, accumulate, tensor_terms
from .scalars import FieldSpec, Scalar


_ZERO_COCHAIN = Cochain(0, 0)


class ObstructionError(ValueError):
    """A targeted order carries a nonzero class and cannot be gauged away."""

    def __init__(self, order, coordinate=None):
        self.order = order
        self.coordinate = coordinate
        extra = f" (class coordinate {coordinate})" if coordinate is not None else ""
        super().__init__(f"mu^{order} represents a nonzero class{extra}")


class GaugeTransformation:
    """Components g^k, k >= 2, as normalized tables; g^1 is implicit."""

    def __init__(self, spec: FieldSpec, cat, components=None):
        self.spec = spec
        self.cat = cat
        one = spec.one()
        self._identity = {(n,): Element.single(n, one) for n in cat.generators}
        self.components: dict[int, dict] = {}
        for k, table in (components or {}).items():
            clean = {}
            for names, el in table.items():
                if el.is_zero():
                    continue
                if len(names) != k or not cat.composable(names):
                    raise ValueError(f"bad g^{k} key {names}")
                if any(cat.is_identity_component(n) for n in names):
                    raise ValueError(f"g^{k} not normalized at {names}")
                want = sum(cat.deg(n) for n in names) + 1 - k
                for g in el.terms:
                    if cat.deg(g) != want:
                        raise ValueError(f"g^{k}{names} -> {g} breaks degrees")
                clean[names] = el
            if clean:
                self.components[k] = clean

    def supports(self):
        return sorted(self.components)

    def table(self, k: int) -> dict:
        """g^k as a sparse table; g^1 is the identity on generators."""
        return self._identity if k == 1 else self.components.get(k, {})

    def apply_component(self, k: int, names) -> Element:
        return self.table(k).get(tuple(names), ZERO)


def _compositions(d: int, parts: tuple):
    """Ordered compositions of d using the allowed part sizes."""
    if d == 0:
        yield ()
        return
    for p in parts:
        if p <= d:
            for rest in _compositions(d - p, parts):
                yield (p,) + rest


def _blocks(gauge: GaugeTransformation, comp, t):
    """[g^{s_r}(block_r), ..., g^{s_1}(block_1)] for the composition
    comp = (s_1, ..., s_r) of the tuple t, s_1 the rightmost block; None
    when some block vanishes."""
    d = len(t)
    blocks = []
    off = 0
    for size in comp:
        val = gauge.apply_component(size, t[d - off - size: d - off])
        if val.is_zero():
            return None
        blocks.append(val)
        off += size
    blocks.reverse()
    return blocks


def gauge_apply(gauge: GaugeTransformation, mu: AInfStructure,
                order: int = None) -> AInfStructure:
    """Act on a minimal structure; result is minimal with the same mu^2."""
    if 1 in mu.present_arities():
        raise ValueError("gauge action implemented for minimal structures")
    order = order or mu.truncation
    spec, cat = mu.spec, mu.cat
    one = spec.one()
    new_tables: dict[int, dict] = {2: dict(mu.tables[2])}
    parts = tuple([1] + gauge.supports())
    gens = cat.nonidentity_generators()

    for d in range(3, order + 1):
        comps = [
            c for c in _compositions(d, parts)
            if 2 <= len(c) <= d - 1 and any(p > 1 for p in c)
        ]
        table = {}
        for t in cat.tuples(d, gens):
            degs = [cat.deg(n) for n in t]
            eps = [0] * (d + 1)
            for n in range(1, d + 1):
                eps[n] = eps[n - 1] + degs[d - n] - 1
            acc = {}
            # g-side: sum over insertions of old mu^m into g^{d-m+1}
            for m in mu.present_arities():
                if m > d:
                    break
                gk = gauge.table(d - m + 1)
                if not gk:
                    continue
                inner_table = mu.tables[m]
                for n in range(0, d - m + 1):
                    inner = inner_table.get(t[d - n - m: d - n])
                    if inner is None:
                        continue
                    head, tail = t[: d - n - m], t[d - n:]
                    accumulate(acc, gk,
                               ((head + (g,) + tail, c) for g, c in inner.terms.items()),
                               eps[n] % 2)
            # mu_new-side: subtract lower-arity products of g-blocks
            for comp in comps:
                mu_r = new_tables.get(len(comp))
                if not mu_r:
                    continue
                blocks = _blocks(gauge, comp, t)
                if blocks is not None:
                    accumulate(acc, mu_r, tensor_terms(blocks, one), True)
            el = Element(acc)
            if not el.is_zero():
                table[t] = el
        if table:
            new_tables[d] = table
    return AInfStructure(spec, cat, order, new_tables)


def gauge_compose(second: GaugeTransformation, first: GaugeTransformation,
                  up_to: int = 12) -> GaugeTransformation:
    """Composite transformation: apply first, then second.

    Functor composition (second o first)^d = sum second^r(first-blocks),
    no signs.  Composites generally have components in every arity, so the
    result is truncated at up_to; acting on structures of truncation
    <= up_to only ever reads those."""
    spec, cat = first.spec, first.cat
    parts = tuple(sorted({1, *first.supports()}))
    components: dict[int, dict] = {}
    gens = cat.nonidentity_generators()
    one = spec.one()
    for d in range(2, up_to + 1):
        table = {}
        for t in cat.tuples(d, gens):
            acc = {}
            for comp in _compositions(d, parts):
                second_r = second.table(len(comp))
                if not second_r:
                    continue
                blocks = _blocks(first, comp, t)
                if blocks is not None:
                    accumulate(acc, second_r, tensor_terms(blocks, one))
            el = Element(acc)
            if not el.is_zero():
                table[t] = el
        if table:
            components[d] = table
    return GaugeTransformation(spec, cat, components)


def preset_gauge_G(spec: FieldSpec, cat) -> GaugeTransformation:
    """Quadratic gauge killing the transferred mu^3 (six-entry table).

    The (e1, e1) entry must be -1/2 e1: it is the unique sign for which
    delta(g) equals the transferred mu^3 slot-for-slot, and the only
    choice reproducing the downstream thirteen-entry mu^4 table."""
    half = spec.scalar(1, 2)
    tbl = {
        ("e1", "e1"): Element.single("e1", -half),
        ("f1", "f1"): Element.single("f1", -half),
        ("e1", "v"): Element.single("v", -half),
        ("v", "f1"): Element.single("v", half),
        ("u", "e1"): Element.single("u", -half),
        ("f1", "u"): Element.single("u", -half),
    }
    return GaugeTransformation(spec, cat, {2: tbl})


def preset_gauge_H(spec: FieldSpec, cat) -> GaugeTransformation:
    """Cubic gauge killing the residual mu^4 (twelve-entry table)."""
    s = spec.scalar
    tbl = {
        ("v", "f1", "u"): Element.single("e0", s(-1, 12)),
        ("v", "u", "e1"): Element.single("e0", s(-1, 12)),
        ("e1", "e1", "e1"): Element.single("e1", s(1, 3)),
        ("f1", "u", "v"): Element.single("f0", s(-1, 12)),
        ("u", "e1", "v"): Element.single("f0", s(-1, 12)),
        ("f1", "f1", "f1"): Element.single("f1", s(1, 3)),
        ("e1", "v", "f1"): Element.single("v", s(-1, 3)),
        ("v", "f1", "f1"): Element.single("v", s(-1, 6)),
        ("e1", "e1", "v"): Element.single("v", s(1, 3)),
        ("f1", "f1", "u"): Element.single("u", s(5, 12)),
        ("f1", "u", "e1"): Element.single("u", s(1, 3)),
        ("u", "e1", "e1"): Element.single("u", s(5, 12)),
    }
    return GaugeTransformation(spec, cat, {3: tbl})


def kill_orders(mu: AInfStructure, orders, order: int = None, compose: bool = True):
    """Gauge away the listed arities (processed ascending).

    Each targeted mu^d must be a cocycle whose class vanishes; otherwise
    ObstructionError reports the nonzero coordinate.  Returns
    (composed gauge, normalized structure); with compose=False the first
    component is the list of elementary gauge steps instead (cheaper)."""
    order = order or mu.truncation
    current = mu
    steps = []
    total = GaugeTransformation(mu.spec, mu.cat, {})
    for d in sorted(orders):
        phi = mu_cochain(current, d)
        if phi.is_zero():
            continue
        if not coboundary(phi, current).is_zero():
            raise ValueError(f"mu^{d} is not a cocycle; lower orders unkilled?")
        nu = is_coboundary(phi, current)
        if nu is None:
            coord = None
            try:
                ref = reference_cocycle(current, d, 2 - d)
                coord = class_coordinate(phi, ref, current)
            except ValueError:
                pass
            raise ObstructionError(d, coord)
        step = GaugeTransformation(mu.spec, mu.cat, {d - 1: nu.table})
        current = gauge_apply(step, current, order)
        steps.append(step)
        if compose:
            total = gauge_compose(step, total, order)
    return (total if compose else steps), current


@dataclass
class DeformationClass:
    """Coordinates of the order-6 and order-8 invariants against the
    deterministic reference cocycles (documented for reproducibility)."""

    m6: Scalar
    m8: Scalar
    reference6: Cochain
    reference8: Cochain

    def pair(self):
        return (self.m6, self.m8)

    def describe(self):
        """Printable record of the reference cocycles the coordinates are
        measured against."""
        lines = []
        for label, ref in (("(6,-4)", self.reference6), ("(8,-6)", self.reference8)):
            entries = []
            for key in sorted(ref.table):
                el = ref.table[key]
                for g, c in sorted(el.terms.items(), key=lambda kv: kv[0]):
                    entries.append(f"({','.join(key)})|{g}:{c}")
            lines.append(f"reference cocycle at {label}: " + " ".join(entries))
        return lines


def extract_invariants(mu: AInfStructure) -> DeformationClass:
    """Gauge-fix mu^3, mu^4, mu^5 (then mu^7) to zero and read off the
    residual classes of mu^6 and mu^8."""
    if mu.spec.characteristic in (2, 3):
        raise ValueError("invariants defined only when 6 is invertible")
    if mu.truncation < 8:
        raise ValueError("structure must carry arities through 8")
    if mu.truncation > 8:
        # the invariants only see arities <= 8; drop the rest
        mu = AInfStructure(
            mu.spec, mu.cat, 8,
            {d: t for d, t in mu.tables.items() if d <= 8},
        )
    _, cur = kill_orders(mu, (3, 4, 5), compose=False)
    phi6 = mu_cochain(cur, 6)
    if not coboundary(phi6, cur).is_zero():
        raise AssertionError("mu^6 failed to be a cocycle after gauge fixing")
    ref6 = reference_cocycle(cur, 6, -4)
    m6 = class_coordinate(phi6, ref6, cur) if not phi6.is_zero() else mu.spec.zero()
    _, cur = kill_orders(cur, (7,), compose=False)
    phi8 = mu_cochain(cur, 8)
    if not coboundary(phi8, cur).is_zero():
        raise AssertionError("mu^8 failed to be a cocycle after gauge fixing")
    ref8 = reference_cocycle(cur, 8, -6)
    m8 = class_coordinate(phi8, ref8, cur) if not phi8.is_zero() else mu.spec.zero()
    return DeformationClass(m6, m8, ref6, ref8)


def rescale(mu: AInfStructure, t: Scalar) -> AInfStructure:
    """mu^d -> t^(d-2) mu^d; corresponds to (m6, m8) -> (t^4 m6, t^6 m8)."""
    tables = {}
    for d, table in mu.tables.items():
        factor = mu.spec.one()
        for _ in range(d - 2):
            factor = factor * t
        tables[d] = {names: el.scale(factor) for names, el in table.items()}
    return AInfStructure(mu.spec, mu.cat, mu.truncation, tables)


def mc_extend(spec: FieldSpec, m6: Scalar, m8: Scalar, order: int = 12,
              mu6: Cochain = None, mu8: Cochain = None) -> AInfStructure:
    """Build a minimal structure realizing the prescribed invariants.

    Orders 3..5 are zero; mu^6 and mu^8 are the prescribed cocycles (by
    default coordinates times the reference cocycles); every other order
    solves delta(mu^d) = -(sum of circle products of lower orders), whose
    right-hand side is the arity-(d+1) component of the relations.  A
    failure to solve would contradict the vanishing of the relevant HH
    cell and is raised as an internal inconsistency.
    """
    from .quiver import preset_A

    if spec.characteristic in (2, 3):
        raise ValueError("classification requires 6 invertible")
    base = preset_A(spec, order)
    tables = {2: dict(base.tables[2])}
    chosen: dict[int, Cochain] = {}
    for d in range(3, order + 1):
        # delta(mu^d) = - sum_{j=3}^{d-1} mu^j o mu^{d+2-j}, the arity-(d+1)
        # component of the relations below order d
        acc = None
        for j in range(3, d):
            k = d + 2 - j
            if chosen.get(j, _ZERO_COCHAIN).is_zero():
                continue
            if chosen.get(k, _ZERO_COCHAIN).is_zero():
                continue
            term = gerst_compose(chosen[j], chosen[k], base)
            acc = term if acc is None else acc + term
        obstruction = None
        if acc is not None and not acc.is_zero():
            obstruction = -acc
        if d == 6 or d == 8:
            if obstruction is not None:
                raise AssertionError(
                    f"unexpected nonzero bracket obstruction at order {d}"
                )
            if d == 6:
                phi = mu6 if mu6 is not None else reference_cocycle(base, 6, -4).scale(m6)
            else:
                phi = mu8 if mu8 is not None else reference_cocycle(base, 8, -6).scale(m8)
            if not phi.is_zero() and not coboundary(phi, base).is_zero():
                raise ValueError(f"prescribed order-{d} cochain is not a cocycle")
        elif obstruction is None:
            phi = Cochain(d, 2 - d)
        else:
            if not coboundary(obstruction, base).is_zero():
                raise AssertionError(f"order-{d} obstruction is not a cocycle")
            phi = is_coboundary(obstruction, base)
            if phi is None:
                raise AssertionError(
                    f"order-{d} obstruction not a coboundary: HH cell should vanish"
                )
        chosen[d] = phi
        if not phi.is_zero():
            tables[d] = dict(phi.table)
    return AInfStructure(spec, base.cat, order, tables)


def dump_gauge(gauge: GaugeTransformation, truncation: int = 12) -> str:
    """Gauge tables in the algebra-definition grammar, sections G<d>."""
    from .quiver import AInfStructure as _S, dump, format_element

    shell = _S(gauge.spec, gauge.cat, truncation, {})
    sections = []
    cat = gauge.cat
    for k in gauge.supports():
        rows = []
        table = gauge.components[k]
        for names in sorted(table, key=lambda t: [cat.order[n] for n in t]):
            rows.append(f"{' '.join(names)} -> {format_element(table[names], cat)}")
        sections.append((f"G{k}", rows))
    return dump(shell, sections)


def load_gauge(text: str) -> GaugeTransformation:
    from .quiver import load_with_extras, parse_table

    shell, extras = load_with_extras(text)
    components = {}
    for name, rows in extras:
        if not (name.startswith("G") and name[1:].isdigit()):
            raise ValueError(f"unexpected section {name} in gauge file")
        k = int(name[1:])
        components[k] = parse_table(rows, k, name, shell.cat, shell.spec)
    return GaugeTransformation(shell.spec, shell.cat, components)


def random_gauge(spec: FieldSpec, cat, rng, orders=(2, 3, 4),
                 density: float = 0.35) -> GaugeTransformation:
    """Sparse random gauge with small rational entries, for orbit sampling.

    Deterministic given the rng; entries are drawn per admissible
    (tuple, output generator) slot of each component."""
    choices = [(1, 2), (-1, 2), (1, 3), (-1, 3), (1, 1), (-1, 1), (2, 1)]
    components = {}
    gens = cat.nonidentity_generators()
    for k in orders:
        table = {}
        for t in cat.tuples(k, gens):
            want = sum(cat.deg(n) for n in t) + 1 - k
            src, tgt = cat.source(t[-1]), cat.target(t[0])
            for g in cat.gens_from(src):
                gen = cat.generators[g]
                if gen.target != tgt or gen.degree != want:
                    continue
                if rng.random() < density:
                    num, den = choices[rng.randrange(len(choices))]
                    el = table.get(t, ZERO) + Element.single(g, spec.scalar(num, den))
                    table[t] = el
        if table:
            components[k] = table
    return GaugeTransformation(spec, cat, components)


# ---------------------------------------------------------------------------
# Nonvanishing certificate for the order-6 class
# ---------------------------------------------------------------------------

@dataclass
class CertificateStep:
    key: tuple            # (tuple of inputs, output generator) row
    rhs: Scalar           # value of the scaled mu^6 there
    terms: list           # [(slot, coeff)] with slot = (tuple, generator)
    forced: tuple = None  # slot solved by this step, with its value
    conflict: tuple = None  # (lhs, rhs) scalars at a contradiction


@dataclass
class M6Certificate:
    nonzero: bool
    rank_system: int
    rank_augmented: int
    witness_values: list   # [(tuple, Element)] the four scaled products
    chain: list            # CertificateStep derivation ending in a conflict
    primitive: Cochain = None  # only when the class is actually zero

    def summary(self, include_witnesses: bool = True) -> str:
        lines = []
        if include_witnesses:
            for names, el in self.witness_values:
                terms = ", ".join(
                    f"{c}*{g}"
                    for g, c in sorted(el.terms.items(), key=lambda kv: kv[0])
                )
                lines.append(f"144*mu6({', '.join(names)}) = {terms or '0'}")
        if self.nonzero:
            lines.append(
                f"linear system delta(nu) = mu6 infeasible: "
                f"rank {self.rank_system} < augmented rank {self.rank_augmented}"
            )
            for step in self.chain:
                t, g = step.key
                eq = " + ".join(
                    f"({c})*nu{s[0]}|{s[1]}" for s, c in step.terms
                ) or "0"
                lines.append(f"  eq mu6({','.join(t)})|{g}: {eq} = {step.rhs}")
                if step.forced:
                    slot, val = step.forced
                    lines.append(f"    forces nu{slot[0]}|{slot[1]} = {val}")
                if step.conflict:
                    lhs, rhs = step.conflict
                    lines.append(f"    contradiction: {lhs} != {rhs}")
            lines.append("m6 NONZERO")
        else:
            lines.append("mu6 is a coboundary; m6 = 0")
        return "\n".join(lines)


_PAPER_WITNESSES = (
    (("u", "v", "f1", "u", "e1", "v"), "f0"),
    (("f1", "u", "v", "u", "e1", "v"), "f0"),
    (("f1", "u", "e1", "v", "u", "v"), "f0"),
    (("f1", "f1", "u", "e1", "v", "f1"), "f1"),
)


def m6_certificate(mu6: Cochain, alg: AInfStructure) -> M6Certificate:
    """Decide [mu6] = 0 by an exact solve; on infeasibility emit both the
    rank certificate and a forced-value chain ending in a contradiction."""
    if not coboundary(mu6, alg).is_zero():
        raise ValueError("mu6 is not a cocycle")
    spec = alg.spec
    scaled = mu6.scale(spec.scalar(144))
    witnesses = [(t, scaled.value(t)) for t, _ in _PAPER_WITNESSES]

    system = CoboundarySystem(mu6, alg)
    nu = system.primitive()
    rank_a, rank_ab = system.ranks()
    if nu is not None:
        return M6Certificate(False, rank_a, rank_ab, witnesses, [], nu)

    chain = _contradiction_chain(system.cols, system.rows, system.matrix,
                                 system.b, spec)
    return M6Certificate(True, rank_a, rank_ab, witnesses, chain)


def _contradiction_chain(cols, rows, matrix, b, spec):
    """Unit propagation over the rows of delta(nu) = mu6, scanning the
    four quotable equations first; returns the step list ending in a
    conflict (falls back to empty if propagation alone cannot reach one)."""
    ops_zero = spec.zero()
    row_entries = {i: [] for i in range(len(rows))}
    for j, col in enumerate(matrix):
        for i, v in col.items():
            row_entries[i].append((j, Scalar(spec, v)))
    order_first = [rows.index(w) for w in _PAPER_WITNESSES if w in rows]
    scan = order_first + [i for i in range(len(rows)) if i not in order_first]
    known: dict[int, Scalar] = {}
    chain = []
    progress = True
    while progress:
        progress = False
        for i in scan:
            entries = row_entries[i]
            rhs = Scalar(spec, b.get(i)) if b.get(i) else ops_zero
            unknown = [(j, c) for j, c in entries if j not in known]
            if len(unknown) > 1:
                continue
            acc = ops_zero
            for j, c in entries:
                if j in known:
                    acc = acc + c * known[j]
            if not unknown:
                if acc != rhs:
                    terms = [(cols[j], c) for j, c in entries]
                    chain.append(
                        CertificateStep(rows[i], rhs, terms, conflict=(acc, rhs))
                    )
                    return chain
                continue
            j, c = unknown[0]
            value = (rhs - acc) / c
            if j in known:
                continue
            known[j] = value
            terms = [(cols[jj], cc) for jj, cc in entries]
            chain.append(CertificateStep(rows[i], rhs, terms,
                                         forced=(cols[j], value)))
            scan = [k for k in scan if k != i]
            progress = True
            break
    return chain
