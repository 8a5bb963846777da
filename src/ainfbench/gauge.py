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

Both the action and the composition scatter each term from the tables'
support into the tuple it lands on, which is exact.  A g-side term at t
splices a key w of mu^m into a key G of g^(d-m+1) (t = G[:p] + w +
G[p+1:], G[p] in the output of mu^m(w); with g^1 the identity, t is a
key of mu^d).  A mu_new-side term reads a key K of mu_new^r, r < d, each
letter kept or replaced by a g^s key whose output holds it.  No other
tuple gets a term.  Keys are the composable tuples of non-identity
generators, in the order of cat.tuples.

The two residual invariants live in the 1-dimensional cells HH^2(A,A)^-4
(order 6) and HH^2(A,A)^-6 (order 8); coordinates are reported against
the deterministic reference cocycles of hochschild.reference_cocycle.

Rescaling mu^d -> t^(d-2) mu^d, g^k -> t^(k-1) g^k gives each term of the
functor equation and of mc_extend's obstruction equation weight d - 2, and
each solve is linear against a delta matrix of mu^2 alone, so (m6, m8) ->
(t^4 m6, t^6 m8).  gauge_apply, extract_invariants and mc_extend rescale
once by t = weight_scale, to integers, and their results by 1/t.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .hochschild import (
    Cell,
    Cochain,
    class_coordinate,
    cochain_basis,
    cochain_to_vector,
    gerst_compose,
    is_coboundary,
    mu_cochain,
    reference_cocycle,
    solve_first,
)
from .quiver import (AInfStructure, Element, EntryError, ZERO, _entry_lines, accumulate,
                     check_table, dump, format_element, index_by_output, load_with_extras,
                     parse_table, preset_A, splices)
from .scalars import FieldSpec, Scalar


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
        p = spec.characteristic
        self._identity = {(n,): Element.single(n, 1, p) for n in cat.generators}
        self.components: dict[int, dict] = {}
        for k, table in (components or {}).items():
            clean = {names: el for names, el in table.items() if not el.is_zero()}
            for names in clean:
                if k < 2:
                    raise EntryError(names, f"bad g^{k} key {names}")
                if any(cat.is_identity_component(n) for n in names):
                    raise EntryError(names, f"g^{k} not normalized at {names}")
            check_table(cat, f"g^{k}", clean, 1, k, p)
            if clean:
                self.components[k] = clean

    def supports(self):
        return sorted(self.components)

    def table(self, k: int) -> dict:
        """g^k as a sparse table; g^1 is the identity on generators."""
        return self._identity if k == 1 else self.components.get(k, {})


def _substitutions(key, blocks: dict, alphabet, shortest: int, most: int, longest: int):
    """(t, c) for every tuple t of shortest..most letters built from key
    letter by letter: a letter n is kept (n in alphabet, coefficient 1) or
    replaced by a block key B whose value holds n with coefficient c_B; c
    is the raw product.  Only lengths that can still end in that range are
    extended (blocks have at most longest letters)."""
    partial = [((), 1)]
    for i, n in enumerate(key):
        rest = len(key) - 1 - i
        grown = []
        for t, c0 in partial:
            lo, hi = shortest - len(t) - rest * longest, most - len(t) - rest
            if n in alphabet and lo <= 1 <= hi:
                grown.append((t + (n,), c0))
            grown += [(t + B, c0 * c) for B, c in blocks.get(n, ()) if lo <= len(B) <= hi]
        partial = grown
    return partial


def _scatter(accs: dict, table: dict, blocks: dict, alphabet, shortest: int, most: int,
             longest: int, negate: bool = False) -> None:
    """accs[len(t)][t] += c * table[K] for each key K of table and each (t,
    c) of its one substitution pass into shortest..most letters."""
    for K in table if shortest <= most else ():
        for t, c in _substitutions(K, blocks, alphabet, shortest, most, longest):
            accumulate(accs[len(t)].setdefault(t, {}), table, ((K, c),), negate)


def _entries(accs: dict, cat, d: int, p: int) -> dict:
    """The nonzero scattered sums as Elements over characteristic p, keyed by
    the composable length-d tuples of non-identity generators in cat.tuples
    order."""
    gens = cat.nonidentity_generators()
    sums = ((t, Element(accs[t], p)) for t in cat.tuples_among(accs, d, gens))
    return {t: el for t, el in sums if not el.is_zero()}


def gauge_apply(gauge: GaugeTransformation, mu: AInfStructure,
                order: int = None) -> AInfStructure:
    """Act on a minimal structure; result is minimal with the same mu^2.
    _gauge_apply on integers, rescaled by weight_scale (module docstring)."""
    s, t = mu.spec.scalar, weight_scale(mu, *gauge.components.values())
    scaled = GaugeTransformation(mu.spec, gauge.cat, _graded(gauge.components, s(t), 1))
    return rescale(_gauge_apply(scaled, rescale(mu, s(t)), order), s(1, t))


def _gauge_apply(gauge: GaugeTransformation, mu: AInfStructure,
                 order: int = None) -> AInfStructure:
    """The action on the tables as given: only the splices and block
    substitutions of the module docstring are evaluated, which is exact;
    keys come in cat.tuples order.  order may not exceed mu.truncation:
    mu's higher arities are unknown, not zero."""
    if 1 in mu.present_arities():
        raise ValueError("gauge action implemented for minimal structures")
    order = order or mu.truncation
    if order > mu.truncation:
        raise ValueError(f"cannot gauge to order {order} beyond truncation "
                         f"{mu.truncation}")
    spec, cat = mu.spec, mu.cat
    new_tables: dict[int, dict] = {2: dict(mu.tables[2])}
    alphabet = set(cat.nonidentity_generators())
    odd = {n: (cat.deg(n) - 1) % 2 for n in cat.generators}
    blocks = index_by_output(e for tbl in gauge.components.values() for e in tbl.items())
    longest = max(gauge.supports(), default=1)
    accs = {d: {} for d in range(3, order + 1)}

    # mu_new-side: subtract the products of g-blocks, each mu_new^r key
    # scattered into every higher arity once mu_new^r is complete
    _scatter(accs, new_tables[2], blocks, alphabet, 3, order, longest, True)
    for d in range(3, order + 1):
        # g-side: old mu^m inserted into g^{d-m+1}, signed by the tail
        for m, inner in mu.tables.items():
            gk = gauge.table(d - m + 1)
            for t, G, i, c in splices(gk, inner):
                accumulate(accs[d].setdefault(t, {}), gk, ((G, c),),
                           sum(odd[n] for n in G[i + 1:]) % 2)
        new_tables[d] = _entries(accs.pop(d), cat, d, spec.characteristic)
        _scatter(accs, new_tables[d], blocks, alphabet, d + 1, order, longest, True)
    return AInfStructure(spec, cat, order, new_tables)


def gauge_compose(second: GaugeTransformation, first: GaugeTransformation,
                  up_to: int = 12) -> GaugeTransformation:
    """Composite transformation: apply first, then second.

    Functor composition (second o first)^d = sum second^r(first-blocks),
    no signs.  Composites generally have components in every arity, so the
    result is truncated at up_to; acting on structures of truncation
    <= up_to only ever reads those.  Each term is scattered from a key of
    second^r, r <= d, each letter kept or replaced by a first-key whose
    output holds it, which is exact; keys come in cat.tuples order."""
    spec, cat = first.spec, first.cat
    alphabet = set(cat.nonidentity_generators())
    blocks = index_by_output(e for tbl in first.components.values() for e in tbl.items())
    longest = max(first.supports(), default=1)
    accs = {d: {} for d in range(2, up_to + 1)}
    for r in range(1, up_to + 1):
        _scatter(accs, second.table(r), blocks, alphabet, max(r, 2), up_to, longest)
    return GaugeTransformation(spec, cat, {d: _entries(acc, cat, d, spec.characteristic)
                                           for d, acc in accs.items()})


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


def check_orders(orders, order: int):
    """Raise ValueError for an arity kill_orders cannot act on: one below 3
    (no gauge changes mu^1 or mu^2) or above the order it works to."""
    for d in orders:
        if not 3 <= d <= order:
            raise ValueError(f"cannot gauge away order {d}: orders run from 3 to {order}")


def kill_orders(mu: AInfStructure, orders, order: int = None):
    """Gauge away the listed arities (processed ascending).

    Each targeted mu^d must be a cocycle (else ValueError, solve first:
    solve_first) whose class vanishes; otherwise ObstructionError
    reports the nonzero coordinate.  An arity outside 3..order raises
    ValueError (check_orders).  Returns (the list of elementary gauge
    steps, normalized structure); ``gauge_compose`` folds the steps into
    one gauge."""
    order = order or mu.truncation
    check_orders(orders, order)
    current = mu
    steps = []
    for d in sorted(orders):
        phi = mu_cochain(current, d)
        if phi.is_zero():
            continue
        nu = solve_first(phi, current, ValueError(
            f"mu^{d} is not a cocycle; lower orders unkilled?"),
            lambda: Cell(current, phi.r, phi.s).primitive(phi))
        if nu is None:
            try:
                coord = class_coordinate(phi, current)
            except ValueError:
                coord = None
            raise ObstructionError(d, coord)
        step = GaugeTransformation(mu.spec, mu.cat, {d - 1: nu.table})
        current = gauge_apply(step, current, order)
        steps.append(step)
    return steps, current


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
    residual classes of mu^6 and mu^8 (_invariant), on integers: those of
    rescale(mu, t) over t^4 and t^6, t = weight_scale (module docstring)."""
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
    s, t = mu.spec.scalar, weight_scale(mu)
    try:
        inv = _extract_invariants(rescale(mu, s(t)))
    except ObstructionError as exc:  # its coordinate has weight order - 2
        c = exc.coordinate
        raise ObstructionError(exc.order, c and c * s(1, t ** (exc.order - 2))) from None
    return DeformationClass(inv.m6 * s(1, t ** 4), inv.m8 * s(1, t ** 6),
                            inv.reference6, inv.reference8)


def _extract_invariants(mu: AInfStructure) -> DeformationClass:
    """The invariants of mu through arity 8, on its tables as given."""
    _, cur = kill_orders(mu, (3, 4, 5))
    ref6, m6 = _invariant(cur, 6)
    _, cur = kill_orders(cur, (7,))
    ref8, m8 = _invariant(cur, 8)
    return DeformationClass(m6, m8, ref6, ref8)


def _invariant(alg: AInfStructure, d: int):
    """(reference, class coordinate) of mu^d, which must be a cocycle
    (AssertionError), solve first (solve_first): the re-checked primitive
    of mu^d - c * reference proves it."""
    phi = mu_cochain(alg, d)
    m = solve_first(phi, alg, AssertionError(f"mu^{d} failed to be a cocycle after gauge fixing"),
                    lambda: class_coordinate(phi, alg))
    return reference_cocycle(alg, d, 2 - d), m


def weight_scale(mu: AInfStructure, *tables) -> int:
    """The lcm t of the denominators of mu's entries at arity >= 3 and of
    the tables' (1 over F_p): t^w * c is an integer for weights w >= 1."""
    tables += tuple(table for d, table in mu.tables.items() if d > 2)
    return lcm(*{c.denominator for table in tables
                 for el in table.values() for c in el.terms.values()})


def _graded(tables: dict, t: Scalar, shift: int) -> dict:
    """{d: t^(d - shift) * tables[d]}, the weight grading: shift 2 for mu^d,
    1 for g^k; the tables themselves at t = 1."""
    if t == t.spec.one():
        return tables
    out = {}
    for d, table in tables.items():
        w = Fraction(t.value) ** (d - shift)  # mu^1 has weight -1
        factor = t.spec.scalar(w.numerator, w.denominator).value
        out[d] = {names: el.scale(factor) for names, el in table.items()}
    return out


def rescale(mu: AInfStructure, t: Scalar) -> AInfStructure:
    """mu^d -> t^(d-2) mu^d, t != 0; corresponds to (m6, m8) -> (t^4 m6,
    t^6 m8).  gauge_apply, extract_invariants and mc_extend rescale by
    weight_scale at entry and by its inverse at exit; by 1, mu itself."""
    tables = _graded(mu.tables, t, 2)
    if tables is mu.tables:
        return mu
    scaled = copy(mu)  # mu's keys and degrees, which t != 0 keeps
    scaled.tables = tables
    return scaled


def mc_extend(spec: FieldSpec, m6: Scalar, m8: Scalar, order: int = 12) -> AInfStructure:
    """Build a minimal structure realizing the prescribed invariants:
    _mc_extend on integers, t the lcm of their denominators."""
    t, s = lcm(m6.value.denominator, m8.value.denominator), spec.scalar
    return rescale(_mc_extend(spec, m6 * s(t ** 4), m8 * s(t ** 6), order), s(1, t))


def _mc_extend(spec: FieldSpec, m6: Scalar, m8: Scalar, order: int = 12) -> AInfStructure:
    """The structure for (m6, m8), built on the values as given.

    Orders 3..5 are zero; mu^6 and mu^8 are the prescribed coordinates
    times the reference cocycles; every other order solves
    delta(mu^d) = -(sum of circle products of lower orders), whose
    right-hand side is the arity-(d+1) component of the relations.  A
    failure to solve would contradict the vanishing of the relevant HH
    cell and is raised as an internal inconsistency.  Obstructions are
    solved first (solve_first); references are bracket-checked once.
    """
    if spec.characteristic in (2, 3):
        raise ValueError("classification requires 6 invertible")
    base = preset_A(spec, order)
    tables = {2: dict(base.tables[2])}
    chosen: dict[int, Cochain] = {}
    for d in range(3, order + 1):
        # delta(mu^d) = - sum_{j=3}^{d-1} mu^j o mu^{d+2-j}, the arity-(d+1)
        # component of the relations below order d
        terms = [gerst_compose(chosen[j], chosen[d + 2 - j], base) for j in range(3, d)
                 if not (chosen[j].is_zero() or chosen[d + 2 - j].is_zero())]
        acc = sum(terms[1:], terms[0]) if terms else Cochain(d + 1, 2 - d)
        obstruction = None if acc.is_zero() else -acc
        if d == 6 or d == 8:
            if obstruction is not None:
                raise AssertionError(
                    f"unexpected nonzero bracket obstruction at order {d}"
                )
            phi = reference_cocycle(base, d, 2 - d).scale(m6 if d == 6 else m8)
        elif obstruction is None:
            phi = Cochain(d, 2 - d)
        else:
            phi = solve_first(obstruction, base, AssertionError(
                f"order-{d} obstruction is not a cocycle"),
                lambda: Cell(base, obstruction.r, obstruction.s).primitive(obstruction))
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
    cat = gauge.cat
    sections = []
    for k in gauge.supports():
        table = gauge.components[k]
        rows = [f"{' '.join(names)} -> {format_element(table[names], cat)}"
                for names in sorted(table, key=lambda t: [cat.order[n] for n in t])]
        sections.append((f"G{k}", rows))
    return dump(AInfStructure(gauge.spec, cat, truncation, {}), sections)


def load_gauge(text: str) -> GaugeTransformation:
    """Parse dump_gauge's format; a faulty row names its line."""
    shell, extras = load_with_extras(text)
    components, lines = {}, {}
    for name, rows, head in extras:
        if not (name.startswith("G") and name[1:].isdigit()):
            raise ValueError(f"line {head}: unexpected section {name} in gauge file")
        k = int(name[1:])
        components[k] = parse_table(rows, k, name, shell.cat, shell.spec, lines)
    with _entry_lines(lines):
        return GaugeTransformation(shell.spec, shell.cat, components)


def random_gauge(spec: FieldSpec, cat, rng, orders=(2, 3, 4),
                 density: float = 0.35) -> GaugeTransformation:
    """Sparse random gauge with small rational entries, for orbit sampling.

    Deterministic given the rng; entries are drawn per admissible
    (tuple, output generator) slot of each component, in the order of
    cochain_basis (g^k has the slots of a cochain of degree 1 - k)."""
    choices = [(1, 2), (-1, 2), (1, 3), (-1, 3), (1, 1), (-1, 1), (2, 1)]
    components = {}
    for k in orders:
        table = {}
        for t, g in cochain_basis(AInfStructure(spec, cat, k, {}), k, 1 - k):
            if rng.random() < density:
                num, den = choices[rng.randrange(len(choices))]
                table[t] = table.get(t, ZERO) + Element.single(g, spec.scalar(num, den))
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
    rank certificate and a forced-value chain ending in a contradiction.
    Solve first (solve_first)."""
    cell = Cell(alg, mu6.r, mu6.s)
    nu = solve_first(mu6, alg, ValueError("mu6 is not a cocycle"), lambda: cell.primitive(mu6))
    spec = alg.spec
    scaled = mu6.scale(spec.scalar(144))
    witnesses = [(t, scaled.value(t)) for t, _ in _PAPER_WITNESSES]
    rank_a, rank_ab = cell.ranks(mu6)
    if nu is not None:
        return M6Certificate(False, rank_a, rank_ab, witnesses, [], nu)

    chain = _contradiction_chain(cell.cols, cell.rows, cell.matrix,
                                 cochain_to_vector(mu6, cell.rows), spec)
    return M6Certificate(True, rank_a, rank_ab, witnesses, chain)


def _contradiction_chain(cols, rows, matrix, b, spec):
    """Unit propagation over the rows of delta(nu) = mu6, scanning the
    four quotable equations first; returns the step list ending in a
    conflict (falls back to empty if propagation alone cannot reach one)."""
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
            rhs = Scalar(spec, b.get(i, 0))
            unknown = [(j, c) for j, c in entries if j not in known]
            if len(unknown) > 1:
                continue
            acc = sum((c * known[j] for j, c in entries if j in known), Scalar(spec, 0))
            terms = [(cols[j], c) for j, c in entries]
            if not unknown:
                if acc != rhs:
                    chain.append(CertificateStep(rows[i], rhs, terms, conflict=(acc, rhs)))
                    return chain
                continue
            j, c = unknown[0]
            known[j] = value = (rhs - acc) / c
            chain.append(CertificateStep(rows[i], rhs, terms, forced=(cols[j], value)))
            scan = [k for k in scan if k != i]
            progress = True
            break
    return chain
