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

The action scatters each term from the tables' support into the tuple it
lands on, which is exact.  A g-side term at t splices a key w of mu^m
into a key G of g^(d-m+1) (t = G[:p] + w + G[p+1:], G[p] in the output
of mu^m(w); with g^1 the identity, t is a key of mu^d).  A mu_new-side
term reads a key K of mu_new^r, r < d, each letter kept or replaced by a
g^s key whose output holds it.  No other tuple gets a term.  Keys are the
composable tuples of non-identity generators, in the order of cat.tuples.

The two residual invariants live in the 1-dimensional cells HH^2(A,A)^-4
(order 6) and HH^2(A,A)^-6 (order 8); coordinates are reported against
the deterministic reference cocycles of hochschild.reference_cocycle.
extract_invariants reads them in one pass over d = 3..8 choosing the gauge
as it goes: psi^d, the arity-d functor equation with g^(d-1) = 0 (mu^m
spliced into the known g^k, mu_new^r, r < d, pulled to length d through
the known blocks), is shifted by g^(d-1) only as -delta(g^(d-1)).  At d in
_NORMAL_FORM g^(d-1) is the primitive of psi^d, so mu_new^d = 0 is never
scattered; at d = 6, 8 the class c of psi^d is read, and g^(d-1) is the
re-checked primitive of psi^d - c * reference that proves it, so
mu_new^d = c * reference: at d = 6 the reference's 28 keys, not psi^6's
86-100 on orbit points of the transfer, are pulled to arities 7 and 8.
gauge-fix normalizes by kill_orders, one action of a one-component gauge
per killed order, because the one pass plus one action of its
several-component gauge is slower from order 10 up: orders 3, 4, 5 of
the transferred model over Q took 1.4 s against 0.3 s at order 12 and
0.12 s against 0.08 s at order 10, and about the same at order 8.

Rescaling mu^d -> t^(d-2) mu^d, g^k -> t^(k-1) g^k gives each term of the
functor equation and of mc_extend's obstruction equation weight d - 2, and
each solve is linear against a delta matrix of mu^2 alone, so (m6, m8) ->
(t^4 m6, t^6 m8).  gauge_apply, extract_invariants and mc_extend rescale
once by t = weight_scale, to integers, and their results by 1/t.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import lcm

from .hochschild import (
    Cell,
    Cochain,
    _entries,
    class_coordinate,
    class_split,
    cochain_basis,
    mu_cochain,
    reference_cocycle,
    solve_first,
)
from .quiver import (AInfStructure, Element, EntryError, ZERO, accumulate, check_table,
                     index_by_output, preset_A, splices)
from .scalars import FieldSpec, canon, divide, field_mismatch


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
            if hi > 1:  # a block has at least two letters
                grown += [(t + B, c0 * c) for B, c in blocks.get(n, ()) if lo <= len(B) <= hi]
        partial = grown
    return partial


def _scatter(accs: dict, table: dict, blocks: dict, alphabet, shortest: int, most: int,
             longest: int) -> None:
    """accs[len(t)][t] -= c * table[K] for each key K of table and each (t,
    c) of its one substitution pass into shortest..most letters: the
    mu_new-side terms, moved to the g-side of the functor equation."""
    for K in table if shortest <= most else ():
        for t, c in _substitutions(K, blocks, alphabet, shortest, most, longest):
            accumulate(accs[len(t)].setdefault(t, {}), table, ((K, c),), True)


def gauge_apply(gauge: GaugeTransformation, mu: AInfStructure,
                order: int = None) -> AInfStructure:
    """Act on a minimal structure; result is minimal with the same mu^2.
    _gauge_apply on integers, rescaled by weight_scale (module docstring).
    Both inputs were checked when built, so what is built here is not."""
    if gauge.spec != mu.spec:
        raise field_mismatch(gauge.spec.characteristic, mu.spec.characteristic)
    p, t = mu.spec.characteristic, weight_scale(mu, *gauge.components.values())
    scaled = copy(gauge)
    scaled.components = _graded(gauge.components, t, 1, p)
    return rescale(_gauge_apply(scaled, rescale(mu, t), order), divide(1, t, p))


def _g_side(acc: dict, gauge: GaugeTransformation, mu: AInfStructure, d: int) -> None:
    """acc[t] += the g-side terms at arity d: each mu^m spliced into
    g^(d-m+1), signed by the tail of the g key."""
    for m, inner in mu.tables.items():
        splices(acc, gauge.table(d - m + 1), inner, mu.cat.odd)


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
    cat = mu.cat
    new_tables: dict[int, dict] = {2: dict(mu.tables[2])}
    alphabet = set(cat.nonidentity_generators())
    blocks = index_by_output(e for tbl in gauge.components.values() for e in tbl.items())
    longest = max(gauge.supports(), default=1)
    accs = {d: {} for d in range(3, order + 1)}

    # mu_new-side: subtract the products of g-blocks, each mu_new^r key
    # scattered into every higher arity once mu_new^r is complete
    _scatter(accs, new_tables[2], blocks, alphabet, 3, order, longest)
    for d in range(3, order + 1):
        _g_side(accs[d], gauge, mu, d)
        new_tables[d] = _entries(accs.pop(d), cat, mu.spec.characteristic)
        _scatter(accs, new_tables[d], blocks, alphabet, d + 1, order, longest)
    out = copy(mu)
    out.truncation, out.tables = order, {d: t for d, t in new_tables.items() if t}
    return out


def preset_gauge_G(spec: FieldSpec, cat) -> GaugeTransformation:
    """Quadratic gauge killing the transferred mu^3 (six-entry table).

    The (e1, e1) entry must be -1/2 e1: it is the unique sign for which
    delta(g) equals the transferred mu^3 slot-for-slot, and the only
    choice reproducing the downstream thirteen-entry mu^4 table."""
    half, p = spec.scalar(1, 2), spec.characteristic
    tbl = {
        ("e1", "e1"): Element.single("e1", -half, p),
        ("f1", "f1"): Element.single("f1", -half, p),
        ("e1", "v"): Element.single("v", -half, p),
        ("v", "f1"): Element.single("v", half, p),
        ("u", "e1"): Element.single("u", -half, p),
        ("f1", "u"): Element.single("u", -half, p),
    }
    return GaugeTransformation(spec, cat, {2: tbl})


def preset_gauge_H(spec: FieldSpec, cat) -> GaugeTransformation:
    """Cubic gauge killing the residual mu^4 (twelve-entry table)."""
    s, p = spec.scalar, spec.characteristic
    tbl = {
        ("v", "f1", "u"): Element.single("e0", s(-1, 12), p),
        ("v", "u", "e1"): Element.single("e0", s(-1, 12), p),
        ("e1", "e1", "e1"): Element.single("e1", s(1, 3), p),
        ("f1", "u", "v"): Element.single("f0", s(-1, 12), p),
        ("u", "e1", "v"): Element.single("f0", s(-1, 12), p),
        ("f1", "f1", "f1"): Element.single("f1", s(1, 3), p),
        ("e1", "v", "f1"): Element.single("v", s(-1, 3), p),
        ("v", "f1", "f1"): Element.single("v", s(-1, 6), p),
        ("e1", "e1", "v"): Element.single("v", s(1, 3), p),
        ("f1", "f1", "u"): Element.single("u", s(5, 12), p),
        ("f1", "u", "e1"): Element.single("u", s(1, 3), p),
        ("u", "e1", "e1"): Element.single("u", s(5, 12), p),
    }
    return GaugeTransformation(spec, cat, {3: tbl})


def check_orders(orders, order: int):
    """Raise ValueError for an arity kill_orders cannot act on: one below 3
    (no gauge changes mu^1 or mu^2) or above the order it works to."""
    for d in orders:
        if not 3 <= d <= order:
            raise ValueError(f"cannot gauge away order {d}: orders run from 3 to {order}")


def kill_orders(mu: AInfStructure, orders):
    """Gauge away the listed arities (processed ascending), through
    mu.truncation.

    Each targeted mu^d must be a cocycle (else ValueError, solve first:
    solve_first) whose class vanishes; otherwise ObstructionError
    reports the nonzero coordinate.  An arity outside 3..mu.truncation
    raises ValueError (check_orders).  Returns (the list of elementary
    gauge steps, in the order they act, normalized structure)."""
    check_orders(orders, mu.truncation)
    current = mu
    steps = []
    for d in sorted(orders):
        phi = mu_cochain(current, d)
        if phi.is_zero():
            continue
        step = GaugeTransformation(mu.spec, mu.cat)  # _primitive re-checked its one table
        step.components[d - 1] = _primitive(phi, current).table
        current = gauge_apply(step, current)
        steps.append(step)
    return steps, current


def _primitive(phi: Cochain, alg: AInfStructure) -> Cochain:
    """The re-checked nu with delta(nu) = phi for phi in mu^d's cell, the
    g^(d-1) that gauges phi away: ValueError if phi is not a cocycle (solve
    first: solve_first), ObstructionError with its class coordinate if it
    has no primitive."""
    nu = solve_first(phi, alg, ValueError(f"mu^{phi.r} is not a cocycle; lower orders unkilled?"),
                     lambda: Cell(alg, phi.r, phi.s).primitive(phi))
    if nu is None:
        try:
            coord = class_coordinate(phi, alg)
        except ValueError:
            coord = None
        raise ObstructionError(phi.r, coord)
    return nu


class DeformationClass:
    """Coordinates of the order-6 and order-8 invariants, raw values of the
    structure's field, against the deterministic reference cocycles
    (documented for reproducibility)."""

    def __init__(self, m6: int | Fraction, m8: int | Fraction,
                 reference6: Cochain, reference8: Cochain):
        self.m6, self.m8, self.reference6, self.reference8 = m6, m8, reference6, reference8

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

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
    """Gauge mu^3, mu^4, mu^5 and mu^7 to zero and read off the residual
    classes of mu^6 and mu^8 (_extract_invariants), on integers: those of
    rescale(mu, t) over t^4 and t^6, t = weight_scale (module docstring)."""
    if mu.spec.characteristic in (2, 3):
        raise ValueError("invariants defined only when 6 is invertible")
    if mu.truncation < 8:
        raise ValueError("structure must carry arities through 8")
    if mu.truncation > 8:  # the invariants only see arities <= 8; drop the rest
        mu = copy(mu)  # of checked tables, as rescale builds them
        mu.truncation, mu.tables = 8, {d: t for d, t in mu.tables.items() if d <= 8}
    p, t = mu.spec.characteristic, weight_scale(mu)
    try:
        inv = _extract_invariants(rescale(mu, t))
    except ObstructionError as exc:  # its coordinate has weight order - 2
        c = exc.coordinate
        raise ObstructionError(exc.order, c and divide(c, t ** (exc.order - 2), p)) from None
    return DeformationClass(divide(inv.m6, t ** 4, p), divide(inv.m8, t ** 6, p),
                            inv.reference6, inv.reference8)


# The arities extract_invariants gauges away; it reads the classes of 6 and 8.
_NORMAL_FORM = (3, 4, 5, 7)


def _extract_invariants(mu: AInfStructure) -> DeformationClass:
    """The invariants of mu through arity 8, on its tables as given, in one
    pass that chooses g^(d-1) at each killed arity d (module docstring)."""
    cat, gauge = mu.cat, GaugeTransformation(mu.spec, mu.cat)
    alphabet = set(cat.nonidentity_generators())
    new, coords = {2: mu.tables[2]}, {}
    for d in range(3, 9):
        if gauge.components:
            acc = {}
            _g_side(acc, gauge, mu, d)
            # mu_new^r to length d: _substitutions takes no block longer than d - r + 1
            blocks = index_by_output(e for tbl in gauge.components.values() for e in tbl.items())
            longest = max(gauge.supports())
            for r, table in new.items():
                _scatter({d: acc}, table, blocks, alphabet, d, d, min(longest, d - r + 1))
            psi = Cochain(d, 2 - d, _entries(acc, cat, mu.spec.characteristic))
        else:  # the gauge is the identity so far
            psi = mu_cochain(mu, d)
        if d not in _NORMAL_FORM:  # psi^d = c * reference + delta(nu)
            coords[d], nu = solve_first(psi, mu, AssertionError(
                f"mu^{d} failed to be a cocycle after gauge fixing"),
                lambda: class_split(psi, mu))
            new[d] = reference_cocycle(mu, d, 2 - d).scale(coords[d]).table
            if not nu.is_zero():
                gauge.components[d - 1] = nu.table
        elif not psi.is_zero():
            gauge.components[d - 1] = _primitive(psi, mu).table
    return DeformationClass(coords[6], coords[8], reference_cocycle(mu, 6, -4),
                            reference_cocycle(mu, 8, -6))


def weight_scale(mu: AInfStructure, *tables) -> int:
    """The lcm t of the denominators of mu's entries at arity >= 3 and of
    the tables' (1 over F_p): t^w * c is an integer for weights w >= 1."""
    tables += tuple(table for d, table in mu.tables.items() if d > 2)
    return lcm(*{c.denominator for table in tables
                 for el in table.values() for c in el.terms.values()})


def _graded(tables: dict, t, shift: int, p: int) -> dict:
    """{d: t^(d - shift) * tables[d]} for a raw value t of the field of
    characteristic p, the weight grading: shift 2 for mu^d, 1 for g^k; the
    tables themselves at t = 1."""
    if t == 1:
        return tables
    out = {}
    for d, table in tables.items():
        w = Fraction(t) ** (d - shift)  # mu^1 has weight -1
        factor = divide(w.numerator, w.denominator, p)
        out[d] = {names: el.scale(factor) for names, el in table.items()}
    return out


def rescale(mu: AInfStructure, t) -> AInfStructure:
    """mu^d -> t^(d-2) mu^d for a raw value t != 0 of mu's field;
    corresponds to (m6, m8) -> (t^4 m6, t^6 m8).  gauge_apply,
    extract_invariants and mc_extend rescale by weight_scale at entry and
    by its inverse at exit; by 1, mu itself."""
    tables = _graded(mu.tables, t, 2, mu.spec.characteristic)
    if tables is mu.tables:
        return mu
    scaled = copy(mu)  # mu's keys and degrees, which t != 0 keeps
    scaled.tables = tables
    return scaled


def mc_extend(spec: FieldSpec, m6, m8, order: int = 12) -> AInfStructure:
    """Build a minimal structure realizing the prescribed invariants, two
    rationals read in spec's field (spec.scalar): _mc_extend on integers,
    t the lcm of their denominators.  ValueError when a nonzero invariant
    lies above order, where the structure could not carry it."""
    p = spec.characteristic
    m6, m8 = (spec.scalar(m.numerator, m.denominator) for m in (m6, m8))
    for d, m in ((6, m6), (8, m8)):
        if m and order < d:
            raise ValueError(f"m{d} = {m} lies above order {order}")
    t = lcm(m6.denominator, m8.denominator)
    return rescale(_mc_extend(spec, canon(m6 * t ** 4, p), canon(m8 * t ** 6, p), order),
                   divide(1, t, p))


def _mc_extend(spec: FieldSpec, m6, m8, order: int = 12) -> AInfStructure:
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
    cat, p = base.cat, spec.characteristic
    tables = {2: dict(base.tables[2])}
    for d in range(3, order + 1):
        # delta(mu^d) = - sum_{j=3}^{d-1} mu^j o mu^{d+2-j}, the arity-(d+1)
        # component of the relations below order d: ainf_check's scatter,
        # whose keys hold no identity (the tables above arity 2 are normalized)
        acc = {}
        for j in range(3, d):
            splices(acc, tables.get(j, {}), tables.get(d + 2 - j, {}), cat.odd)
        obstruction = Cochain(d + 1, 2 - d, {
            t: Element({g: -c for g, c in terms.items()}, p) for t, terms in acc.items()})
        if d == 6 or d == 8:
            if not obstruction.is_zero():
                raise AssertionError(
                    f"unexpected nonzero bracket obstruction at order {d}"
                )
            phi = reference_cocycle(base, d, 2 - d).scale(m6 if d == 6 else m8)
        elif obstruction.is_zero():
            phi = Cochain(d, 2 - d)
        else:
            phi = solve_first(obstruction, base, AssertionError(
                f"order-{d} obstruction is not a cocycle"),
                lambda: Cell(base, obstruction.r, obstruction.s).primitive(obstruction))
            if phi is None:
                raise AssertionError(
                    f"order-{d} obstruction not a coboundary: HH cell should vanish"
                )
        if not phi.is_zero():
            tables[d] = dict(phi.table)
    return AInfStructure(spec, cat, order, tables)


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
                table[t] = table.get(t, ZERO) + Element.single(
                    g, spec.scalar(num, den), spec.characteristic)
        if table:
            components[k] = table
    return GaugeTransformation(spec, cat, components)


# ---------------------------------------------------------------------------
# Nonvanishing certificate for the order-6 class
# ---------------------------------------------------------------------------

class CertificateStep:
    def __init__(self, key: tuple,    # (tuple of inputs, output generator) row
                 rhs: int | Fraction,  # value of the scaled mu^6 there
                 terms: list,          # [(slot, coeff)] with slot = (tuple, generator)
                 forced: tuple = None,  # slot solved by this step, with its value
                 conflict: tuple = None):  # (lhs, rhs) raw values at a contradiction
        self.key, self.rhs, self.terms = key, rhs, terms
        self.forced, self.conflict = forced, conflict


class M6Certificate:
    def __init__(self, nonzero: bool, rank_system: int, rank_augmented: int,
                 witness_values: list,  # [(tuple, Element)] the four scaled products
                 chain: list,           # CertificateStep derivation ending in a conflict
                 primitive: Cochain = None):  # only when the class is actually zero
        self.nonzero, self.rank_system, self.rank_augmented = nonzero, rank_system, rank_augmented
        self.witness_values, self.chain, self.primitive = witness_values, chain, primitive

    def summary(self) -> str:
        """The rank certificate and contradiction chain, or the m6 = 0 verdict."""
        lines = []
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
    # rank [A|mu6] = rank A + (nu is None): both read mu6's one reduction
    rank_a = cell.echelon.rank
    if nu is not None:
        return M6Certificate(False, rank_a, rank_a, witnesses, [], nu)

    # rows in basis order, less those no column meets and mu6 misses (0 = 0)
    scan = [cell.rows[b] for b in cochain_basis(alg, mu6.r, mu6.s) if b in cell.rows]
    chain = _contradiction_chain(cell.cols, list(cell.rows), scan, cell.matrix,
                                 cell.vector(mu6), spec.characteristic)
    return M6Certificate(True, rank_a, rank_a + 1, witnesses, chain)


def _contradiction_chain(cols, rows, scan, matrix, b, p: int):
    """Unit propagation over the rows of delta(nu) = mu6 over the field of
    characteristic p, rows listing the row keys by id, scanning the four
    quotable equations first and then the ids of scan in order; returns
    the step list ending in a conflict (falls back to empty if propagation
    alone cannot reach one)."""
    row_entries = {i: [] for i in range(len(rows))}
    for j, col in enumerate(matrix):
        for i, v in col.items():
            row_entries[i].append((j, v))
    order_first = [rows.index(w) for w in _PAPER_WITNESSES if w in rows]
    scan = order_first + [i for i in scan if i not in order_first]
    known = {}
    chain = []
    progress = True
    while progress:
        progress = False
        for i in scan:
            entries = row_entries[i]
            rhs = b.get(i, 0)
            unknown = [(j, c) for j, c in entries if j not in known]
            if len(unknown) > 1:
                continue
            acc = canon(sum(c * known[j] for j, c in entries if j in known), p)
            terms = [(cols[j], c) for j, c in entries]
            if not unknown:
                if acc != rhs:
                    chain.append(CertificateStep(rows[i], rhs, terms, conflict=(acc, rhs)))
                    return chain
                continue
            j, c = unknown[0]
            known[j] = value = divide(rhs - acc, c, p)
            chain.append(CertificateStep(rows[i], rhs, terms, forced=(cols[j], value)))
            scan = [k for k in scan if k != i]
            progress = True
            break
    return chain
