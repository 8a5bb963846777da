"""Brute-force oracles for the fast paths of the program.

The product oracles loop over every composable tuple of each arity, as
the program once did, and evaluate it with the same sparse-table
evaluator. The tests compare the program's results with these: the same
keys, in the same order, with equal Elements.

The Hochschild oracles build each basis from every composable tuple and
assemble the delta matrix's rows over every composable tuple, as the
program once did.  ``pattern_by_rows`` finds delta's entries row by row,
testing every adjacent pair of each row's tuple, as the program once did
before it built each column's rows from the column.

The polygon oracles run in Fractions, as the program once did, and share
no geometry with its integer census: the pushoff profile, the curve lifts
and the candidate test are their own. They test every lattice translate
in the bounding box one point at a time (``count_lattice_points``), every
segment pair with cross products alone, and every star translate by
enumeration. The census oracles build every candidate polygon of the
parameter square in full, whatever its wrap count, quadrilaterals at both
pushoff crossings (the program enumerates only the degree-0 one), and
only then keep those within the wrap bound; they count translates with
the Fraction scanline, one row at a time against every segment
(``scanline_count``), and keep each boundary they built
(``FractionWitness``).  The integer scanline that the program once ran
on every witness's boundary (``_count_lattice_points``) checks the
census's closed-form count at the census's own scale.
``enumerate_polygons`` and ``mu2_series`` are the program's census read
as named products; no command needs them.

The rational oracles hold Q values as the program once did, every one a
Fraction, integral or not (``fraction_reduce`` and ``fraction_values``),
and find a reference cocycle from the whole kernel basis
(``find_reference``).

The class-coordinate oracle solves for the coordinate against a fresh
delta matrix with the reference's column appended, as the program once
did (``class_coordinate``).

``partition_count`` counts the partitions of n by direct enumeration.

``DividingEchelon`` inserts each pivot by the slow rule Echelon once
had: the pivot row by a lambda key, every pivot, 1 and -1 included,
inverted by divide, and canon on every entry; it checks the unit-pivot
fast path and the stored row keys of ``Echelon._insert``.

``determinant`` takes the determinant of a square integer matrix by row
elimination in Fractions, sharing nothing with Echelon's column
reduction; it checks ``Echelon.pivot_product``.

The bracket-first oracles check every cochain with the bracket before
they solve for it, as the program once did (``bracket_first``).

The weight-one oracle runs gauge_apply, extract_invariants and mc_extend
on their inputs as given, with no rescaling, as the program once did
(``weight_one``).

The sequential-extraction oracle reads the invariants as the program once
did, one elementary gauge per killed order: kill_orders gauges away orders
3, 4 and 5, the class of mu^6 is read, order 7 is gauged away and the
class of mu^8 is read (``sequential_invariants``).

Two checks no command makes: strict unitality of mu^2 against the
designated identities (``check_unital``; the relation checker assumes no
units), and the degree derivation, a length-1 cocycle (``euler_cochain``).

The last section holds code only the tests call, kept out of the package:
the sixteen-generator simplicial dg model (``preset_D``) and the
cohomology of mu^1 that compares it with preset_C
(``mu1_cohomology_dims``); the primal Skoldberg resolution, which checks
that the complex whose dual skoldberg_dims reads is exact
(``SkoldbergComplex``, ``skoldberg_check``); the dense series inverse
and the Cauchy product, the oracles of the division by Euler's function
in useries (``series_inv``, ``series_mul``); and the writer of scene
files (``scene_dump``).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import ceil, floor, inf

from ainfbench import gauge, hochschild, linalg, polygons, scalars
from ainfbench.gauge import GaugeTransformation
from ainfbench.hochschild import Cochain, vector_to_cochain
from ainfbench.linalg import Echelon, cohomology_dims, nullspace, rank
from ainfbench.perturbation import TransferResult, _apply_linear
from ainfbench.polygons import CROSS_LOW, _W_KNOTS, PolygonScene
from ainfbench.quiver import (A_GENERATORS, AInfStructure, Element, Generator, QuiverCategory,
                              ZERO, _assoc_mul_A, _table, accumulate)
from ainfbench.scalars import FieldSpec, canonical, tensor_terms
from ainfbench.skoldberg import _ends, _split
from ainfbench.useries import TruncatedUSeries


def ordered(tables):
    """Tables as lists of (key, Element) pairs, so that == also compares
    the order of the arities and of the keys."""
    return [(d, list(table.items())) for d, table in tables.items()]


def _compositions(d, parts):
    """Ordered compositions of d using the allowed part sizes."""
    if d == 0:
        yield ()
        return
    for p in parts:
        if p <= d:
            for rest in _compositions(d - p, parts):
                yield (p,) + rest


def _blocks(gauge, comp, t):
    """[g^{s_r}(block_r), ..., g^{s_1}(block_1)] for the composition
    comp = (s_1, ..., s_r) of the tuple t, s_1 the rightmost block; None
    when some block vanishes."""
    d = len(t)
    blocks = []
    off = 0
    for size in comp:
        val = gauge.table(size).get(t[d - off - size: d - off], ZERO)
        if val.is_zero():
            return None
        blocks.append(val)
        off += size
    blocks.reverse()
    return blocks


def gauge_apply(gauge, mu, order=None):
    order = order or mu.truncation
    spec, cat = mu.spec, mu.cat
    new_tables = {2: dict(mu.tables[2])}
    parts = tuple([1] + gauge.supports())
    gens = cat.nonidentity_generators()
    for d in range(3, order + 1):
        comps = [c for c in _compositions(d, parts)
                 if 2 <= len(c) <= d - 1 and any(p > 1 for p in c)]
        table = {}
        for t in cat.tuples(d, gens):
            degs = [cat.deg(n) for n in t]
            eps = [0] * (d + 1)
            for n in range(1, d + 1):
                eps[n] = eps[n - 1] + degs[d - n] - 1
            acc = {}
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
            for comp in comps:
                mu_r = new_tables.get(len(comp))
                if not mu_r:
                    continue
                blocks = _blocks(gauge, comp, t)
                if blocks is not None:
                    accumulate(acc, mu_r, tensor_terms(blocks), True)
            el = Element(acc, spec.characteristic)
            if not el.is_zero():
                table[t] = el
        if table:
            new_tables[d] = table
    return AInfStructure(spec, cat, order, new_tables)


def gauge_compose(second, first, up_to=12):
    """The composite gauge, first then second: (second o first)^d is the sum
    of second^r over first-blocks, no signs, through arity up_to; the test
    of gauge_apply's functoriality composes with it."""
    spec, cat = first.spec, first.cat
    parts = tuple(sorted({1, *first.supports()}))
    components = {}
    gens = cat.nonidentity_generators()
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
                    accumulate(acc, second_r, tensor_terms(blocks))
            el = Element(acc, spec.characteristic)
            if not el.is_zero():
                table[t] = el
        if table:
            components[d] = table
    return GaugeTransformation(spec, cat, components)


def gerst_compose(phi, psi, alg):
    cat = alg.cat
    r_out = phi.r + psi.r - 1
    sign_flip = psi.shifted_degree == 1
    out = {}
    for t in cat.tuples(r_out, cat.nonidentity_generators()):
        degs = [cat.deg(n) for n in t]
        acc = {}
        eps = 0
        for n in range(phi.r):
            lo = r_out - n - psi.r
            inner = psi.table.get(t[lo: r_out - n])
            if inner is not None:
                head, tail = t[:lo], t[r_out - n:]
                accumulate(acc, phi.table,
                           ((head + (g,) + tail, c) for g, c in inner.terms.items()),
                           sign_flip and eps % 2)
            if n < r_out:
                eps += degs[r_out - 1 - n] - 1
        el = Element(acc, alg.spec.characteristic)
        if not el.is_zero():
            out[t] = el
    return Cochain(r_out, phi.s + psi.s, out)


def cochain_basis(alg, r, s):
    """Every composable r-tuple, kept with each output generator of its
    source, target and degree sum + s."""
    cat = alg.cat
    if r == 0:
        return [(obj, g) for obj in cat.objects for g in cat.gens_from(obj)
                if cat.target(g) == obj and cat.deg(g) == s]
    out = []
    for t in cat.tuples(r, cat.nonidentity_generators()):
        want = sum(cat.deg(n) for n in t) + s
        for g in cat.gens_from(cat.source(t[-1])):
            if cat.target(g) == cat.target(t[0]) and cat.deg(g) == want:
                out.append((t, g))
    return out


def cochain_to_vector(phi, basis) -> dict:
    """phi's values by index in a basis list (or any sequence of row keys
    in index order); ValueError on a key outside it."""
    index = {b: i for i, b in enumerate(basis)}
    vec = {}
    for key, el in phi.table.items():
        for g, c in el.terms.items():
            i = index.get((key, g))
            if i is None:
                raise ValueError(f"cochain entry ({key}, {g}) outside basis")
            vec[i] = c
    return vec


def delta_matrix(alg, r, s):
    """The delta matrix with the oracle bases, its rows assembled over
    every composable (r+1)-tuple."""
    cat, p = alg.cat, alg.spec.characteristic
    col_basis = cochain_basis(alg, r, s)
    row_basis = cochain_basis(alg, r + 1, s)
    col_index = {b: i for i, b in enumerate(col_basis)}
    row_index = {b: i for i, b in enumerate(row_basis)}
    columns = [dict() for _ in col_basis]
    flip_phi = (r + s - 1) % 2 == 1
    mu2 = alg.tables[2]

    def add(j, i, value):
        cell = columns[j]
        new = scalars.canon(cell.get(i, 0) + value, p)
        if new:
            cell[i] = new
        else:
            cell.pop(i, None)

    for t in cat.tuples(r + 1, cat.nonidentity_generators()):
        degs = [cat.deg(n) for n in t]
        if r == 0:
            slots = ((cat.source(t[0]), "right"), (cat.target(t[0]), "left"))
        else:
            slots = ((t[1:], "right"), (t[:-1], "left"))
        for key, side in slots:
            for h in cat.gens_from(cat.source(key[-1]) if r else key):
                j = col_index.get((key, h))
                if j is None:
                    continue
                if side == "right":
                    el = mu2.get((t[0], h), ZERO)
                    negate = False
                else:
                    el = mu2.get((h, t[-1]), ZERO)
                    negate = flip_phi and (degs[-1] - 1) % 2 == 1
                for g, c in el.terms.items():
                    i = row_index.get((t, g))
                    if i is not None:
                        add(j, i, -c if negate else c)
        if r >= 1:
            eps = 0
            for n in range(r):
                lo = r - 1 - n
                inner = mu2.get((t[lo], t[lo + 1]))
                if inner is not None:
                    head, tail = t[:lo], t[lo + 2:]
                    negate = (1 + (1 if flip_phi else 0) + eps) % 2 == 1
                    for g, c in inner.terms.items():
                        slot = head + (g,) + tail
                        for h in cat.gens_from(cat.source(slot[-1])):
                            j = col_index.get((slot, h))
                            if j is None:
                                continue
                            i = row_index.get((t, h))
                            if i is not None:
                                add(j, i, -c if negate else c)
                eps += degs[r - n] - 1
    return col_basis, row_basis, columns


def pattern_by_rows(cat, slot_of, r, s, col_basis, row_basis):
    """hochschild._pattern's (column, row, slot) triples by the row walk:
    every row's tuple tests each column key one letter shorter and each
    adjacent pair of its letters against slot_of ({mu^2 key: [(output,
    +slot, -slot)]}), in the order of the row basis."""
    cols, rows = {}, {}
    for index, basis in ((cols, col_basis), (rows, row_basis)):
        for i, (key, g) in enumerate(basis):
            index.setdefault(key, {})[g] = i
    deg = {n: g.degree for n, g in cat.generators.items()}
    flip_phi = (r + s - 1) % 2 == 1
    out = []
    for t, row_of in rows.items():
        if r == 0:
            sides = ((cat.source(t[0]), "right"), (cat.target(t[0]), "left"))
        else:
            sides = ((t[1:], "right"), (t[:-1], "left"))
        for key, side in sides:
            for h, j in cols.get(key, {}).items():
                if side == "right":
                    terms = slot_of.get((t[0], h), ())
                    negate = False
                else:
                    terms = slot_of.get((h, t[-1]), ())
                    negate = flip_phi and (deg[t[-1]] - 1) % 2 == 1
                for g, plus, minus in terms:
                    i = row_of.get(g)
                    if i is not None:
                        out.append((j, i, minus if negate else plus))
        if r >= 1:
            eps = 0
            for n in range(r):
                lo = r - 1 - n
                inner = slot_of.get((t[lo], t[lo + 1]))
                if inner is not None:
                    head, tail = t[:lo], t[lo + 2:]
                    negate = (1 + (1 if flip_phi else 0) + eps) % 2 == 1
                    for g, plus, minus in inner:
                        for h, j in cols.get(head + (g,) + tail, {}).items():
                            i = row_of.get(h)
                            if i is not None:
                                out.append((j, i, minus if negate else plus))
                eps += deg[t[r - n]] - 1
    return out


def transfer(split, order):
    amb = split.ambient
    cat = split.harmonic
    mu2, p = amb.tables.get(2, {}), amb.spec.characteristic
    iota = {1: {(g,): split.incl[g] for g in cat.generators}}
    mu = {}
    for d in range(2, order + 1):
        iota[d] = {}
        mu[d] = {}
        alphabet = None if d == 2 else cat.nonidentity_generators()
        for names in cat.tuples(d, alphabet):
            total = ZERO
            for m in range(1, d):
                left = iota[d - m].get(names[: d - m])
                right = iota[m].get(names[d - m:])
                if left is None or left.is_zero() or right is None or right.is_zero():
                    continue
                total = total + Element(accumulate({}, mu2, tensor_terms([left, right])), p)
            if total.is_zero():
                continue
            t_img = _apply_linear(split.homotopy, total)
            if not t_img.is_zero():
                iota[d][names] = t_img
            p_img = _apply_linear(split.proj, total)
            if not p_img.is_zero():
                mu[d][names] = p_img
        if not mu[d]:
            del mu[d]
    return TransferResult(AInfStructure(amb.spec, cat, order, mu), iota, amb.cat)


# -- the polygon census in Fractions ----------------------------------------

CROSS_HIGH = Fraction(5, 8)   # the pushoff's degree-1 crossing with gamma1

def _w_piece(t, side=1):
    """(base, t0, v0, slope) of the pushoff profile's piece holding height
    t, base being t moved into the period [1/8, 9/8] of the knots.

    Side +1 reads the piece [t0, t1) holding t, side -1 the piece (t0, t1];
    so at a knot the two sides see the two pieces meeting there."""
    if side > 0:
        base = (t - CROSS_LOW) % 1 + CROSS_LOW          # in [1/8, 9/8)
    else:
        base = CROSS_LOW + 1 - (CROSS_LOW - t) % 1      # in (1/8, 9/8]
    for (t0, v0), (t1, v1) in zip(_W_KNOTS, _W_KNOTS[1:]):
        if (t0 <= base < t1) if side > 0 else (t0 < base <= t1):
            return base, t0, v0, (v1 - v0) / (t1 - t0)
    raise AssertionError("unreachable")


def _w(t):
    """Pushoff displacement at height t (periodic PL interpolation)."""
    base, t0, v0, slope = _w_piece(t)
    return v0 + slope * (base - t0)


def curves_through(z):
    """The curves through z on the torus, in the order a census names
    them: gamma0 (y in Z), gamma1 (x in Z), gamma2 (x - y in 1/2 + Z) and
    the pushoff (x - w(y) in Z)."""
    x, y = z
    offsets = (("gamma0", y), ("gamma1", x), ("gamma2", x - y - Fraction(1, 2)),
               ("pushoff", x - _w(y)))
    return [name for name, v in offsets if v.denominator == 1]


@dataclass(frozen=True)
class CurveLift:
    """One lift of a scene curve to the universal cover, in Fractions.

    kind 'h': y = offset, parametrized by x
    kind 'v': x = offset, parametrized by y
    kind 'd': x - y = offset, parametrized by y
    kind 'p': x = offset + w(y), parametrized by y (pushoff of 'v')
    """

    kind: str
    offset: Fraction

    def point(self, t):
        if self.kind == "h":
            return (t, self.offset)
        if self.kind == "v":
            return (self.offset, t)
        if self.kind == "d":
            return (t + self.offset, t)
        return (self.offset + _w(t), t)

    def direction(self, t, travel, end=False):
        """Unit-free travel direction; travel=+1 means increasing param.
        For the pushoff the one-sided piece is the side the arc occupies."""
        if self.kind == "h":
            return (Fraction(travel), Fraction(0))
        if self.kind == "v":
            return (Fraction(0), Fraction(travel))
        if self.kind == "d":
            return (Fraction(travel), Fraction(travel))
        slope = _w_piece(t, -travel if end else travel)[3]
        return (travel * slope, Fraction(travel))

    def segments(self, t0, t1):
        """PL segments tracing the arc from param t0 to t1."""
        if self.kind != "p":
            return [(self.point(t0), self.point(t1))]
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        knots = [lo]
        k = Fraction(int(lo) - 1)
        while k < hi + 1:
            for brk, _ in _W_KNOTS[:-1]:
                tk = brk + k
                if lo < tk < hi:
                    knots.append(tk)
            k += 1
        knots.append(hi)
        knots = sorted(set(knots))
        if t0 > t1:
            knots.reverse()
        pts = [self.point(t) for t in knots]
        return list(zip(pts, pts[1:]))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b):
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]) and _cross(a, b, p) == 0)


def segments_intersect(a, b, c, d):
    """Closed segments ab and cd meet, by cross products alone."""
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    for p, (s0, s1) in ((a, (c, d)), (b, (c, d)), (c, (a, b)), (d, (a, b))):
        if _on_segment(p, s0, s1):
            return True
    return False


def point_in_polygon(p, segments):
    """Strict interior test by horizontal ray casting; the caller must have
    excluded boundary points."""
    x, y = p
    inside = False
    for (x0, y0), (x1, y1) in segments:
        if (y0 > y) != (y1 > y):
            xi = x0 + (x1 - x0) * (y - y0) / (y1 - y0)
            if xi > x:
                inside = not inside
    return inside


def count_lattice_points(pt, segments, bbox):
    """Lattice translates of pt strictly inside the PL polygon, one
    candidate of the bounding box at a time."""
    (xmin, xmax), (ymin, ymax) = bbox
    px, py = pt
    count = 0
    i = int(xmin - px) - 1
    while px + i <= xmax:
        j = int(ymin - py) - 1
        while py + j <= ymax:
            cand = (px + i, py + j)
            if xmin < cand[0] < xmax and ymin < cand[1] < ymax:
                for s0, s1 in segments:
                    if _on_segment(cand, s0, s1):
                        raise AssertionError(f"marked point ({cand[0]}, {cand[1]}) "
                                             "on boundary")
                if point_in_polygon(cand, segments):
                    count += 1
            j += 1
        i += 1
    return count


def scanline_count(pt, segments, bbox):
    """count_lattice_points by one scanline per row of the bounding box in
    Fractions, every segment tested against every row, as the program once
    did: fast enough for whole censuses."""
    (xmin, xmax), (ymin, ymax) = bbox
    px, py = pt
    i_min = floor(xmin - px) + 1
    count = 0
    on_boundary = []
    for j in range(floor(ymin - py) + 1, ceil(ymax - py)):
        y = py + j
        crossings = []
        for (x0, y0), (x1, y1) in segments:
            if (y0 > y) != (y1 > y):
                lo = hi = x0 + (x1 - x0) * (y - y0) / (y1 - y0)
                crossings.append(lo)
            elif y0 == y == y1:
                lo, hi = min(x0, x1), max(x0, x1)
            elif y0 == y:
                lo = hi = x0
            elif y1 == y:
                lo = hi = x1
            else:
                continue
            i = max(ceil(lo - px), i_min)
            if px + i <= hi and px + i < xmax:
                on_boundary.append((px + i, y))
        crossings.sort()
        for a, b in zip(crossings[::2], crossings[1::2]):
            count += max(0, ceil(b - px) - floor(a - px) - 1)
    if on_boundary:
        x, y = min(on_boundary)
        raise AssertionError(f"marked point ({x}, {y}) on boundary")
    return count


def _count_lattice_points(pt, segments, bbox, n):
    """Translates of pt by (nZ)^2 strictly inside the closed PL polygon,
    every coordinate an int.  A segment meets only the rows y = pt_y + jn
    in its height range strictly inside the bounding box, crossing them from
    its lower end up to, not including, its upper end (the half-open rule
    of even-odd ray casting): O(rows + segments).  Each crossing is kept as
    the floor and ceiling of (x - pt_x)/n; sorted by row and these (ties
    agree on every count), they pair up into the interior intervals.  A
    translate strictly inside the bounding box on a segment raises
    AssertionError, naming the least such point in (x, y) order."""
    (xmin, xmax), (ymin, ymax) = bbox
    px, py = pt
    i_min = (xmin - px) // n + 1            # least i with px + i n > xmin
    j_min, j_end = (ymin - py) // n + 1, -((py - ymax) // n)
    crossings, on_boundary = [], []

    def touch(lo, hi, y):
        # the least translate in [lo, hi] strictly inside the box, if any
        x = px + max(-((px - lo) // n), i_min) * n
        if x <= hi and x < xmax:
            on_boundary.append((x, y))

    for (x0, y0), (x1, y1) in segments:
        (xa, ya), (xb, yb) = ((x0, y0), (x1, y1)) if y0 < y1 else ((x1, y1), (x0, y0))
        if (yb - py) % n == 0 and ymin < yb < ymax:
            # on a row: the upper end, or all of a horizontal segment
            lo, hi = sorted((xa, xb)) if ya == yb else (xb, xb)
            touch(lo, hi, yb)
        dy = yb - ya
        for j in range(max(-((py - ya) // n), j_min), min(-((py - yb) // n), j_end)):
            # (x - px) dy at the crossing with row j, over n dy
            f, rest = divmod((xa - px) * dy + (xb - xa) * (py + j * n - ya), n * dy)
            crossings.append((j, f, f + (rest != 0)))
            if not rest:
                touch(px + f * n, px + f * n, py + j * n)
    if on_boundary:
        x, y = min(on_boundary)
        raise AssertionError(f"marked point ({Fraction(x, n)}, {Fraction(y, n)}) on boundary")
    # every row holds an even number of crossings, so pairs never straddle rows
    crossings.sort()
    return sum(max(0, b[2] - a[1] - 1) for a, b in zip(crossings[::2], crossings[1::2]))


def star_count(lo, hi, star):
    """The translates star + k strictly inside (lo, hi), enumerated;
    AssertionError when one sits at either end."""
    translates = [star + k for k in range(floor(lo - star) - 1, ceil(hi - star) + 2)]
    if lo in translates or hi in translates:
        raise AssertionError("star sits on an arc endpoint")
    return sum(lo < x < hi for x in translates)


class FractionWitness:
    """A witness of the Fraction census: PolygonWitness's fields in
    Fractions, with the boundary segments it built in place of the lifts."""

    def __init__(self, corners, points, arcs, boundary, z_count, star_count, q, r, wraps):
        self.corners, self.points, self.arcs = corners, points, arcs
        self.boundary, self.z_count, self.star_count = boundary, z_count, star_count
        self.q, self.r, self.wraps = q, r, wraps


def build_witness(scene, names, lifts, params, corner_names, wrap_bound):
    """The census's candidate test in Fractions, with the oracle kernels:
    wrap counts, convex corners, an embedded boundary, then the lattice
    count; a FractionWitness or None."""
    d1 = len(names)
    travels = []
    wraps = []
    for t_from, t_to in params:
        if t_from == t_to:
            return None
        travels.append(1 if t_to > t_from else -1)
        span = abs(t_to - t_from)
        if span == int(span):
            raise AssertionError("arc length ambiguous for wrap count")
        wraps.append(int(span))
    if max(wraps) > wrap_bound:
        return None
    for k in range(d1):
        d_in = lifts[k - 1].direction(params[k - 1][1], travels[k - 1], end=True)
        d_out = lifts[k].direction(params[k][0], travels[k])
        if d_in[0] * d_out[1] - d_in[1] * d_out[0] <= 0:
            return None
    arcs = []
    all_segments = []
    seg_by_arc = []
    for k in range(d1):
        t_from, t_to = params[k]
        segs = lifts[k].segments(t_from, t_to)
        if lifts[k].kind == "p":
            positive = travels[k] == 1
        else:
            positive = travels[k] == scene.curves[names[k]].orientation
        arcs.append((names[k], t_from, t_to, travels[k], positive))
        seg_by_arc.append(segs)
        all_segments.extend(segs)
    for i in range(d1):
        for j in range(i + 1, d1):
            adjacent = (j == i + 1) or (i == 0 and j == d1 - 1)
            for si in seg_by_arc[i]:
                for sj in seg_by_arc[j]:
                    if not segments_intersect(*si, *sj):
                        continue
                    if not adjacent:
                        return None
                    corner = seg_by_arc[j][0][0] if j == i + 1 else seg_by_arc[i][0][0]
                    if {si[0], si[1]} & {sj[0], sj[1]} != {corner}:
                        return None
    if sum((x0 * y1 - x1 * y0) for (x0, y0), (x1, y1) in all_segments) <= 0:
        return None
    idx = [scene.maslov[c] for c in corner_names]
    d = d1 - 1
    if idx[0] != sum(idx[1:]) + 2 - d:
        raise AssertionError(f"degree relation fails for {corner_names}")
    star_total = 0
    for name, t_from, t_to, _, _ in arcs:
        star = scene.pushoff_star if name == "pushoff" else scene.curves[name].star
        star_total += star_count(min(t_from, t_to), max(t_from, t_to), star)
    q = 0 if arcs[-1][4] else idx[0] + idx[d]
    r = sum(idx[k] for k in range(1, d) if not arcs[k][4])
    xs = [x for seg in all_segments for (x, _) in seg]
    ys = [y for seg in all_segments for (_, y) in seg]
    bbox = ((min(xs), max(xs)), (min(ys), max(ys)))
    z_count = scanline_count(scene.z, all_segments, bbox)
    points = [lifts[k].point(params[k][0]) for k in range(d1)]
    return FractionWitness(list(corner_names), points, arcs, all_segments, z_count,
                           star_total, q, r, wraps)


def _within(witnesses, wrap_bound):
    return [w for w in witnesses if w is not None and max(w.wraps) <= wrap_bound]


def _lift(scene, name, offset):
    return CurveLift(scene.curves[name].kind, Fraction(offset))


def triangle_witnesses(scene, wrap_bound):
    """The triangle census in Fractions, every candidate of the parameter
    square built before the wrap filter."""
    g1, g0 = _lift(scene, "gamma1", 0), _lift(scene, "gamma0", 0)
    out = []
    c = Fraction(1, 2) - (wrap_bound + 2)
    while c <= wrap_bound + 2:
        params = [(-c, Fraction(0)), (c, Fraction(0)), (Fraction(0), -c)]
        out.append(build_witness(scene, ["gamma2", "gamma0", "gamma1"],
                                 [_lift(scene, "gamma2", c), g0, g1],
                                 params, ["e21", "e20", "e01"], inf))
        c += 1
    return _within(out, wrap_bound)


def quad_witnesses(scene, wrap_bound):
    """The quadrilateral census in Fractions, every candidate of the
    parameter square built before the wrap filter."""
    g1 = _lift(scene, "gamma1", 0)
    push = CurveLift("p", Fraction(0))
    bound = wrap_bound + 2
    out = []
    for cross_name, cross_t in (("x_id", CROSS_LOW), ("x_top", CROSS_HIGH)):
        c = Fraction(1, 2) - bound
        while c <= bound:
            for m in range(-bound, bound + 1):
                params = [(cross_t, -c), (-c, Fraction(m)),
                          (Fraction(m) + c, _w(Fraction(m))), (Fraction(m), cross_t)]
                out.append(build_witness(
                    scene, ["gamma1", "gamma2", "gamma0", "pushoff"],
                    [g1, _lift(scene, "gamma2", c), _lift(scene, "gamma0", m), push],
                    params, [cross_name, "e12", "e20", "e01"], inf))
            c += 1
    return _within(out, wrap_bound)


def enumerate_polygons(scene, inputs, wrap_bound):
    """The program's witnesses for a named product; inputs are the
    mu-arguments (a_d, ..., a_1) in composition order."""
    inputs = tuple(inputs)
    if inputs == ("e01", "e20"):
        return polygons.triangle_witnesses(scene, wrap_bound)
    if inputs == ("e01", "e20", "e12"):
        return polygons.quad_witnesses(scene, wrap_bound)
    raise ValueError(f"no enumerator for input tuple {inputs}")


def mu2_series(scene, wrap_bound):
    """The program's signed U-weighted triangle count: coefficient series
    of the output generator of the double product."""
    return polygons._signed_count(polygons.triangle_witnesses(scene, wrap_bound),
                                  wrap_bound)


def fraction_reduce(self, col):
    """Echelon._reduce without the step that turns an integral Q residual
    entry into an int."""
    v = {r: a for r, a in col.items() if a}
    mult = {}
    slot = self._slot
    heap = [slot[r] for r in v if r in slot]
    if not heap:
        return v, mult
    heapify(heap)
    rows, basis = self._rows, self._basis
    p = self.p
    get = v.get
    while heap:
        k = heappop(heap)
        f = get(rows[k])
        if not f:
            continue
        mult[k] = f
        for r, a in basis[k].items():
            nv = get(r, 0) - f * a
            if p:
                nv %= p
            if nv:
                if r not in v and r in slot:
                    heappush(heap, slot[r])
                v[r] = nv
            else:
                del v[r]
    return v, mult


def fraction_values(mp):
    """Within the monkeypatch context mp, run the program with every Q
    value a Fraction: the canonical form of scalars (which canonical, canon
    and divide read when called) and Echelon's reduction; the reference
    caches start empty, so no value made before is reused."""
    mp.setattr(scalars, "_rational", Fraction)
    mp.setattr(hochschild, "_CELLS", {})
    mp.setattr(hochschild, "_SQUARES_ZERO", {})
    mp.setattr(Echelon, "_reduce", fraction_reduce)


def find_reference(alg, r, s):
    """The first kernel vector of delta at (r, s) outside the image of
    delta from (r-1, s), scanned after the whole kernel basis is built,
    both matrices this module's, their rows in basis order."""
    p = alg.spec.characteristic
    cols, rows, matrix = delta_matrix(alg, r, s)
    kernel = nullspace(matrix, len(cols), p)
    below = delta_matrix(alg, r - 1, s)[2]
    image = Echelon(below, p)
    for vec in kernel:
        if image.residual({i: v for i, v in enumerate(vec) if v}):
            return vector_to_cochain(vec, cols, r, s, alg.spec)
    raise ValueError(f"HH at (r={r}, s={s}) vanishes; no reference cocycle")


def bracket_first_solve(phi, alg, not_cocycle, solve):
    """hochschild.solve_first as the program once ran it: the bracket
    first, then the solve."""
    if not hochschild.coboundary(phi, alg).is_zero():
        raise not_cocycle
    return solve()


def bracket_first(mp):
    """Within the monkeypatch context mp, bracket every cochain before its
    solve, at each module that binds the solve."""
    for mod in (hochschild, gauge):
        mp.setattr(mod, "solve_first", bracket_first_solve)


def class_coordinate(phi, reference, alg):
    """c with phi = c * reference + delta(nu): this module's delta matrix
    from (r-1, s), rows in basis order, the reference's column appended, one solve, and c its last
    unknown."""
    cols, rows, matrix = delta_matrix(alg, phi.r - 1, phi.s)
    columns = matrix + [cochain_to_vector(reference, rows)]
    x = linalg.solve(columns, len(cols) + 1, cochain_to_vector(phi, rows),
                     alg.spec.characteristic)
    if x is None:
        raise ValueError("phi is not cohomologous to a multiple of the reference")
    return x[-1]


def weight_one(mp):
    """Within the monkeypatch context mp, bind gauge_apply,
    extract_invariants and mc_extend to the inner functions that compute
    on the tables as given (t = 1), also where kill_orders calls
    gauge_apply."""
    for name in ("gauge_apply", "extract_invariants", "mc_extend"):
        mp.setattr(gauge, name, getattr(gauge, "_" + name))


def sequential_invariants(mu):
    """gauge._extract_invariants by elementary steps: each order of
    gauge._NORMAL_FORM is killed by its own kill_orders, a full gauge
    action, and each other order d <= 8 has its class read off the
    structure as gauged so far."""
    cur, coords = mu, {}
    for d in range(3, 9):
        if d in gauge._NORMAL_FORM:
            _, cur = gauge.kill_orders(cur, (d,))
            continue
        phi = hochschild.mu_cochain(cur, d)
        coords[d] = hochschild.solve_first(phi, cur, AssertionError(
            f"mu^{d} failed to be a cocycle after gauge fixing"),
            lambda: hochschild.class_coordinate(phi, cur))
    return gauge.DeformationClass(coords[6], coords[8],
                                  hochschild.reference_cocycle(cur, 6, -4),
                                  hochschild.reference_cocycle(cur, 8, -6))


def partition_count(n):
    """The partitions of n, counted by recursion over the largest part;
    deliberately naive, so it shares nothing with the pentagonal-number
    series it checks."""
    def count(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(count(remaining - k, k) for k in range(min(remaining, max_part), 0, -1))

    return count(n, n)


class DividingEchelon(Echelon):
    """Echelon with the slow pivot insertion: the pivot row by the key
    (weight[r], r), computed per residual entry by a lambda, and the
    residual scaled by divide(1, pivot) with canon on every entry,
    whatever the pivot, 1 and -1 included."""

    def __init__(self, columns, p):
        self._weight = Counter(r for col in columns for r in col)
        super().__init__(columns, p)

    def _insert(self, j, residual, mult):
        weight, p = self._weight, self.p
        row = min(residual, key=lambda r: (weight[r], r))
        inv = scalars.divide(1, residual[row], p)
        self._slot[row] = len(self._rows)
        self._rows.append(row)
        self._basis.append({r: scalars.canon(a * inv, p) for r, a in residual.items()})
        self._steps.append(mult)
        self._inv.append(inv)
        self.pivots.append(j)


def determinant(rows):
    """The determinant of a square matrix given as dense integer rows:
    Gaussian elimination in Fractions, the first nonzero entry of each
    column as its pivot, a sign flip per row swap."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        i = next((i for i in range(k, len(m)) if m[i][k]), None)
        if i is None:
            return 0
        if i != k:
            m[k], m[i] = m[i], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            row[k:] = [a - f * b for a, b in zip(row[k:], m[k][k:])]
    return det


def check_unital(struct):
    """Strict unitality of mu^2 against the designated identities:
    AssertionError naming the first generator where it fails."""
    cat = struct.cat
    mu2, p = struct.tables.get(2, {}), struct.spec.characteristic

    def mu2_of(x, y):
        return Element(accumulate({}, mu2, tensor_terms([x, y])), p)

    for name, g in cat.generators.items():
        el = Element.single(name, 1, p)
        if mu2_of(el, cat.identities[g.source]) != el:
            raise AssertionError(f"mu2({name}, id) != {name}")
        want = el if g.degree % 2 == 0 else -el
        if mu2_of(cat.identities[g.target], el) != want:
            raise AssertionError(f"mu2(id, {name}) != (-1)^|x| {name}")


def euler_cochain(alg):
    """Degree derivation e(x) = deg(x) x, a length-1 cocycle of degree 0."""
    table = {}
    for n in alg.cat.nonidentity_generators():
        d = alg.cat.deg(n)
        if d:
            table[(n,)] = Element.single(n, d, alg.spec.characteristic)
    return Cochain(1, 0, table)


# -- code only the tests call ------------------------------------------------


def preset_D(spec: FieldSpec, truncation: int = 12) -> AInfStructure:
    """Sixteen-generator simplicial dg model: each object's self-homs are
    cochains on a 3-vertex triangulated circle, the two circles glued over
    one intersection point.  Identities are the vertex sums x0+x1+x2 and
    y0+y1+y2; the smaller preset_C sits inside it as a dg subcategory."""
    def circle(p):  # vertices p0,p1,p2 and edges p01,p12,p02
        return [f"{p}0", f"{p}1", f"{p}2", f"{p}01", f"{p}12", f"{p}02"]

    gens = []
    for obj, p in (("a", "x"), ("b", "y")):
        for n in circle(p):
            gens.append(Generator(n, obj, obj, 0 if len(n) == 2 else 1))
    gens += [
        Generator("v0", "b", "a", 0),
        Generator("v1", "b", "a", 0),
        Generator("v01", "b", "a", 1),
        Generator("u01", "a", "b", 1),
    ]
    p = spec.characteristic
    cat = QuiverCategory(
        ["a", "b"], gens,
        {
            "a": Element({"x0": 1, "x1": 1, "x2": 1}, p),
            "b": Element({"y0": 1, "y1": 1, "y2": 1}, p),
        },
    )
    mu1_entries = []
    for p in ("x", "y"):
        mu1_entries += [
            ((f"{p}0",), [(-1, f"{p}01"), (-1, f"{p}02")]),
            ((f"{p}1",), [(1, f"{p}01"), (-1, f"{p}12")]),
            ((f"{p}2",), [(1, f"{p}12"), (1, f"{p}02")]),
        ]
    mu1_entries += [
        (("v0",), [(-1, "v01")]),
        (("v1",), [(1, "v01")]),
    ]
    mu2_entries = []
    for p in ("x", "y"):
        mu2_entries += [
            ((f"{p}0", f"{p}0"), [(1, f"{p}0")]),
            ((f"{p}1", f"{p}1"), [(1, f"{p}1")]),
            ((f"{p}2", f"{p}2"), [(1, f"{p}2")]),
            ((f"{p}0", f"{p}01"), [(-1, f"{p}01")]),
            ((f"{p}01", f"{p}1"), [(1, f"{p}01")]),
            ((f"{p}1", f"{p}12"), [(-1, f"{p}12")]),
            ((f"{p}12", f"{p}2"), [(1, f"{p}12")]),
            ((f"{p}0", f"{p}02"), [(-1, f"{p}02")]),
            ((f"{p}02", f"{p}2"), [(1, f"{p}02")]),
        ]
    mu2_entries += [
        (("v0", "y0"), [(1, "v0")]),
        (("v1", "y1"), [(1, "v1")]),
        (("v01", "y1"), [(1, "v01")]),
        (("v0", "y01"), [(-1, "v01")]),
        (("x0", "v0"), [(1, "v0")]),
        (("x1", "v1"), [(1, "v1")]),
        (("x01", "v1"), [(1, "v01")]),
        (("x0", "v01"), [(-1, "v01")]),
        (("y0", "u01"), [(-1, "u01")]),
        (("u01", "x1"), [(1, "u01")]),
        (("v0", "u01"), [(-1, "x01")]),
        (("u01", "v1"), [(1, "y01")]),
    ]
    mu1 = _table(spec, mu1_entries)
    mu2 = _table(spec, mu2_entries)
    return AInfStructure(spec, cat, truncation, {1: mu1, 2: mu2})


def mu1_cohomology_dims(struct):
    """Cohomology of (hom-spaces, mu^1) per (source, target, degree).

    Only meaningful for dg structures; used to confirm that a dg
    inclusion is a quasi-isomorphism by comparing dimension tables.
    """
    by_slot: dict[tuple, list[str]] = {}
    for n, g in struct.cat.generators.items():
        by_slot.setdefault((g.degree, (g.source, g.target)), []).append(n)
    mu1, p = struct.tables.get(1, {}), struct.spec.characteristic
    # the mu^1 images of a slot's generators, keyed by output name, span
    # the image of the block from degree deg to deg + 1
    dims = cohomology_dims({slot: (len(names), rank([mu1.get((n,), ZERO).terms
                                                     for n in names], p))
                            for slot, names in by_slot.items()})
    return dict(sorted(((src, tgt, deg), dim) for (deg, (src, tgt)), dim in dims.items()))


class SkoldbergComplex:
    """Primal resolution terms and differentials, in explicit bases.

    P_j basis: (x, which, y) with x, y in the 6-element basis of A,
    which in {0,1} picking beta_j/gamma_j, subject to the S-tensor
    matching source(x) = target(word) and source(word) = target(y).
    """

    def __init__(self, spec: FieldSpec, j_max: int):
        self.spec = spec
        self.j_max = j_max
        self.bases = [self._basis(j) for j in range(j_max + 1)]

    @staticmethod
    def _basis(j):
        out = []
        for which in (0, 1):
            src, tgt = _ends(j, which)
            for x, gx in A_GENERATORS.items():
                if gx.source != tgt:
                    continue
                for y, gy in A_GENERATORS.items():
                    if gy.target != src:
                        continue
                    out.append((x, which, y))
        return out

    def differential(self, j):
        """Matrix of p_j: P_j -> P_{j-1} as sparse columns over the bases."""
        assert 1 <= j <= self.j_max
        target_index = {b: i for i, b in enumerate(self.bases[j - 1])}
        p = self.spec.characteristic
        splits = (_split(j, 0), _split(j, 1))
        cols = []
        for (x, which, y) in self.bases[j]:
            col: dict[int, object] = {}
            for left, which2, right, sign in splits[which]:
                x2 = _assoc_mul_A(x, left) if left else x
                y2 = _assoc_mul_A(right, y) if right else y
                if x2 and y2:
                    i = target_index[(x2, which2, y2)]
                    col[i] = col.get(i, 0) + sign
            cols.append(canonical(col, p))
        return cols

    def augmentation(self):
        """epsilon: P_0 -> A, x (x) y -> xy, as sparse columns over the
        A-basis enumerated in A_GENERATORS order."""
        a_index = {g: i for i, g in enumerate(A_GENERATORS)}
        cols = []
        for (x, which, y) in self.bases[0]:
            prod = _assoc_mul_A(x, y)
            cols.append({a_index[prod]: 1} if prod else {})
        return cols

    def verify_composites(self):
        """p_j o p_{j+1} = 0 for all computed steps, and epsilon o p_1 = 0."""
        p = self.spec.characteristic

        def compose(left_cols, right_cols):
            out = []
            for col in right_cols:
                acc: dict[int, object] = {}
                for row, val in col.items():
                    for row2, val2 in left_cols[row].items():
                        acc[row2] = acc.get(row2, 0) + val * val2
                out.append(canonical(acc, p))
            return out

        steps = [self.differential(j) for j in range(1, self.j_max + 1)]
        if any(c for c in compose(self.augmentation(), steps[0])):
            return False
        for j in range(1, self.j_max):
            if any(c for c in compose(steps[j - 1], steps[j])):
                return False
        return True


def skoldberg_check(spec: FieldSpec, j_max: int = 12) -> bool:
    """p o p = 0 and epsilon o p_1 = 0 on the primal resolution."""
    return SkoldbergComplex(spec, j_max).verify_composites()


def series_mul(a: TruncatedUSeries, b: TruncatedUSeries) -> TruncatedUSeries:
    """Cauchy product modulo U^(N+1)."""
    n = a.order
    out = [0] * (n + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j in range(n + 1 - i):
            cb = b.coeffs[j]
            if cb:
                out[i + j] += ca * cb
    return TruncatedUSeries(out, n)


def series_inv(a: TruncatedUSeries) -> TruncatedUSeries:
    """Multiplicative inverse modulo U^(N+1); constant term must be a unit
    (over the integers that means +-1; Fraction coefficients invert exactly)."""
    c0 = a.coeffs[0]
    if not c0:
        raise ZeroDivisionError("constant term 0 is not invertible")
    if isinstance(c0, int):
        if c0 not in (1, -1):
            raise ZeroDivisionError(
                f"constant term {c0} is not invertible over the integers"
            )
        inv0 = c0
    else:
        inv0 = 1 / c0  # Fraction: exact
    n = a.order
    out = [0] * (n + 1)
    out[0] = inv0
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            if a.coeffs[i]:
                acc += a.coeffs[i] * out[k - i]
        out[k] = -inv0 * acc
    return TruncatedUSeries(out, n)


def scene_dump(scene: PolygonScene) -> str:
    """Line-oriented scene file: curves with kind/orientation/star offset,
    the basepoint, pushoff star and Maslov offsets, all exact rationals."""
    lines = ["SCENE"]
    for name in sorted(scene.curves):
        c = scene.curves[name]
        sign = "+1" if c.orientation > 0 else "-1"
        lines.append(f"curve {name} {c.kind} {sign} star {c.star}")
    lines.append(f"z {scene.z[0]} {scene.z[1]}")
    lines.append(f"pushoff_star {scene.pushoff_star}")
    for point in sorted(scene.maslov):
        lines.append(f"maslov {point} {scene.maslov[point]}")
    return "\n".join(lines) + "\n"
