"""Brute-force oracles for the fast paths of the program.

The product oracles loop over every composable tuple of each arity, as
the program once did, and evaluate it with the same sparse-table
evaluator. The tests compare the program's results with these: the same
keys, in the same order, with equal Elements.

The Hochschild oracles build each basis from every composable tuple and
assemble the delta matrix's rows over every composable tuple, as the
program once did.

The polygon oracles test every lattice translate in the bounding box one
point at a time, and every segment pair with cross products alone. The
census oracles build every candidate polygon in full, whatever its wrap
count, and only then keep those within the wrap bound, as the program
once did.

The rational oracles hold Q values as the program once did, every one a
Fraction, integral or not (``fraction_reduce`` and ``fraction_values``),
and find a reference cocycle from the whole kernel basis
(``find_reference``).

The class-coordinate oracle solves for the coordinate against a fresh
delta matrix with the reference's column appended, as the program once
did (``class_coordinate``).

``partition_count`` counts the partitions of n by direct enumeration.

The bracket-first oracles check every cochain with the bracket before
they solve for it, as the program once did (``bracket_first``).

The weight-one oracle runs gauge_apply, extract_invariants and mc_extend
on their inputs as given, with no rescaling, as the program once did
(``weight_one``).

The sequential-extraction oracle reads the invariants as the program once
did, one elementary gauge per killed order: kill_orders gauges away orders
3, 4 and 5, the class of mu^6 is read, order 7 is gauged away and the
class of mu^8 is read (``sequential_invariants``).
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import inf

from ainfbench import gauge, hochschild, linalg, scalars
from ainfbench.gauge import GaugeTransformation
from ainfbench.hochschild import Cochain, vector_to_cochain
from ainfbench.linalg import Echelon, nullspace
from ainfbench.perturbation import TransferResult, _apply_linear
from ainfbench.polygons import (CROSS_HIGH, CROSS_LOW, CurveLift, _build_witness,
                                _cross, _w)
from ainfbench.quiver import AInfStructure, Element, ZERO, accumulate, tensor_terms


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


def transfer(split, order):
    amb = split.ambient
    cat = split.harmonic
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
                total = total + amb.evaluate_elements(2, [left, right])
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


def _on_segment(p, a, b):
    if _cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


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
                        raise AssertionError(f"marked point {cand} on boundary")
                if point_in_polygon(cand, segments):
                    count += 1
            j += 1
        i += 1
    return count


def _within(witnesses, wrap_bound):
    return [w for w in witnesses if w is not None and max(w.wraps) <= wrap_bound]


def triangle_witnesses(scene, wrap_bound):
    """The triangle census, every candidate built before the wrap filter."""
    g1 = scene.curves["gamma1"].lift(0)
    g0 = scene.curves["gamma0"].lift(0)
    out = []
    c = Fraction(1, 2) - (wrap_bound + 2)
    while c <= wrap_bound + 2:
        params = [(-c, Fraction(0)), (c, Fraction(0)), (Fraction(0), -c)]
        out.append(_build_witness(scene, ["gamma2", "gamma0", "gamma1"],
                                  [scene.curves["gamma2"].lift(c), g0, g1],
                                  params, ["e21", "e20", "e01"], inf))
        c += 1
    return _within(out, wrap_bound)


def quad_witnesses(scene, wrap_bound):
    """The quadrilateral census, every candidate built before the wrap
    filter."""
    g1 = scene.curves["gamma1"].lift(0)
    push = CurveLift("p", Fraction(0))
    bound = wrap_bound + 2
    out = []
    for cross_name, cross_t in (("x_id", CROSS_LOW), ("x_top", CROSS_HIGH)):
        c = Fraction(1, 2) - bound
        while c <= bound:
            for m in range(-bound, bound + 1):
                params = [(cross_t, -c), (-c, Fraction(m)),
                          (Fraction(m) + c, _w(Fraction(m))), (Fraction(m), cross_t)]
                out.append(_build_witness(
                    scene, ["gamma1", "gamma2", "gamma0", "pushoff"],
                    [g1, scene.curves["gamma2"].lift(c),
                     scene.curves["gamma0"].lift(m), push],
                    params, [cross_name, "e12", "e20", "e01"], inf))
            c += 1
    return _within(out, wrap_bound)


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
    delta from (r-1, s), scanned after the whole kernel basis is built."""
    p = alg.spec.characteristic
    cols, rows, matrix = hochschild.delta_matrix(alg, r, s)
    kernel = nullspace(matrix, len(cols), p)
    below_cols, below_rows, below = hochschild.delta_matrix(alg, r - 1, s)
    image = Echelon(below, p, len(below_cols))
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
    """c with phi = c * reference + delta(nu): a fresh delta matrix from
    (r-1, s), the reference's column appended, one solve, and c its last
    unknown."""
    cols, rows, matrix = hochschild.delta_matrix(alg, phi.r - 1, phi.s)
    columns = matrix + [hochschild.cochain_to_vector(reference, rows)]
    x = linalg.solve(columns, len(cols) + 1, hochschild.cochain_to_vector(phi, rows),
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
    deliberately naive, so it shares nothing with the Euler product it
    checks."""
    def count(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(count(remaining - k, k) for k in range(min(remaining, max_part), 0, -1))

    return count(n, n)
