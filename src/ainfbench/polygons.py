"""Combinatorial disc counts on the marked torus, in the universal cover.

Three straight curves on R^2/Z^2 pairwise crossing once -- horizontal
(gamma0: y = 0, oriented +x), vertical (gamma1: x = 0, +y) and diagonal
(gamma2: x - y = 1/2, oriented along (-1,-1)) -- have pairwise homology
pairing +1, and the basepoint z = (3/4, 3/4) sits in the hexagonal face
of their complement.  Products of the intersection generators count
convex-cornered immersed polygons; each immersed polygon lifts to an
embedded convex-cornered polygon in R^2 bounded by single lifts of the
curves, so enumeration reduces to iterating over lift offsets.

A polygon through m lifts of z counts with weight U^m, and with sign
(-1)^(q+r+s): s boundary stars, while q and r add the Maslov indices of
corners whose following arc runs against the curve orientation (q for
the last arc, r for the middle ones).  Self-products of the vertical
curve use a piecewise-linear pushoff crossing it twice; only the
degree-0 crossing represents the identity.

Each candidate is checked in order of cost: its wrap count first (from
the arc parameters alone, so a candidate beyond the wrap bound builds no
geometry), then convex corners (from the arc directions), then an
embedded boundary (segment pairs with disjoint bounding boxes skipped
before any cross product), and only then are the translates of z inside
counted, one scanline per row of the lattice.  One census of triangles
and quadrilaterals gives all three criterion series (criterion_series).

All coordinates are exact rationals; star offsets are calibrated (and
frozen here) so the triangle count reproduces a vanishing product and
the quadrilateral count reproduces minus the theta series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Fr
from math import ceil, floor

from .useries import TruncatedUSeries, series_mul, partition_series

# pushoff profile: PL bump with these breakpoints, period 1
CROSS_LOW = Fr(1, 8)    # degree-0 crossing of the pushoff with gamma1
CROSS_HIGH = Fr(5, 8)   # degree-1 crossing
BUMP = Fr(1, 100)
_W_KNOTS = (
    (Fr(1, 8), Fr(0)),
    (Fr(3, 8), BUMP),
    (Fr(5, 8), Fr(0)),
    (Fr(7, 8), -BUMP),
    (Fr(9, 8), Fr(0)),
)


def _w_piece(t: Fr, side: int = 1):
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


def _w(t: Fr) -> Fr:
    """Pushoff displacement at height t (periodic PL interpolation)."""
    base, t0, v0, slope = _w_piece(t)
    return v0 + slope * (base - t0)


@dataclass(frozen=True)
class CurveLift:
    """One lift of a scene curve to the universal cover.

    kind 'h': y = offset, parametrized by x
    kind 'v': x = offset, parametrized by y
    kind 'd': x - y = offset, parametrized by y
    kind 'p': x = offset + w(y), parametrized by y (pushoff of 'v')
    """

    kind: str
    offset: Fr

    def point(self, t: Fr):
        if self.kind == "h":
            return (t, self.offset)
        if self.kind == "v":
            return (self.offset, t)
        if self.kind == "d":
            return (t + self.offset, t)
        return (self.offset + _w(t), t)

    def direction(self, t: Fr, travel: int, end: bool = False):
        """Unit-free travel direction; travel=+1 means increasing param.

        For the PL pushoff the one-sided piece is chosen from the side the
        arc actually occupies (ahead of the point when starting an arc,
        behind it when ending one)."""
        if self.kind == "h":
            return (Fr(travel), Fr(0))
        if self.kind == "v":
            return (Fr(0), Fr(travel))
        if self.kind == "d":
            return (Fr(travel), Fr(travel))
        slope = _w_piece(t, -travel if end else travel)[3]
        return (travel * slope, Fr(travel))

    def segments(self, t0: Fr, t1: Fr):
        """PL segments tracing the arc from param t0 to t1."""
        if self.kind != "p":
            return [(self.point(t0), self.point(t1))]
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        knots = [lo]
        k = Fr(int(lo) - 1)
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


@dataclass(frozen=True)
class SceneCurve:
    name: str
    kind: str            # 'h', 'v' or 'd'
    orientation: int     # +1: orientation = increasing parameter
    star: Fr             # parameter of the star (mod 1)

    def lift(self, offset) -> CurveLift:
        return CurveLift(self.kind, Fr(offset))


@dataclass
class PolygonScene:
    """Three oriented marked curves, the basepoint, the pushoff data and
    integer Maslov offsets for every intersection generator."""

    curves: dict
    z: tuple
    maslov: dict
    pushoff_star: Fr

    def homology_pairings(self):
        vectors = {"h": (1, 0), "v": (0, 1), "d": (1, 1)}

        def cls(c):
            vx, vy = vectors[c.kind]
            return (vx * c.orientation, vy * c.orientation)

        g0, g1, g2 = (self.curves[n] for n in ("gamma0", "gamma1", "gamma2"))
        def det(a, b):
            return a[0] * b[1] - a[1] * b[0]
        return (det(cls(g0), cls(g1)), det(cls(g1), cls(g2)),
                det(cls(g2), cls(g0)))

    def z_in_hexagon(self) -> bool:
        """The complement of the three curves has two triangular faces and
        one hexagonal face; within the fundamental square the triangles are
        x - y > 1/2 and x - y < -1/2, so z is hexagonal when |x - y| < 1/2
        after reduction (and off all three curves)."""
        x, y = self.z
        xf, yf = x % 1, y % 1
        if xf == 0 or yf == 0 or (xf - yf) % 1 == Fr(1, 2):
            return False
        return -Fr(1, 2) < xf - yf < Fr(1, 2)


def preset_scene() -> PolygonScene:
    """The frozen concrete scene (coordinates and star calibration)."""
    curves = {
        "gamma0": SceneCurve("gamma0", "h", +1, Fr(2, 3)),
        "gamma1": SceneCurve("gamma1", "v", +1, Fr(1, 4)),
        "gamma2": SceneCurve("gamma2", "d", -1, Fr(1, 3)),
    }
    maslov = {
        "e01": 0,   # gamma0 ^ gamma1 at (0, 0)
        "e12": 1,   # gamma1 ^ gamma2 at (0, 1/2)
        "e20": 0,   # gamma2 ^ gamma0 at (1/2, 0)
        "e21": 0,   # output of the triangle product, same point as e12
        "x_id": 0,  # pushoff ^ gamma1 at height 1/8: the identity
        "x_top": 1,  # pushoff ^ gamma1 at height 5/8
    }
    scene = PolygonScene(curves, (Fr(3, 4), Fr(3, 4)), maslov, Fr(1, 4))
    assert scene.homology_pairings() == (1, 1, 1)
    return scene


@dataclass
class PolygonWitness:
    """One deck-class of embedded convex-cornered lift."""

    corners: list         # corner names, y_0 first
    points: list          # exact corner coordinates (same order)
    arcs: list            # (curve name, t_from, t_to, travel, positive)
    boundary: list        # the arcs' PL segments in order, ((x, y), (x, y))
    z_count: int
    star_count: int
    q: int
    r: int
    wraps: list

    @property
    def sign(self) -> int:
        return -1 if (self.q + self.r + self.star_count) % 2 else 1


# ---------------------------------------------------------------------------
# exact plane geometry helpers
# ---------------------------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_box(p, a, b) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_intersect(a, b, c, d) -> bool:
    """Closed segments ab and cd meet; all comparisons exact."""
    # they can only meet where their bounding boxes overlap
    if (max(a[0], b[0]) < min(c[0], d[0]) or max(c[0], d[0]) < min(a[0], b[0])
            or max(a[1], b[1]) < min(c[1], d[1])
            or max(c[1], d[1]) < min(a[1], b[1])):
        return False
    d1 = _cross(c, d, a)
    d2 = _cross(c, d, b)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return False        # ab strictly on one side of the line cd
    d3 = _cross(a, b, c)
    d4 = _cross(a, b, d)
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return False
    if d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True         # a proper crossing
    # otherwise they meet where an end lies on the other segment
    return ((d1 == 0 and _in_box(a, c, d)) or (d2 == 0 and _in_box(b, c, d))
            or (d3 == 0 and _in_box(c, a, b)) or (d4 == 0 and _in_box(d, a, b)))


def _count_lattice_points(pt, segments, bbox):
    """Lattice translates of pt strictly inside the closed PL polygon.

    One pass per row y = pt_y + j strictly inside the bounding box: the
    segments with exactly one end above the row cross it (the half-open
    rule of even-odd ray casting); the sorted crossings pair up into the
    interior intervals, and floor/ceil count the translates inside each.
    A translate strictly inside the bounding box that lies on a segment
    -- at a crossing, at a vertex, or on a horizontal segment -- raises
    AssertionError, naming the least such point in (x, y) order."""
    (xmin, xmax), (ymin, ymax) = bbox
    px, py = pt
    i_min = floor(xmin - px) + 1     # least i with px + i > xmin
    count = 0
    on_boundary = []
    for j in range(floor(ymin - py) + 1, ceil(ymax - py)):
        y = py + j
        crossings = []
        for (x0, y0), (x1, y1) in segments:
            if (y0 > y) != (y1 > y):
                lo = hi = x0 + (x1 - x0) * (y - y0) / (y1 - y0)
                crossings.append(lo)
            elif y0 == y == y1:         # horizontal, along the row
                lo, hi = min(x0, x1), max(x0, x1)
            elif y0 == y:               # one end on the row, the other below
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
        raise AssertionError(f"marked point {min(on_boundary)} on boundary")
    return count


# ---------------------------------------------------------------------------
# witness assembly and validation
# ---------------------------------------------------------------------------

def _build_witness(scene, names, lifts, params, corner_names, wrap_bound):
    """Assemble and validate one candidate polygon.

    names[k] is the scene curve of arc k (from corner k to corner k+1);
    params[k] = (t_from, t_to) on lifts[k].  The checks run in order of
    cost: the wrap count of each arc against wrap_bound (parameters only),
    then convex corners (directions only), then an embedded boundary, and
    last the lattice count of z.  Returns a PolygonWitness, or None when
    any of these tests or a degeneracy test fails."""
    d1 = len(names)
    travels = []
    wraps = []
    # wrap counts first: they need only the parameters, so a candidate
    # beyond the bound is dropped before any geometry is built
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

    # convex corners: strict left turns between incoming and outgoing arcs;
    # tested before the PL arcs are built, because it needs only directions
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
            positive = travels[k] == 1  # pushoff inherits the +y orientation
        else:
            positive = travels[k] == scene.curves[names[k]].orientation
        arcs.append((names[k], t_from, t_to, travels[k], positive))
        seg_by_arc.append(segs)
        all_segments.extend(segs)

    # embedded boundary: non-adjacent arcs disjoint, adjacent share a corner
    for i in range(d1):
        for j in range(i + 1, d1):
            adjacent = (j == i + 1) or (i == 0 and j == d1 - 1)
            for si in seg_by_arc[i]:
                for sj in seg_by_arc[j]:
                    if not _segments_intersect(*si, *sj):
                        continue
                    if not adjacent:
                        return None
                    # the only allowed touching point is the shared corner
                    corner = seg_by_arc[j][0][0] if j == i + 1 else seg_by_arc[i][0][0]
                    ends = {si[0], si[1]} & {sj[0], sj[1]}
                    if ends != {corner}:
                        return None

    # counterclockwise: positive shoelace area
    area2 = sum((x0 * y1 - x1 * y0) for (x0, y0), (x1, y1) in all_segments)
    if area2 <= 0:
        return None

    # degree bookkeeping: i(y_0) = sum of input indices + 2 - d
    idx = [scene.maslov[c] for c in corner_names]
    d = d1 - 1
    if idx[0] != sum(idx[1:]) + 2 - d:
        raise AssertionError(f"degree relation fails for {corner_names}")

    # sign data: stars per arc, q and r from negative traversals
    star_total = 0
    for name, t_from, t_to, _, _ in arcs:
        star = scene.pushoff_star if name == "pushoff" else scene.curves[name].star
        star_total += _star_count(min(t_from, t_to), max(t_from, t_to), star)

    q = 0
    if not arcs[-1][4]:  # arc from y_d back to y_0
        q = idx[0] + idx[d]
    r = sum(idx[k] for k in range(1, d) if not arcs[k][4])

    xs = [x for seg in all_segments for (x, _) in seg]
    ys = [y for seg in all_segments for (_, y) in seg]
    bbox = ((min(xs), max(xs)), (min(ys), max(ys)))
    z_count = _count_lattice_points(scene.z, all_segments, bbox)
    points = [lifts[k].point(params[k][0]) for k in range(d1)]
    return PolygonWitness(list(corner_names), points, arcs, all_segments, z_count,
                          star_total, q, r, wraps)


def _star_count(lo: Fr, hi: Fr, star: Fr) -> int:
    """The stars star + k, k an integer, strictly inside the arc (lo, hi),
    lo < hi; AssertionError when one sits at either end."""
    if (lo - star).denominator == 1 or (hi - star).denominator == 1:
        raise AssertionError("star sits on an arc endpoint")
    return ceil(hi - star) - floor(lo - star) - 1


def triangle_witnesses(scene: PolygonScene, wrap_bound: int):
    """All deck-classes of triangles computing the composition of the
    gamma0^gamma1 and gamma2^gamma0 generators, sides wrapping at most
    wrap_bound times.  Normalization fixes the vertical and horizontal
    lifts; the diagonal offset is the surviving modulus."""
    out = []
    g1 = scene.curves["gamma1"].lift(0)
    g0 = scene.curves["gamma0"].lift(0)
    c = Fr(1, 2) - (wrap_bound + 2)
    while c <= wrap_bound + 2:
        g2 = scene.curves["gamma2"].lift(c)
        # corners: y0 = (0,-c) on gamma1^gamma2, y1 = (c,0) on gamma2^gamma0,
        # y2 = (0,0) on gamma0^gamma1
        params = [(-c, Fr(0)), (c, Fr(0)), (Fr(0), -c)]
        w = _build_witness(scene, ["gamma2", "gamma0", "gamma1"], [g2, g0, g1],
                           params, ["e21", "e20", "e01"], wrap_bound)
        if w is not None:
            out.append(w)
        c += 1
    return out


def quad_witnesses(scene: PolygonScene, wrap_bound: int):
    """All deck-classes of quadrilaterals computing the triple product
    whose output lies on the pushoff crossings; both crossings are
    enumerated, convexity keeps only the degree-0 one."""
    out = []
    g1 = scene.curves["gamma1"].lift(0)
    push = CurveLift("p", Fr(0))
    bound = wrap_bound + 2
    # what depends on m alone, or on c alone, is built once
    rows = [(Fr(m), _w(Fr(m)), scene.curves["gamma0"].lift(m))
            for m in range(-bound, bound + 1)]
    lifts2 = []
    c = Fr(1, 2) - bound
    while c <= bound:
        lifts2.append((c, scene.curves["gamma2"].lift(c)))
        c += 1
    for cross_name, cross_t in (("x_id", CROSS_LOW), ("x_top", CROSS_HIGH)):
        for c, g2 in lifts2:
            for m, w_m, g0 in rows:
                # corners: y0 = crossing, y1 = (0,-c), y2 = (m+c, m),
                # y3 = (w(m), m); arcs gamma1, gamma2, gamma0, pushoff
                params = [
                    (cross_t, -c),        # on gamma1 (x = 0)
                    (-c, m),              # on gamma2, param y
                    (m + c, w_m),         # on gamma0, param x
                    (m, cross_t),         # on pushoff, param y
                ]
                w = _build_witness(scene, ["gamma1", "gamma2", "gamma0", "pushoff"],
                                   [g1, g2, g0, push], params,
                                   [cross_name, "e12", "e20", "e01"], wrap_bound)
                if w is not None:
                    out.append(w)
    return out


def enumerate_polygons(scene: PolygonScene, inputs, wrap_bound: int):
    """Witnesses for a named product; inputs are the mu-arguments
    (a_d, ..., a_1) in composition order."""
    inputs = tuple(inputs)
    if inputs == ("e01", "e20"):
        return triangle_witnesses(scene, wrap_bound)
    if inputs == ("e01", "e20", "e12"):
        return quad_witnesses(scene, wrap_bound)
    raise ValueError(f"no enumerator for input tuple {inputs}")


def _signed_count(witnesses, wrap_bound: int) -> TruncatedUSeries:
    """Sum of sign * U^z_count over the witnesses, through U^(p(p+1)/2)
    for p = wrap_bound."""
    order = wrap_bound * (wrap_bound + 1) // 2
    coeffs = [0] * (order + 1)
    for w in witnesses:
        if w.z_count <= order:
            coeffs[w.z_count] += w.sign
    return TruncatedUSeries(coeffs, order)


def _at_identity(quads):
    return [w for w in quads if w.corners[0] == "x_id"]


def mu2_series(scene: PolygonScene, wrap_bound: int) -> TruncatedUSeries:
    """Signed U-weighted triangle count: coefficient series of the output
    generator of the double product."""
    return _signed_count(triangle_witnesses(scene, wrap_bound), wrap_bound)


def mu3_series(scene: PolygonScene, wrap_bound: int) -> TruncatedUSeries:
    """Signed U-weighted quadrilateral count at the identity output."""
    return _signed_count(_at_identity(quad_witnesses(scene, wrap_bound)), wrap_bound)


def criterion_series(tris, quads, wrap_bound: int):
    """(mu2 series, mu3 series, -u^3 * mu3) from the triangle and
    quadrilateral witnesses of one census at wrap_bound."""
    m2 = _signed_count(tris, wrap_bound)
    m3 = _signed_count(_at_identity(quads), wrap_bound)
    u = partition_series(m3.order)
    u3 = series_mul(series_mul(u, u), u)
    return m2, m3, -(series_mul(u3, m3))


def triangle_criterion(scene: PolygonScene, wrap_bound: int):
    """(mu2 series, mu3 series, -u^3 * mu3): the product identities behind
    the exact triangle; passes when the first vanishes and the last is 1."""
    return criterion_series(triangle_witnesses(scene, wrap_bound),
                            quad_witnesses(scene, wrap_bound), wrap_bound)


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------

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


# the kind each curve's name stands for, and the points that need a
# Maslov offset: the enumerators assume both
_CURVE_KINDS = {"gamma0": "h", "gamma1": "v", "gamma2": "d"}
_MASLOV_POINTS = ("e01", "e12", "e20", "e21", "x_id", "x_top")


def scene_load(text: str) -> PolygonScene:
    """Parse a scene file.  Each curve gamma0 (h), gamma1 (v), gamma2 (d)
    is given once, of that kind, with orientation +1 or -1, and so are z
    and pushoff_star; every point of _MASLOV_POINTS, and no other, needs
    one maslov row.  A row with a token too many or too few, or any other
    error in a row, is reported with its line number."""
    curves = {}
    z = None
    pushoff_star = None
    maslov = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == "SCENE":
            continue
        parts = line.split()
        try:
            if parts[0] == "curve":
                _, name, kind, sign, star_kw, star = parts
                if star_kw != "star" or kind not in ("h", "v", "d"):
                    raise ValueError("malformed curve row")
                if name not in _CURVE_KINDS:
                    raise ValueError(f"curve {name!r} is not gamma0, gamma1 or gamma2")
                if kind != _CURVE_KINDS[name]:
                    raise ValueError(f"curve {name} has kind {kind}, "
                                     f"not {_CURVE_KINDS[name]}")
                if int(sign) not in (1, -1):
                    raise ValueError(f"orientation {sign} is not +1 or -1")
                if name in curves:
                    raise ValueError(f"curve {name} given twice")
                curves[name] = SceneCurve(name, kind, int(sign), Fr(star))
            elif parts[0] == "z":
                _, x, y = parts
                if z is not None:
                    raise ValueError("z given twice")
                z = (Fr(x), Fr(y))
            elif parts[0] == "pushoff_star":
                _, star = parts
                if pushoff_star is not None:
                    raise ValueError("pushoff_star given twice")
                pushoff_star = Fr(star)
            elif parts[0] == "maslov":
                _, point, index = parts
                if point not in _MASLOV_POINTS:
                    raise ValueError(f"maslov point {point!r} is not one of "
                                     f"{', '.join(_MASLOV_POINTS)}")
                if point in maslov:
                    raise ValueError(f"maslov {point} given twice")
                maslov[point] = int(index)
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if z is None or pushoff_star is None or len(curves) != 3:
        raise ValueError("scene file incomplete")
    missing = [p for p in _MASLOV_POINTS if p not in maslov]
    if missing:
        raise ValueError(f"scene file incomplete: no maslov row for {', '.join(missing)}")
    return PolygonScene(curves, z, maslov, pushoff_star)


# ---------------------------------------------------------------------------
# SVG emission (static figures of lifted witnesses)
# ---------------------------------------------------------------------------

def witness_svg(scene: PolygonScene, w: PolygonWitness, size: int = 420) -> str:
    """Standalone SVG of one lifted witness with the lattice and curves."""
    xs = [float(p[0]) for s in w.boundary for p in s]
    ys = [float(p[1]) for s in w.boundary for p in s]
    pad = 0.7
    xmin, xmax = min(xs) - pad, max(xs) + pad
    ymin, ymax = min(ys) - pad, max(ys) + pad
    span = max(xmax - xmin, ymax - ymin)
    scale = size / span

    def sx(x):
        return (float(x) - xmin) * scale

    def sy(y):
        return size - (float(y) - ymin) * scale

    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    i = int(xmin) - 1
    while i <= xmax + 1:
        rows.append(f'<line x1="{sx(i)}" y1="0" x2="{sx(i)}" y2="{size}" '
                    'stroke="#ddd" stroke-width="1"/>')
        i += 1
    j = int(ymin) - 1
    while j <= ymax + 1:
        rows.append(f'<line x1="0" y1="{sy(j)}" x2="{size}" y2="{sy(j)}" '
                    'stroke="#ddd" stroke-width="1"/>')
        j += 1
    path = []
    for (p0, p1) in w.boundary:
        if not path:
            path.append(f"M {sx(p0[0])} {sy(p0[1])}")
        path.append(f"L {sx(p1[0])} {sy(p1[1])}")
    path.append("Z")
    rows.append(f'<path d="{" ".join(path)}" fill="#cfe8ff" '
                'stroke="#0055aa" stroke-width="2" fill-opacity="0.7"/>')
    zx, zy = scene.z
    i = int(xmin) - 1
    while i <= xmax + 1:
        j = int(ymin) - 1
        while j <= ymax + 1:
            rows.append(f'<circle cx="{sx(zx + i)}" cy="{sy(zy + j)}" r="3" '
                        'fill="#cc3300"/>')
            j += 1
        i += 1
    for p in w.points:
        rows.append(f'<circle cx="{sx(p[0])}" cy="{sy(p[1])}" r="4" '
                    'fill="#222"/>')
    rows.append("</svg>")
    return "\n".join(rows)
