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
degree-0 crossing represents the identity, and only it is enumerated:
no quadrilateral at the degree-1 crossing has four convex corners.

Every candidate the census builds is a witness.  A candidate's geometry
depends only on its lift offsets (scene files fix each curve's kind, and
the pushoff profile is frozen), so this holds, as do these proofs, on
every scene:
- Triangles have corners (0, -c), (c, 0) and (0, 0), c a nonzero
  half-integer.  The shoelace sum is c^2 > 0: each is counterclockwise,
  every corner turns left, and its sides meet only at corners.
- A quadrilateral's corner at x_id, where the pushoff arrives along
  +-(1/25, 1) and gamma1 leaves along +-(0, 1), turns left iff the two arcs
  lie on opposite sides of height 1/8; the census enumerates only those.
  Then the corners at (0, -c), (m + c, m) and (w(m), m) turn left too
  (a cross product each).
- Embedded: gamma1 (x = 0) and the pushoff (|x| <= 1/100) share heights
  only at 1/8.  gamma0 (y = m) misses gamma1's height range.  gamma2 enters
  the strip |x| <= 1/100 only within 1/100 of height -c, at least 3/8 from
  the pushoff's range.  Each adjacent pair is two distinct lines, or y = m
  and a graph over y reaching height m only at its end.
- Counterclockwise: the boundary is simple with four left corners, and the
  pushoff leaves height m and reaches 1/8 with the same slope, so its bends
  cancel.  The total turn is then +2 pi, never -2 pi.
- The c and m grids keep each arc's ends less than (wrap + 1) N apart, so
  no arc wraps more often than the bound.  Arc ends (half-integers,
  integers, 1/8, -1/200) never differ by an integer, and the wrap count's
  ambiguity check would catch an arc of length 0.
What is left depends on the scene: the degree relation, stars and signs,
and the translates of z inside.  One census gives all three criterion
series (criterion_series).

A census runs on integers at one scale N, the lcm of the denominators of
z and of the pushoff profile (its knots, and its value at integer
heights): 200 on the preset scene.  Every parameter, corner, knot and
segment end is N times its true value, so every predicate is int
arithmetic, and a witness's count of translates of z is at most two
arithmetic series (_z_count).  Boundaries lie on lifts of the curves
and the pushoff, so a census refuses z on one before any witness
(_scale, quad_witnesses).  Witnesses keep these ints and their lifts;
Fractions appear only in messages.  Star offsets are calibrated
(and frozen here) so the triangle count reproduces a vanishing product
and the quadrilateral count reproduces minus the theta series.
"""

from __future__ import annotations

from fractions import Fraction as Fr
from math import lcm

from .scalars import parse_number
from .useries import TruncatedUSeries, divide_by_euler

# pushoff profile: PL bump with these breakpoints, period 1
CROSS_LOW = Fr(1, 8)    # degree-0 crossing of the pushoff with gamma1
BUMP = Fr(1, 100)
_W_KNOTS = (
    (Fr(1, 8), Fr(0)),
    (Fr(3, 8), BUMP),
    (Fr(5, 8), Fr(0)),
    (Fr(7, 8), -BUMP),
    (Fr(9, 8), Fr(0)),
)


def _marked(scene, curve):
    """Refuse the scene: its basepoint lies on curve."""
    raise AssertionError(f"marked point ({scene.z[0]}, {scene.z[1]}) on {curve}")


def _scale(scene):
    """(N, z at scale N): N is the lcm of the denominators of z and of the
    pushoff profile, its knots and its value at integer heights, where
    every quadrilateral's pushoff arc starts.  Refuses z on gamma0, gamma1
    or gamma2, naming the first (one residue test each, mod N)."""
    (t0, v0), (t1, v1) = _W_KNOTS[-2:]     # the piece holding height 1
    w = v0 + (v1 - v0) * (1 - t0) / (t1 - t0)
    n = lcm(w.denominator, *(f.denominator for f in (*scene.z, *sum(_W_KNOTS, ()))))
    zx, zy = int(scene.z[0] * n), int(scene.z[1] * n)
    for curve, residue in (("gamma0", zy), ("gamma1", zx), ("gamma2", zx - zy - n // 2)):
        if residue % n == 0:
            _marked(scene, curve)
    return n, (zx, zy)


class CurveLift:
    """One lift of a scene curve to the universal cover, at its census's
    scale N: offset, parameters and points are N times their true values.

    kind 'h': y = offset, parametrized by x
    kind 'v': x = offset, parametrized by y
    kind 'd': x - y = offset, parametrized by y
    kind 'p': x = offset + w(y), parametrized by y (pushoff of 'v'); knots
              holds the profile's (height, value) knots at scale N
    """

    def __init__(self, kind: str, offset: int, knots: tuple = ()):
        self.kind, self.offset, self.knots = kind, offset, knots

    def point(self, t):
        if self.kind == "h":
            return (t, self.offset)
        if self.kind == "v":
            return (self.offset, t)
        if self.kind == "d":
            return (t + self.offset, t)
        # exact: a census reads w at knots and integer heights, ints at its scale
        num, den = self.x_at(t)
        return (num // den, t)

    def x_at(self, t):
        """x at height t on a 'v' or 'p' lift, (numerator, denominator)."""
        if self.kind == "v":
            return self.offset, 1
        low, period = self.knots[0][0], self.knots[-1][0] - self.knots[0][0]
        base = (t - low) % period + low          # t moved into the knots' period
        (t0, v0), (t1, v1) = next((a, b) for a, b in zip(self.knots, self.knots[1:])
                                  if a[0] <= base < b[0])
        return (self.offset + v0) * (t1 - t0) + (v1 - v0) * (base - t0), t1 - t0

    def _params(self, t0, t1):
        """The arc's ends and the pushoff's knots between them, in order."""
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        heights = {lo, hi}
        if self.kind == "p":
            period = self.knots[-1][0] - self.knots[0][0]
            for k in range(lo // period - 1, hi // period + 1):
                heights.update(t + k * period for t, _ in self.knots[:-1]
                               if lo < t + k * period < hi)
        return sorted(heights, reverse=t0 > t1)

    def segments(self, t0, t1):
        """PL segments tracing the arc from param t0 to t1."""
        pts = [self.point(t) for t in self._params(t0, t1)]
        return list(zip(pts, pts[1:]))


class SceneCurve:
    def __init__(self, name: str,
                 kind: str,         # 'h', 'v' or 'd'
                 orientation: int,  # +1: orientation = increasing parameter
                 star: Fr):         # parameter of the star (mod 1)
        self.name, self.kind, self.orientation, self.star = name, kind, orientation, star

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def lift(self, offset: int) -> CurveLift:
        return CurveLift(self.kind, offset)


class PolygonScene:
    """Three oriented marked curves, the basepoint, the pushoff data and
    integer Maslov offsets for every intersection generator."""

    def __init__(self, curves: dict, z: tuple, maslov: dict, pushoff_star: Fr):
        self.curves, self.z, self.maslov, self.pushoff_star = curves, z, maslov, pushoff_star

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

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


class PolygonWitness:
    """One deck-class of embedded convex-cornered lift.  Points, arc ends and
    boundary are the census's ints, N = _scale(scene)[0] times their true values."""

    def __init__(self, corners: list,  # corner names, y_0 first
                 points: list,         # corner coordinates (same order)
                 arcs: list,           # (curve name, t_from, t_to, travel, positive)
                 lifts: list,          # the CurveLift each arc runs on (same order)
                 z_count: int, star_count: int, q: int, r: int, wraps: list):
        self.corners, self.points, self.arcs = corners, points, arcs
        self.lifts, self.z_count, self.star_count = lifts, z_count, star_count
        self.q, self.r, self.wraps = q, r, wraps

    @property
    def sign(self) -> int:
        return -1 if (self.q + self.r + self.star_count) % 2 else 1

    @property
    def boundary(self) -> list:
        """The arcs' PL segments in order, ((x, y), (x, y)), built on read."""
        return [seg for lift, (_, t_from, t_to, _, _) in zip(self.lifts, self.arcs)
                for seg in lift.segments(t_from, t_to)]


# ---------------------------------------------------------------------------
# lattice and star counts on integer coordinates
# ---------------------------------------------------------------------------

def _z_count(z, n, lifts, params):
    """Translates of z by (nZ)^2 inside a census witness, at scale n, in
    O(1); the census has refused z on a curve, so none lies on the
    boundary.  Each row y = z_y + jn strictly inside its heights meets the
    gamma2 arc at x = y + c and one vertical arc (gamma1 at x = 0, or the
    pushoff at w(z_y), as w has period n; both at x = 0 where they meet);
    gamma0 lies on the top or bottom height.  So a row's count is a floor
    difference with slope +-1 in j, summed over an arc's rows as an
    arithmetic series."""
    zx, zy = z
    (c, (d0, d1)), = [(lift.offset, p) for lift, p in zip(lifts, params) if lift.kind == "d"]
    j0, j1 = (min(d0, d1) - zy) // n + 1, -((zy - max(d0, d1)) // n)   # rows inside
    u = zy + c - zx              # gamma2's x at row j, less zx, is u + jn
    slope = 1 if d1 > d0 else -1   # a counterclockwise boundary runs up its right side
    count = 0
    for lift, (t0, t1) in zip(lifts, params):
        if lift.kind not in ("v", "p"):
            continue
        ja = max(j0, -((zy - min(t0, t1)) // n))
        jb = min(j1, -((zy - max(t0, t1)) // n))
        if ja >= jb:
            continue
        num, den = lift.x_at(zy)         # the arc's x on each of its rows
        v, nd = num - zx * den, n * den   # x - zx = v / den
        # the translates strictly between the two arcs on row j: a + slope j
        a = -(-u // n) - v // nd - 1 if slope > 0 else -(-v // nd) - u // n - 1
        count += (jb - ja) * a + slope * (ja + jb - 1) * (jb - ja) // 2
    return count


def _star_count(lo: int, hi: int, star: Fr, n: int) -> int:
    """The stars star + k, k an integer, strictly inside the arc (lo, hi)
    given at scale n, lo < hi; AssertionError when one sits at either end."""
    step, s = n * star.denominator, n * star.numerator   # at scale n * den
    lo, hi = lo * star.denominator - s, hi * star.denominator - s
    if lo % step == 0 or hi % step == 0:
        raise AssertionError("star sits on an arc endpoint")
    return -(-hi // step) - lo // step - 1


# ---------------------------------------------------------------------------
# witness assembly
# ---------------------------------------------------------------------------

def _build_witness(scene, n, z, names, lifts, params, corner_names):
    """One witness at its census's scale n (z is the basepoint at that
    scale).  names[k] is the scene curve of arc k (from corner k to corner
    k+1); params[k] = (t_from, t_to) on lifts[k].  The census builds only
    embedded counterclockwise polygons with convex corners within its wrap
    bound (module docstring), so this reads what depends on the scene: the
    degree relation, the sign data and the lattice count of z.  Returns a
    PolygonWitness in the census's own ints, at scale n."""
    arcs, wraps = [], []
    for name, lift, (t_from, t_to) in zip(names, lifts, params):
        travel = 1 if t_to > t_from else -1
        wrap, part = divmod(abs(t_to - t_from), n)
        if not part:
            raise AssertionError("arc length ambiguous for wrap count")
        wraps.append(wrap)
        # the pushoff inherits the +y orientation
        orientation = 1 if lift.kind == "p" else scene.curves[name].orientation
        arcs.append((name, t_from, t_to, travel, travel == orientation))

    # degree bookkeeping: i(y_0) = sum of input indices + 2 - d
    idx = [scene.maslov[c] for c in corner_names]
    d = len(names) - 1
    if idx[0] != sum(idx[1:]) + 2 - d:
        raise AssertionError(f"degree relation fails for {corner_names}")

    # sign data: stars per arc, q and r from negative traversals
    star_total = 0
    for name, (t_from, t_to) in zip(names, params):
        star = scene.pushoff_star if name == "pushoff" else scene.curves[name].star
        star_total += _star_count(min(t_from, t_to), max(t_from, t_to), star, n)

    q = 0 if arcs[-1][4] else idx[0] + idx[d]   # the arc from y_d back to y_0
    r = sum(idx[k] for k in range(1, d) if not arcs[k][4])

    z_count = _z_count(z, n, lifts, params)

    return PolygonWitness(
        list(corner_names), [lift.point(t) for lift, (t, _) in zip(lifts, params)], arcs,
        list(lifts), z_count, star_total, q, r, wraps)


def _grid(lo, hi, residue, n):
    """The values strictly between lo and hi that are residue mod n."""
    return range(lo + 1 + (residue - lo - 1) % n, hi, n)


def triangle_witnesses(scene: PolygonScene, wrap_bound: int):
    """All deck-classes of triangles computing the composition of the
    gamma0^gamma1 and gamma2^gamma0 generators, sides wrapping at most
    wrap_bound times.  Normalization fixes the vertical and horizontal
    lifts; the diagonal offset c, a half-integer, is the surviving modulus."""
    n, z = _scale(scene)
    out = []
    g1, g0 = scene.curves["gamma1"].lift(0), scene.curves["gamma0"].lift(0)
    # every side runs |c|: it wraps at most wrap_bound times when shorter
    bound = (wrap_bound + 1) * n
    for c in _grid(-bound, bound, n // 2, n):
        g2 = scene.curves["gamma2"].lift(c)
        # corners: y0 = (0,-c) on gamma1^gamma2, y1 = (c,0) on gamma2^gamma0,
        # y2 = (0,0) on gamma0^gamma1
        params = [(-c, 0), (c, 0), (0, -c)]
        out.append(_build_witness(scene, n, z, ["gamma2", "gamma0", "gamma1"],
                                  [g2, g0, g1], params, ["e21", "e20", "e01"]))
    return out


def quad_witnesses(scene: PolygonScene, wrap_bound: int):
    """All deck-classes of quadrilaterals computing the triple product
    whose output is the identity, the degree-0 pushoff crossing x_id (the
    only one with convex corners: module docstring)."""
    n, z = _scale(scene)
    out = []
    g1 = scene.curves["gamma1"].lift(0)
    push = CurveLift("p", 0, tuple((int(t * n), int(v * n)) for t, v in _W_KNOTS))
    num, den = push.x_at(z[1])
    if (num - z[0] * den) % (n * den) == 0:
        _marked(scene, "pushoff")
    w_m = push.point(0)[0]      # the pushoff's x at every integer height m
    # an arc wraps at most wrap_bound times when it is shorter than bound
    bound = (wrap_bound + 1) * n
    cross_t = int(CROSS_LOW * n)
    # the gamma1 arc bounds the half-integer c; the gamma2, gamma0 and
    # pushoff arcs bound the integer m
    for c in _grid(-cross_t - bound, -cross_t + bound, n // 2, n):
        g2 = scene.curves["gamma2"].lift(c)
        # the corner at x_id turns left iff the pushoff arc (from m) and the
        # gamma1 arc (to -c) lie on opposite sides of cross_t
        if -c > cross_t:
            m_lo, m_hi = max(-c, w_m - c) - bound, cross_t
        else:
            m_lo, m_hi = cross_t, min(-c, w_m - c) + bound
        for m in _grid(m_lo, m_hi, 0, n):
            # corners: y0 = crossing, y1 = (0,-c), y2 = (m+c, m), y3 = (w(m), m);
            # arcs gamma1 (param y), gamma2 (y), gamma0 (x), pushoff (y)
            params = [(cross_t, -c), (-c, m), (m + c, w_m), (m, cross_t)]
            out.append(_build_witness(
                scene, n, z, ["gamma1", "gamma2", "gamma0", "pushoff"],
                [g1, g2, scene.curves["gamma0"].lift(m), push], params,
                ["x_id", "e12", "e20", "e01"]))
    return out


def _signed_count(witnesses, wrap_bound: int) -> TruncatedUSeries:
    """Sum of sign * U^z_count over the witnesses, through U^(p(p+1)/2)
    for p = wrap_bound."""
    order = wrap_bound * (wrap_bound + 1) // 2
    coeffs = [0] * (order + 1)
    for w in witnesses:
        if w.z_count <= order:
            coeffs[w.z_count] += w.sign
    return TruncatedUSeries(coeffs, order)


def mu3_series(scene: PolygonScene, wrap_bound: int) -> TruncatedUSeries:
    """Signed U-weighted quadrilateral count at the identity output."""
    return _signed_count(quad_witnesses(scene, wrap_bound), wrap_bound)


def criterion_series(tris, quads, wrap_bound: int):
    """(mu2 series, mu3 series, -u^3 * mu3) from the triangle and
    quadrilateral witnesses of one census at wrap_bound."""
    m2 = _signed_count(tris, wrap_bound)
    m3 = _signed_count(quads, wrap_bound)
    # u = 1 / E for Euler's function E, so u^3 * mu3 = mu3 / E^3
    return m2, m3, divide_by_euler(-m3, 3)


def triangle_criterion(scene: PolygonScene, wrap_bound: int):
    """(mu2 series, mu3 series, -u^3 * mu3): the product identities behind
    the exact triangle; passes when the first vanishes and the last is 1."""
    return criterion_series(triangle_witnesses(scene, wrap_bound),
                            quad_witnesses(scene, wrap_bound), wrap_bound)


# ---------------------------------------------------------------------------
# scene files
# ---------------------------------------------------------------------------

# the kind each curve's name stands for, and the points that need a
# Maslov offset: the enumerators assume both (no census reads x_top's)
_CURVE_KINDS = {"gamma0": "h", "gamma1": "v", "gamma2": "d"}
_MASLOV_POINTS = ("e01", "e12", "e20", "e21", "x_id", "x_top")
# the form of each row
_ROWS = {"curve": "curve NAME KIND ORIENTATION star OFFSET", "z": "z X Y",
         "pushoff_star": "pushoff_star OFFSET", "maslov": "maslov POINT INDEX"}


def scene_load(text: str) -> PolygonScene:
    """Parse a scene file.  Each curve gamma0 (h), gamma1 (v), gamma2 (d)
    is given once, of that kind, with orientation +1 or -1, and so are z
    and pushoff_star; every point of _MASLOV_POINTS, and no other, needs
    one maslov row.  A row not of its form (_ROWS), or any other error in
    a row, is reported with its line number, in the format's terms."""
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
            if parts[0] not in _ROWS:
                raise ValueError(f"unknown directive {parts[0]!r}")
            if len(parts) != len(_ROWS[parts[0]].split()):
                raise ValueError(f"expected '{_ROWS[parts[0]]}', got '{' '.join(parts)}'")
            if parts[0] == "curve":
                _, name, kind, sign, star_kw, star = parts
                if star_kw != "star" or kind not in ("h", "v", "d"):
                    raise ValueError("malformed curve row")
                if name not in _CURVE_KINDS:
                    raise ValueError(f"curve {name!r} is not gamma0, gamma1 or gamma2")
                if kind != _CURVE_KINDS[name]:
                    raise ValueError(f"curve {name} has kind {kind}, "
                                     f"not {_CURVE_KINDS[name]}")
                if parse_number(int, "orientation", sign) not in (1, -1):
                    raise ValueError(f"orientation {sign} is not +1 or -1")
                if name in curves:
                    raise ValueError(f"curve {name} given twice")
                star = parse_number(Fr, "star offset", star)
                curves[name] = SceneCurve(name, kind, int(sign), star)
            elif parts[0] == "z":
                if z is not None:
                    raise ValueError("z given twice")
                z = tuple(parse_number(Fr, "z coordinate", v) for v in parts[1:])
            elif parts[0] == "pushoff_star":
                if pushoff_star is not None:
                    raise ValueError("pushoff_star given twice")
                pushoff_star = parse_number(Fr, "pushoff_star offset", parts[1])
            else:
                _, point, index = parts
                if point not in _MASLOV_POINTS:
                    raise ValueError(f"maslov point {point!r} is not one of "
                                     f"{', '.join(_MASLOV_POINTS)}")
                if point in maslov:
                    raise ValueError(f"maslov {point} given twice")
                maslov[point] = parse_number(int, "maslov index", index)
        except ValueError as exc:
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

_SVG_SIZE = 420   # a figure's width and height, in pixels


def witness_svg(scene: PolygonScene, w: PolygonWitness) -> str:
    """Standalone SVG of one lifted witness with the lattice and curves."""
    n = _scale(scene)[0]   # v / n rounds correctly, as float(Fraction(v, n)) does
    xs = [p[0] / n for s in w.boundary for p in s]
    ys = [p[1] / n for s in w.boundary for p in s]
    pad = 0.7
    xmin, xmax = min(xs) - pad, max(xs) + pad
    ymin, ymax = min(ys) - pad, max(ys) + pad
    span = max(xmax - xmin, ymax - ymin)
    scale = _SVG_SIZE / span

    def sx(x):
        return (float(x) - xmin) * scale

    def sy(y):
        return _SVG_SIZE - (float(y) - ymin) * scale

    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    i = int(xmin) - 1
    while i <= xmax + 1:
        rows.append(f'<line x1="{sx(i)}" y1="0" x2="{sx(i)}" y2="{_SVG_SIZE}" '
                    'stroke="#ddd" stroke-width="1"/>')
        i += 1
    j = int(ymin) - 1
    while j <= ymax + 1:
        rows.append(f'<line x1="0" y1="{sy(j)}" x2="{_SVG_SIZE}" y2="{sy(j)}" '
                    'stroke="#ddd" stroke-width="1"/>')
        j += 1
    path = []
    for (p0, p1) in w.boundary:
        if not path:
            path.append(f"M {sx(p0[0] / n)} {sy(p0[1] / n)}")
        path.append(f"L {sx(p1[0] / n)} {sy(p1[1] / n)}")
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
    for x, y in w.points:
        rows.append(f'<circle cx="{sx(x / n)}" cy="{sy(y / n)}" r="4" '
                    'fill="#222"/>')
    rows.append("</svg>")
    return "\n".join(rows)
