import hashlib
import re
from collections import Counter
from fractions import Fraction as Fr
from math import lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from oracles import _count_lattice_points, scene_dump
from ainfbench import polygons
from ainfbench.polygons import (CurveLift, _star_count,
                                criterion_series, mu3_series, preset_scene,
                                quad_witnesses, scene_load,
                                triangle_criterion, triangle_witnesses, witness_svg)
from ainfbench.useries import theta_v


@pytest.fixture(scope="module")
def scene():
    return preset_scene()


@pytest.fixture(scope="module")
def tris4(scene):
    return triangle_witnesses(scene, 4)


@pytest.fixture(scope="module")
def quads4(scene):
    return quad_witnesses(scene, 4)


def test_homology_pairings(scene):
    assert scene.homology_pairings() == (1, 1, 1)


def test_basepoint_in_hexagon(scene):
    assert scene.z_in_hexagon()


def test_single_intersections(scene):
    # the horizontal and vertical lifts meet once per fundamental domain
    h = scene.curves["gamma0"].lift(0)
    v = scene.curves["gamma1"].lift(0)
    assert h.point(0) == v.point(0) == (0, 0)


def test_two_triangles_per_band(tris4):
    bands = Counter(max(w.wraps) for w in tris4)
    assert bands == {p: 2 for p in range(5)}


def test_triangle_z_multiplicity(tris4):
    for w in tris4:
        p = max(w.wraps)
        assert w.z_count == p * (p + 1) // 2


def test_leading_triangles_miss_z(tris4):
    leading = [w for w in tris4 if max(w.wraps) == 0]
    assert len(leading) == 2 and all(w.z_count == 0 for w in leading)


def test_quad_band_multiplicities(quads4):
    # band p carries p+1 polygons of one chirality and p of the other
    per_band = Counter()
    for w in quads4:
        positive = w.arcs[1][4]
        per_band[(max(w.wraps), positive)] += 1
    for p in range(5):
        assert per_band.get((p, True), 0) == p + 1
        assert per_band.get((p, False), 0) == p


def test_quad_z_multiplicity(quads4):
    for w in quads4:
        p = max(w.wraps)
        assert w.z_count == p * (p + 1) // 2


def test_all_quads_output_identity_corner(quads4):
    assert all(w.corners[0] == "x_id" for w in quads4)


def test_uniform_signs_per_family(quads4, tris4):
    # every member of a band/chirality family carries one sign
    seen = {}
    for w in quads4 + tris4:
        key = (len(w.corners), max(w.wraps), w.arcs[1][4])
        seen.setdefault(key, set()).add(w.sign)
    assert all(len(signs) == 1 for signs in seen.values())


def test_arc_direction_data_consistent(tris4):
    # all-positive or all-negative boundaries only, per witness
    for w in tris4:
        directions = {positive for (_, _, _, _, positive) in w.arcs}
        assert len(directions) == 1


def test_mu2_series_vanishes(scene):
    assert oracles.mu2_series(scene, 4) == 0


def test_mu3_series_is_minus_theta(scene):
    m3 = mu3_series(scene, 4)
    assert m3 == -theta_v(m3.order)


def test_triangle_criterion(scene):
    m2, m3, check = triangle_criterion(scene, 4)
    assert m2 == 0
    assert check.is_one()


def test_enumerate_polygons_dispatch(scene):
    tris = oracles.enumerate_polygons(scene, ("e01", "e20"), 1)
    quads = oracles.enumerate_polygons(scene, ("e01", "e20", "e12"), 1)
    assert len(tris) == 4 and len(quads) == 1 + 3
    with pytest.raises(ValueError):
        oracles.enumerate_polygons(scene, ("e01", "e01"), 1)


def test_degree_relation_on_witnesses(scene, tris4, quads4):
    for w in tris4 + quads4:
        idx = [scene.maslov[c] for c in w.corners]
        d = len(w.corners) - 1
        assert idx[0] == sum(idx[1:]) + 2 - d


def _pushoff(n):
    """The pushoff lift at offset 0 and scale n."""
    return CurveLift("p", 0, tuple((int(t * n), int(v * n)) for t, v in polygons._W_KNOTS))


def test_pushoff_profile_crossings():
    # at the preset's scale 200: the crossings with gamma1 at heights 1/8
    # and 5/8, the bump, and at every knot and integer height the
    # Fraction profile's value
    assert polygons._scale(preset_scene())[0] == 200
    lift = _pushoff(200)
    assert lift.point(25) == (0, 25)
    assert lift.point(125) == (0, 125)
    assert lift.point(75) == (2, 75)
    for t in range(-400, 401, 25):
        assert Fr(lift.point(t)[0], 200) == oracles._w(Fr(t, 200))


def test_svg_emission(scene, tris4):
    text = witness_svg(scene, tris4[0])
    assert text.startswith("<svg") and text.endswith("</svg>")
    assert "path" in text


def test_svg_bytes(scene):
    # every figure of the wrap-2 census, byte for byte: the witnesses' ints
    # are divided by the scale where they turn into floats, and int true
    # division rounds as the float of the Fraction does
    witnesses = triangle_witnesses(scene, 2) + quad_witnesses(scene, 2)
    assert len(witnesses) == 15
    text = "\n".join(witness_svg(scene, w) for w in witnesses)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6e302b37f1f0005f2782c671edd110342c8135afea26abcd0efb983ad0a936df"


def test_scene_dump_load_roundtrip(scene):
    text = scene_dump(scene)
    back = scene_load(text)
    assert back.curves == scene.curves
    assert back.z == scene.z and back.maslov == scene.maslov
    assert scene_dump(back) == text
    assert back.homology_pairings() == (1, 1, 1)


def test_scene_load_rejects_garbage():
    with pytest.raises(ValueError, match="line"):
        scene_load("SCENE\ncurve gamma0 q +1 star 2/3\n")
    with pytest.raises(ValueError, match="incomplete"):
        scene_load("SCENE\nz 3/4 3/4\npushoff_star 1/4\n")


def test_criterion_series_from_one_census(scene, tris4, quads4):
    assert criterion_series(tris4, quads4, 4) == triangle_criterion(scene, 4)


def _with_line(scene, old, new):
    text = scene_dump(scene)
    assert old in text
    lines = text.replace(old, new).splitlines()
    return "\n".join(lines) + "\n", len(lines) - lines[::-1].index(new)


@pytest.mark.parametrize("old, new", [
    ("curve gamma0 h +1 star 2/3", "curve gamma0 h +3 star 2/3"),
    ("curve gamma0 h +1 star 2/3", "curve gamma0 h 0 star 2/3"),
    ("curve gamma2 d -1 star 1/3", "curve gamma3 d -1 star 1/3"),
    ("curve gamma2 d -1 star 1/3", "curve gamma1 v +1 star 1/4"),
    ("z 3/4 3/4", "z 1/0 3/4"),
    ("pushoff_star 1/4", "z 3/4 3/4"),
    ("maslov e21 0", "maslov e20 0"),
])
def test_scene_load_rejects_with_line_number(scene, old, new):
    # a bad orientation, a foreign curve name, a row given twice
    text, lineno = _with_line(scene, old, new)
    with pytest.raises(ValueError, match=rf"^line {lineno}: "):
        scene_load(text)


@pytest.mark.parametrize("old, new", [
    ("curve gamma0 h +1 star 2/3", "curve gamma0 v +1 star 2/3"),
    ("curve gamma1 v +1 star 1/4", "curve gamma1 d +1 star 1/4"),
    ("curve gamma2 d -1 star 1/3", "curve gamma2 h -1 star 1/3"),
])
def test_scene_load_rejects_curve_of_the_wrong_kind(scene, old, new):
    # the enumerators take gamma0 horizontal, gamma1 vertical, gamma2 diagonal
    text, lineno = _with_line(scene, old, new)
    name, kind = new.split()[1:3]
    with pytest.raises(ValueError, match=rf"^line {lineno}: curve {name} has kind {kind}"):
        scene_load(text)


@pytest.mark.parametrize("points", [["e01"], ["e12"], ["e20"], ["e21"], ["x_id"],
                                    ["x_top"], ["e12", "x_top"]])
def test_scene_load_requires_every_maslov_row(scene, points):
    text = "".join(line for line in scene_dump(scene).splitlines(keepends=True)
                   if line.split()[:2] not in [["maslov", p] for p in points])
    with pytest.raises(ValueError, match=f"no maslov row for {', '.join(points)}$"):
        scene_load(text)


# Python's own exception texts, which no message of the scene format shows
_PYTHON_TEXT = re.compile(r"unpack|Fraction\(|literal")


@pytest.mark.parametrize("old, new, message", [
    ("z 3/4 3/4", "z 3/4", "expected 'z X Y', got 'z 3/4'"),
    ("z 3/4 3/4", "z 1/0 3/4", "z coordinate 1/0 has a zero denominator"),
    ("pushoff_star 1/4", "pushoff_star 1/0", "pushoff_star offset 1/0 has a zero denominator"),
    ("maslov x_top 1", "maslov x_top 1/2", "maslov index 1/2 is not an integer"),
    ("curve gamma0 h +1 star 2/3", "curve gamma0 h +1 star x",
     "star offset x is not a rational number"),
])
def test_scene_load_message_speaks_the_format(scene, old, new, message):
    # a row of the wrong length and a value that is not a number are named
    # in the scene format's terms, with the row's line, not by Python
    text, lineno = _with_line(scene, old, new)
    with pytest.raises(ValueError) as info:
        scene_load(text)
    assert str(info.value) == f"line {lineno}: {message}"


# -- scene files: round trip and mutated rows -------------------------------

_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=60)


@st.composite
def _scenes(draw):
    curves = {name: polygons.SceneCurve(name, kind, draw(st.sampled_from((1, -1))),
                                        draw(_RATIONALS))
              for name, kind in polygons._CURVE_KINDS.items()}
    maslov = {p: draw(st.integers(-4, 4)) for p in polygons._MASLOV_POINTS}
    z = (draw(_RATIONALS), draw(_RATIONALS))
    return polygons.PolygonScene(curves, z, maslov, draw(_RATIONALS))


@given(_scenes())
def test_scene_roundtrip_on_drawn_scenes(drawn):
    assert scene_load(scene_dump(drawn)) == drawn


# tokens that are valid in no position of any row
_BAD_TOKENS = st.sampled_from(["x", "1/0", "gamma3", "+", "1//2", "nan"])


@st.composite
def _mutated_rows(draw):
    """A dumped scene with one row made faulty, and that row's number."""
    lines = scene_dump(draw(_scenes())).splitlines()
    k = draw(st.integers(1, len(lines) - 1))     # any row but the header
    parts = lines[k].split()
    how = draw(st.sampled_from(["replace", "drop", "append", "repeat"]))
    if how == "repeat":
        lines.insert(k + 1, lines[k])
        return "\n".join(lines) + "\n", k + 2
    i = draw(st.integers(0, len(parts) - 1))
    if how == "replace":
        parts[i] = draw(_BAD_TOKENS)
    elif how == "drop":
        del parts[i]
    else:
        parts.append(str(draw(_RATIONALS)))
    lines[k] = " ".join(parts)
    return "\n".join(lines) + "\n", k + 1


@settings(max_examples=60)
@given(_mutated_rows())
def test_mutated_scene_row_names_its_line(mutated):
    # a wrong token, a token too few or too many, a repeated row: each is a
    # ValueError naming the row in the format's terms, never another exception
    text, lineno = mutated
    with pytest.raises(ValueError, match=rf"^line {lineno}: ") as info:
        scene_load(text)
    assert not _PYTHON_TEXT.search(str(info.value))


@given(st.lists(st.lists(st.sampled_from(
    ["SCENE", "curve", "z", "pushoff_star", "maslov", "gamma0", "gamma1", "h", "v",
     "star", "+1", "-1", "e01", "x_id", "1/2", "1/0", "3", "x", "#"]),
    max_size=7), max_size=12))
def test_scene_load_raises_only_value_error(rows):
    text = "\n".join(" ".join(row) for row in rows)
    try:
        scene_load(text)
    except ValueError:
        pass


# -- fast paths against their oracles ---------------------------------------

def _outcome(count, *args):
    """The count, or the AssertionError raised for a boundary point."""
    try:
        return count(*args)
    except AssertionError as exc:
        return exc


def _same(a, b):
    if isinstance(a, AssertionError) or isinstance(b, AssertionError):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _unscaled(p, n):
    return (Fr(p[0], n), Fr(p[1], n))


def _scaled(p, n):
    return (int(p[0] * n), int(p[1] * n))


def _bbox(segments):
    xs = [x for seg in segments for x, _ in seg]
    ys = [y for seg in segments for _, y in seg]
    return (min(xs), max(xs)), (min(ys), max(ys))


def _boundary(lifts, params):
    """The segments PolygonWitness.boundary builds from these arcs."""
    arcs = [(None, t_from, t_to, None, None) for t_from, t_to in params]
    return polygons.PolygonWitness(None, None, arcs, lifts, 0, 0, 0, 0, None).boundary


@pytest.fixture
def checked_fast_paths(monkeypatch):
    """Given a scene, route its census through a wrapper that compares each
    closed-form z count with the integer scanline on the witness's
    boundary at the census's scale and, with fraction set, with the
    point-by-point Fraction count on the unscaled boundary; returns the
    count of comparisons."""
    seen = Counter()
    z_count = polygons._z_count

    def install(scene, fraction=True):
        with mock.patch.object(polygons, "_marked", lambda *args: None):
            n = polygons._scale(scene)[0]   # also for z on a curve

        def count(z, scale, lifts, params):
            assert scale == n
            got = z_count(z, n, lifts, params)
            segments = _boundary(lifts, params)
            bbox = _bbox(segments)
            assert got == _count_lattice_points(z, segments, bbox, n)
            if fraction:
                assert got == oracles.count_lattice_points(
                    _unscaled(z, n), [(_unscaled(a, n), _unscaled(b, n)) for a, b in segments],
                    tuple((Fr(lo, n), Fr(hi, n)) for lo, hi in bbox))
            seen["count"] += 1
            return got

        monkeypatch.setattr(polygons, "_z_count", count)
        return seen

    return install


def _scene_with_z(scene, z):
    return scene if z is None else scene_load(
        scene_dump(scene).replace("z 3/4 3/4", f"z {z}"))


@pytest.mark.parametrize("z", [None, "1/2 1/4", "1/200 1/100"])
def test_census_matches_oracles_per_witness(scene, checked_fast_paths, z):
    # every z_count of the wrap-4 census, on the preset scene and on scenes
    # loaded with other hexagonal basepoints (the last one sits inside the
    # pushoff's bump), equals the integer scanline's and the bounding-box
    # scan's
    scene = _scene_with_z(scene, z)
    assert scene.z_in_hexagon()
    seen = checked_fast_paths(scene)
    tris, quads = triangle_witnesses(scene, 4), quad_witnesses(scene, 4)
    assert len(tris) == 10 and len(quads) == 25
    assert seen["count"] == len(tris) + len(quads)


@pytest.mark.parametrize("z", [None, "1/2 1/4", "1/200 1/100",
                               "0 1/4", "3/4 1/4", "99/100 7/8"])
def test_census_matches_integer_scanline_up_to_wrap_12(scene, checked_fast_paths, z):
    # the same at wraps 1-12 against the integer scanline alone, on the
    # hexagonal basepoints and on the three on the curves: there a census
    # refuses z, as the Fraction test names it, before it counts on any
    # witness, and the triangles, which never meet the pushoff, count at
    # its trough
    scene = _scene_with_z(scene, z)
    seen = checked_fast_paths(scene, fraction=False)
    for wrap in range(1, 13):
        for census in (triangle_witnesses, quad_witnesses):
            got, refusal = _census(census, scene, wrap), _refusal(scene.z, census)
            assert got == refusal if refusal else isinstance(got, list)
    assert seen["count"] == 0 if z in ("0 1/4", "3/4 1/4") else seen["count"] >= 12 * 2


def _in_fractions(scene, w):
    """The fields of a census witness, its coordinates read in Fractions:
    Fraction(v, N) for each int v of points, arcs and the boundary built
    from its lifts, which takes their place, N the census's scale."""
    n = polygons._scale(scene)[0]

    def point(p):
        return (Fr(p[0], n), Fr(p[1], n))

    fields = {k: v for k, v in vars(w).items() if k != "lifts"}
    return dict(fields, points=[point(p) for p in w.points],
                arcs=[(name, Fr(t_from, n), Fr(t_to, n), travel, positive)
                      for name, t_from, t_to, travel, positive in w.arcs],
                boundary=[(point(a), point(b)) for a, b in w.boundary])


@pytest.mark.parametrize("z", [None, "1/2 1/4", "1/200 1/100"])
def test_census_matches_post_filtered_oracle(scene, z):
    # the integer census, its candidates ranged by the wrap bound, keeps
    # every witness, field by field, of the Fraction census that builds
    # each candidate of the parameter square in full and filters afterwards
    scene = _scene_with_z(scene, z)
    for wrap in range(1, 7):
        for fast, slow in ((triangle_witnesses, oracles.triangle_witnesses),
                           (quad_witnesses, oracles.quad_witnesses)):
            assert [_in_fractions(scene, w) for w in fast(scene, wrap)] == \
                [vars(w) for w in slow(scene, wrap)]


def test_census_builds_no_fraction(scene, monkeypatch):
    # witnesses keep the census's ints: no census calls Fraction, on the
    # preset scene or on a loaded one at another basepoint
    calls = Counter()

    def counting(*args):
        calls["Fr"] += 1
        return Fr(*args)

    # loaded before the patch: scene_load reads the file's numbers with Fr
    scenes = [scene, _scene_with_z(scene, "1/200 1/100")]
    monkeypatch.setattr(polygons, "Fr", counting)
    for drawn in scenes:
        assert len(triangle_witnesses(drawn, 4)) == 10
        assert len(quad_witnesses(drawn, 4)) == 25
    assert calls["Fr"] == 0


def _census(census, scene, wrap, read=vars):
    """The census's witnesses as field dicts, or the AssertionError text."""
    try:
        return [read(w) for w in census(scene, wrap)]
    except AssertionError as exc:
        return str(exc)


def _refusal(z, census):
    """The text a census refuses z with, by the Fraction test of
    oracles.curves_through (only quadrilaterals meet the pushoff), or
    None."""
    curves = [c for c in oracles.curves_through(z) if c != "pushoff" or census is quad_witnesses]
    return f"marked point ({z[0]}, {z[1]}) on {curves[0]}" if curves else None


_TWELFTHS = st.integers(2, 12).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda k: Fr(k, d)))


@given(z=st.tuples(_TWELFTHS, _TWELFTHS), wrap=st.integers(1, 2))
# z on the pushoff's bump: the oracle meets a translate on a boundary, and
# the census refuses z
@example(z=(Fr(1, 100), Fr(3, 8)), wrap=2)
def test_census_matches_oracle_at_other_scales(scene, z, wrap):
    # hexagonal basepoints with denominators 2..12 put the census at scales
    # other than 200 (15,400 for sevenths and elevenths), and the integer
    # census equals the Fraction one field by field; where the Fraction one
    # meets a translate of z on a boundary, the census refuses z
    drawn = polygons.PolygonScene(scene.curves, z, scene.maslov, scene.pushoff_star)
    assume(drawn.z_in_hexagon())
    for fast, slow in ((triangle_witnesses, oracles.triangle_witnesses),
                       (quad_witnesses, oracles.quad_witnesses)):
        want = _census(slow, drawn, wrap)
        if isinstance(want, str) and want.endswith("on boundary"):
            want = _refusal(z, fast)
            assert want is not None
        assert _census(fast, drawn, wrap, lambda w: _in_fractions(drawn, w)) == want
    # the census enumerates only x_id; the oracle builds x_top too
    assert isinstance(want, str) or all(w["corners"][0] == "x_id" for w in want)


@pytest.mark.parametrize("wrap", [1, 2, 3, 4])
def test_no_quadrilateral_at_the_degree_one_crossing(scene, wrap):
    # the Fraction census builds every candidate at x_top as well as at
    # x_id, and keeps none at x_top: the integer census enumerates x_id only
    quads = oracles.quad_witnesses(scene, wrap)
    assert quads and all(w.corners[0] == "x_id" for w in quads)


def test_one_lattice_count_per_witness(scene, monkeypatch):
    # the candidate ranges come from the wrap bound and the side rule at
    # x_id: every candidate built has each arc within the bound, and is a
    # witness, with one lattice count
    calls = Counter()
    build, count_points = polygons._build_witness, polygons._z_count
    n = polygons._scale(scene)[0]

    def candidate(scene, scale, z, names, lifts, params, corner_names):
        calls["candidates"] += 1
        assert max(abs(t_to - t_from) for t_from, t_to in params) < (3 + 1) * n
        return build(scene, scale, z, names, lifts, params, corner_names)

    def count(*args):
        calls["count"] += 1
        return count_points(*args)

    monkeypatch.setattr(polygons, "_build_witness", candidate)
    monkeypatch.setattr(polygons, "_z_count", count)
    built = 0
    for census in (triangle_witnesses, quad_witnesses):
        calls.clear()
        witnesses = census(scene, 3)
        assert calls["count"] == calls["candidates"] == len(witnesses)
        built += calls["candidates"]
    assert len(witnesses) == 16
    # the parameter square has 120 candidates (10 triangles, 110
    # quadrilaterals at x_id); the census builds only its 24 witnesses
    # (8 and 16)
    assert built == 24


# heights and abscissae where arcs and knots sit, and a few off them
_ON_ARCS = st.sampled_from([Fr(0), Fr(1, 8), Fr(1, 4), Fr(3, 8), Fr(1, 2), Fr(5, 8),
                            Fr(3, 4), Fr(7, 8), Fr(1, 100), Fr(99, 100), Fr(1, 200),
                            Fr(199, 200), Fr(3, 200)])
_COORD = st.one_of(_ON_ARCS, st.fractions(0, 1, max_denominator=24))


def _unrefused(drawn, wrap):
    """(N, z at scale N, {census: witnesses}) at wrap, built with the
    censuses' refusal of z on a curve bypassed."""
    with mock.patch.object(polygons, "_marked", lambda *args: None):
        return (*polygons._scale(drawn),
                {census: census(drawn, wrap) for census in (triangle_witnesses, quad_witnesses)})


def _scanline(zn, n, w):
    """The integer scanline's outcome on a witness's boundary."""
    boundary = w.boundary
    return _outcome(_count_lattice_points, zn, boundary, _bbox(boundary), n)


_BASEPOINTS = dict(z=st.tuples(_COORD, _COORD), wrap=st.integers(1, 5))


@settings(max_examples=80)
@given(**_BASEPOINTS)
@example(z=(Fr(0), Fr(1, 4)), wrap=3)
@example(z=(Fr(3, 4), Fr(1, 4)), wrap=3)
@example(z=(Fr(99, 100), Fr(7, 8)), wrap=3)
@example(z=(Fr(1, 100), Fr(3, 8)), wrap=3)     # the bump's crest, a box edge
@example(z=(Fr(0), Fr(1, 8)), wrap=3)          # the corner at x_id
def test_z_count_matches_integer_scanline_on_every_witness(scene, z, wrap):
    # on every witness of the census built with the refusal of z bypassed,
    # for basepoints on every curve and knot: wherever the integer
    # scanline counts, the closed form's count equals it
    drawn = polygons.PolygonScene(scene.curves, z, scene.maslov, scene.pushoff_star)
    n, zn, built = _unrefused(drawn, wrap)
    for w in built[triangle_witnesses] + built[quad_witnesses]:
        want = _scanline(zn, n, w)
        assert isinstance(want, AssertionError) or w.z_count == want


@settings(max_examples=80)
@given(**_BASEPOINTS)
@example(z=(Fr(3, 4), Fr(0)), wrap=1)          # on gamma0 alone
@example(z=(Fr(0), Fr(1, 4)), wrap=1)          # gamma1: a triangle side is a box edge
@example(z=(Fr(3, 4), Fr(1, 4)), wrap=1)       # gamma2
@example(z=(Fr(99, 100), Fr(7, 8)), wrap=1)    # the pushoff's trough
def test_census_refuses_every_basepoint_the_scanline_flags(scene, z, wrap):
    # the census built with the refusal bypassed: where the integer
    # scanline flags a translate of z on any witness's boundary, z lies on
    # a curve by the Fraction test, and the census refuses it naming the
    # first; otherwise the census is the bypassed one
    def read(w):
        return {k: v for k, v in vars(w).items() if k != "lifts"}

    drawn = polygons.PolygonScene(scene.curves, z, scene.maslov, scene.pushoff_star)
    n, zn, built = _unrefused(drawn, wrap)
    for census, witnesses in built.items():
        refusal = _refusal(z, census)
        if any(isinstance(_scanline(zn, n, w), AssertionError) for w in witnesses):
            assert refusal is not None
        assert _census(census, drawn, wrap, read) == (refusal or list(map(read, witnesses)))


def test_census_builds_no_segments(scene, monkeypatch):
    # the census and the criterion read no PL boundary; only figures do
    def refuse(self, t0, t1):
        raise AssertionError("segments built")

    monkeypatch.setattr(CurveLift, "segments", refuse)
    for drawn in (scene, _scene_with_z(scene, "1/200 1/100")):
        m2, m3, check = triangle_criterion(drawn, 4)
        assert m2 == 0 and check.is_one()
        tris, quads = triangle_witnesses(drawn, 4), quad_witnesses(drawn, 4)
        assert len(tris) == 10 and len(quads) == 25
    with pytest.raises(AssertionError, match="segments built"):
        witness_svg(scene, quads[0])


def _corners_turn_left(lifts, params):
    """The Fraction census's corner test: every corner of the candidate
    turns strictly left, by oracles.CurveLift's one-sided directions."""
    travels = [1 if t_to > t_from else -1 for t_from, t_to in params]
    for k in range(len(params)):
        d_in = lifts[k - 1].direction(params[k - 1][1], travels[k - 1], end=True)
        d_out = lifts[k].direction(params[k][0], travels[k])
        if d_in[0] * d_out[1] - d_in[1] * d_out[0] <= 0:
            return False
    return True


def test_quadrilateral_convexity_is_the_side_rule(scene):
    # over the Fraction census's whole parameter square at wrap bound 16,
    # a quadrilateral at x_id has convex corners iff -c and m lie on
    # opposite sides of 1/8, the rule quad_witnesses enumerates by; every
    # triangle has convex corners
    bound, cross = 16 + 2, polygons.CROSS_LOW

    def lift(name, offset):
        return oracles.CurveLift(scene.curves[name].kind, Fr(offset))

    g0, g1, push = lift("gamma0", 0), lift("gamma1", 0), oracles.CurveLift("p", Fr(0))
    for c in (Fr(1, 2) + k for k in range(-bound, bound)):
        g2 = lift("gamma2", c)
        assert _corners_turn_left([g2, g0, g1], [(-c, Fr(0)), (c, Fr(0)), (Fr(0), -c)])
        for m in map(Fr, range(-bound, bound + 1)):
            params = [(cross, -c), (-c, m), (m + c, oracles._w(m)), (m, cross)]
            convex = _corners_turn_left([g1, g2, lift("gamma0", m), push], params)
            assert convex == ((-c > cross) != (m > cross))


def test_census_boundary_error_matches_oracle(scene, checked_fast_paths):
    # z on the pushoff's bump (w(3/8) = 1/100): a quadrilateral's boundary
    # runs through a translate of z, which the Fraction census meets; the
    # integer census refuses z before it counts on any quadrilateral,
    # naming the point as the scene file writes it, and the triangles,
    # which never meet the pushoff, count as the oracles do
    scene = scene_load(scene_dump(scene).replace("z 3/4 3/4", "z 1/100 3/8"))
    assert scene.z_in_hexagon()
    assert _census(oracles.quad_witnesses, scene, 2).endswith(" on boundary")
    seen = checked_fast_paths(scene)
    with pytest.raises(AssertionError) as info:
        quad_witnesses(scene, 2)
    assert str(info.value) == "marked point (1/100, 3/8) on pushoff"
    assert seen["count"] == 0
    assert len(triangle_witnesses(scene, 2)) == seen["count"] == 6


_HALVES = st.integers(-6, 6).map(lambda n: Fr(n, 2))
_VERTEX = st.tuples(_HALVES, st.integers(-3, 3).map(lambda n: Fr(n, 2)))
_BASE = st.sampled_from([(Fr(0), Fr(0)), (Fr(1, 2), Fr(0)), (Fr(1, 4), Fr(1, 2)),
                         (Fr(1, 3), Fr(1, 5))])


def _closed(vertices):
    return list(zip(vertices, vertices[1:] + vertices[:1]))


@settings(max_examples=300)
@given(vertices=st.lists(_VERTEX, min_size=3, max_size=7), pt=_BASE,
       extra=st.integers(1, 3))
# a crossing at a translate; a local maximum at one (skipped by the
# half-open rule); a horizontal segment through one; a clean count
@example(vertices=[(Fr(-1), Fr(-1)), (Fr(1), Fr(1)), (Fr(3), Fr(-1))], pt=(Fr(0), Fr(0)),
         extra=1)
@example(vertices=[(Fr(-2), Fr(-1)), (Fr(0), Fr(1)), (Fr(2), Fr(-1))], pt=(Fr(0), Fr(0)),
         extra=1)
@example(vertices=[(Fr(-2), Fr(-1)), (Fr(-2), Fr(1)), (Fr(2), Fr(1)), (Fr(2), Fr(-1)),
                   (Fr(1, 2), Fr(-1)), (Fr(1, 2), Fr(0)), (Fr(-3, 2), Fr(0)),
                   (Fr(-3, 2), Fr(-1))], pt=(Fr(0), Fr(0)), extra=1)
@example(vertices=[(Fr(-2), Fr(-2)), (Fr(2), Fr(-2)), (Fr(0), Fr(2))],
         pt=(Fr(1, 2), Fr(1, 2)), extra=1)
def test_scanline_count_matches_oracle(vertices, pt, extra):
    # the integer count at the least common scale of the input, or a
    # multiple of it, equals the point-by-point count in Fractions
    n = extra * lcm(*(v.denominator for p in vertices + [pt] for v in p))
    segments = _closed(vertices)
    xs = [x for x, _ in vertices]
    ys = [y for _, y in vertices]
    bbox = ((min(xs), max(xs)), (min(ys), max(ys)))
    got = _outcome(_count_lattice_points, _scaled(pt, n),
                   [(_scaled(a, n), _scaled(b, n)) for a, b in segments],
                   tuple((lo * n, hi * n) for lo, hi in bbox), n)
    assert _same(got, _outcome(oracles.count_lattice_points, pt, segments, bbox))


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(_SMALL, _SMALL, _SMALL)
@example(Fr(0), Fr(1, 2), Fr(1, 2))     # a star at the upper end, once not counted
@example(Fr(1, 2), Fr(1), Fr(1, 2))     # at the lower end
@example(Fr(3), Fr(-5, 2), Fr(7, 2))    # a translate at the upper end
def test_star_count_matches_enumerating_the_translates(a, b, star):
    # at the least common scale of the arc's ends: a star at either end
    # raises; otherwise the stars inside count, as enumerating them does
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi)
    n = lcm(lo.denominator, hi.denominator)
    assert _same(_outcome(_star_count, int(lo * n), int(hi * n), star, n),
                 _outcome(oracles.star_count, lo, hi, star))


# -- basepoints on the curves: the census's outcomes, pinned ----------------

_ON_A_CURVE = {
    # on gamma0 alone: its translates on the witnesses lie on their top or
    # bottom sides, which no row of a boundary search meets; each census
    # refuses z all the same
    (Fr(3, 4), Fr(0)): {wrap: ("marked point (3/4, 0) on gamma0",) * 2 for wrap in (1, 2, 3)},
    (Fr(0), Fr(1, 4)): {wrap: ("marked point (0, 1/4) on gamma1",) * 2 for wrap in (1, 2, 3)},
    (Fr(3, 4), Fr(1, 4)): {wrap: ("marked point (3/4, 1/4) on gamma2",) * 2
                           for wrap in (1, 2, 3)},
    # the pushoff's trough, w(7/8) = -1/100: the triangles miss it and count
    (Fr(99, 100), Fr(7, 8)): {
        1: ([1, 0, 0, 1], "marked point (99/100, 7/8) on pushoff"),
        2: ([3, 1, 0, 0, 1, 3], "marked point (99/100, 7/8) on pushoff"),
        3: ([6, 3, 1, 0, 0, 1, 3, 6], "marked point (99/100, 7/8) on pushoff"),
    },
}


@pytest.mark.parametrize("z", sorted(_ON_A_CURVE))
@pytest.mark.parametrize("wrap", [1, 2, 3])
def test_census_outcomes_for_basepoints_on_the_curves(scene, z, wrap):
    # each census's z counts, or the exact text it refuses z with: the
    # first of gamma0, gamma1, gamma2 (and, for the quadrilaterals, the
    # pushoff) that z lies on, whatever the wrap
    drawn = polygons.PolygonScene(scene.curves, z, scene.maslov, scene.pushoff_star)
    got = tuple(_census(census, drawn, wrap, lambda w: w.z_count)
                for census in (triangle_witnesses, quad_witnesses))
    assert got == _ON_A_CURVE[z][wrap]
