import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import preset_D
from ainfbench import quiver
from ainfbench.gauge import GaugeTransformation, gauge_apply, mc_extend, preset_gauge_G
from ainfbench.hochschild import Cochain
from ainfbench.quiver import (AInfStructure, Element, Generator, QuiverCategory,
                              dump, load, preset_A, preset_C)
from ainfbench.scalars import FieldSpec
from test_polygons import _PYTHON_TEXT
GOLDEN = Path(__file__).parent / "golden"


def test_preset_A_products(Q):
    mu2 = preset_A(Q).tables[2]
    assert mu2[("u", "v")] == Element.single("f1", 1)
    # [v][u] = [e1] composed with the (-1)^{|u|} twist
    assert mu2[("v", "u")] == Element.single("e1", -1)
    assert mu2[("e0", "e1")] == Element.single("e1", -1)


def test_preset_A_no_higher_products(Q):
    assert preset_A(Q).present_arities() == [2]


def test_noncomposable_rejected(Q):
    A = preset_A(Q)
    with pytest.raises(ValueError, match="noncomposable"):
        # target b does not feed source a
        AInfStructure(Q, A.cat, 12, {2: {("u", "u"): Element.single("f1", 1)}})


def test_arity_beyond_truncation(Q):
    A = preset_A(Q, truncation=4)
    with pytest.raises(ValueError, match=r"^table arity 5 not in 1\.\.4$"):
        AInfStructure(Q, A.cat, 4, {5: {("u", "v", "u", "v", "u"): Element.single("u", 1)}})


def test_preset_C_differential(Q):
    C = preset_C(Q)
    assert C.tables[1][("v0",)] == Element.single("v01", -1)
    assert C.tables[1][("v1",)] == Element.single("v01", 1)
    assert C.tables[2][("v0", "u01")] == Element.single("e1", -1)


def test_preset_D_differential(Q):
    D = preset_D(Q)
    want = Element({"x01": -1, "x02": -1})
    assert D.tables[1][("x0",)] == want


@pytest.mark.parametrize("preset", [preset_A, preset_C, preset_D])
def test_relations_and_unitality(Q, preset):
    struct = preset(Q)
    assert struct.ainf_check(6) == []
    oracles.check_unital(struct)


def test_corrupted_product_detected(Q):
    C = preset_C(Q)
    tables = {d: dict(t) for d, t in C.tables.items()}
    tables[2][("v0", "u01")] = Element.single("e1", 1)  # sign flipped
    bad = AInfStructure(Q, C.cat, C.truncation, tables)
    assert bad.ainf_check(6) != []


def test_quasi_isomorphism_dimensions(Q):
    # the small dg model and the big one share all cohomology dimensions,
    # and they are those of the 6-dimensional category
    dims_C = oracles.mu1_cohomology_dims(preset_C(Q))
    dims_D = oracles.mu1_cohomology_dims(preset_D(Q))
    assert dims_C == dims_D
    assert dims_C == {
        ("a", "a", 0): 1, ("a", "a", 1): 1,
        ("a", "b", 1): 1, ("b", "a", 0): 1,
        ("b", "b", 0): 1, ("b", "b", 1): 1,
    }


def test_dump_load_roundtrip(Q):
    for preset in (preset_A, preset_C, preset_D):
        text = dump(preset(Q))
        assert dump(load(text)) == text


def test_preset_C_golden(Q):
    assert dump(preset_C(Q)) == (GOLDEN / "preset_C.alg").read_text()


def test_load_reports_line_numbers(Q):
    text = dump(preset_C(Q))
    # corrupt one product so the output degree is inconsistent
    broken = text.replace("u01 v1 -> 1*f1", "u01 v1 -> 1*f0")
    with pytest.raises(ValueError):
        load(broken)
    with pytest.raises(ValueError, match="line 6"):
        load("FIELD Q\nTRUNCATION 2\nOBJECTS\na\nGENERATORS\nbadrow\n"
             "IDENTITIES\n")


@pytest.mark.parametrize("old, new, message", [
    ("TRUNCATION 12", "TRUNCATION x", "TRUNCATION x is not an integer"),
    ("TRUNCATION 12", "TRUNCATION 1/0", "TRUNCATION 1/0 is not an integer"),
    ("e1 a a 1", "e1 a a one", "generator degree one is not an integer"),
    ("b 1*f0", "b", "bad identity row 'b'"),
])
def test_load_message_speaks_the_format(old, new, message):
    # a header value or a generator degree that is not an integer, and an
    # identity row with no element, are named in the .alg format's terms,
    # with the row's line, not by Python
    lines = (GOLDEN / "preset_C.alg").read_text().splitlines()
    lineno = lines.index(old) + 1
    lines[lineno - 1] = new
    with pytest.raises(ValueError) as info:
        load("\n".join(lines) + "\n")
    assert str(info.value) == f"line {lineno}: {message}"
    assert not _PYTHON_TEXT.search(str(info.value))


def test_degree_bookkeeping_enforced(Q):
    A = preset_A(Q)
    tables = {2: dict(A.tables[2])}
    tables[2][("u", "v")] = Element.single("f0", 1)  # wrong degree
    with pytest.raises(ValueError):
        AInfStructure(Q, A.cat, 12, tables)


def test_load_rejects_arity_beyond_truncation(Q):
    text = dump(preset_A(Q, truncation=2))
    broken = text.replace("TRUNCATION 2", "TRUNCATION 1")
    with pytest.raises(ValueError):
        load(broken)


def brute_force_check(struct, up_to):
    """The oracle for ainf_check: relation_defect on every composable
    tuple of length <= up_to, in cat.tuples order."""
    return [(d, t) for d in range(1, up_to + 1) for t in struct.cat.tuples(d)
            if not struct.relation_defect(t).is_zero()]


@pytest.fixture(scope="module")
def oracle_structures(Q, model8, mc8):
    """(name, structure, check order).  preset_D stops at 5: it has
    27.5M composable tuples of length 8."""
    B = model8.minimal
    return [
        ("A", preset_A(Q), 8),
        ("C", preset_C(Q), 8),
        ("D", preset_D(Q), 5),
        ("B", B, 8),
        ("G_*B", gauge_apply(preset_gauge_G(Q, B.cat), B, 8), 8),
        ("mc", mc8, 8),
    ]


def test_ainf_check_matches_brute_force(oracle_structures):
    for name, struct, up_to in oracle_structures:
        assert struct.ainf_check(up_to) == brute_force_check(struct, up_to), name


def test_ainf_check_does_not_read_its_oracle(oracle_structures, monkeypatch):
    want = [brute_force_check(struct, up_to) for _, struct, up_to in oracle_structures]

    def refuse(self, names):
        raise AssertionError("ainf_check read relation_defect")

    monkeypatch.setattr(AInfStructure, "relation_defect", refuse)
    for (name, struct, up_to), bad in zip(oracle_structures, want):
        assert struct.ainf_check(up_to) == bad, name


def test_ainf_check_walks_no_arity_above_twice_the_top_one(monkeypatch):
    # a splice of mu^m into mu^n has arity m + n - 1, so however high the
    # truncation, no arity above 2 * (top arity) - 1 is scattered
    text = (GOLDEN / "preset_C.alg").read_text().replace("TRUNCATION 12", "TRUNCATION 100000")
    struct, calls, scatter = load(text), [], quiver.splices

    def counted(*args):
        calls.append(args)
        return scatter(*args)

    monkeypatch.setattr(quiver, "splices", counted)
    assert struct.ainf_check(100000) == []
    top = max(struct.tables)
    assert 0 < len(calls) <= (2 * top - 1) * len(struct.tables)


def _corrupt(struct, d, rng):
    """A copy of struct with one entry of mu^d rescaled, dropped or added."""
    cat, spec = struct.cat, struct.spec
    tables = {m: dict(t) for m, t in struct.tables.items()}
    table = tables.setdefault(d, {})
    free = [(t, g) for t in cat.tuples(d) if t not in table
            for g, gen in cat.generators.items()
            if gen.source == cat.source(t[-1]) and gen.target == cat.target(t[0])
            and gen.degree == sum(cat.deg(n) for n in t) + 2 - d]
    kind = rng.choice([k for k, ok in (("scale", table), ("drop", table), ("add", free)) if ok])
    if kind == "add":
        t, g = rng.choice(free)
        table[t] = Element.single(g, 1, spec.characteristic)
    else:
        key = rng.choice(sorted(table, key=lambda t: [cat.order[n] for n in t]))
        if kind == "drop":
            del table[key]
        else:
            table[key] = table[key].scale(spec.scalar(rng.choice((-1, 2, -3))))
    return AInfStructure(spec, cat, struct.truncation, tables)


def test_ainf_check_matches_brute_force_on_corruptions(oracle_structures):
    bases = {name: (struct, up_to) for name, struct, up_to in oracle_structures}
    plan = [("C", 1), ("D", 1), ("C", 2), ("D", 2), ("A", 2), ("B", 3), ("B", 4),
            ("B", 6), ("G_*B", 5), ("mc", 6)]
    sizes = []
    for seed in range(2 * len(plan)):
        name, d = plan[seed % len(plan)]
        struct, up_to = bases[name]
        bad = _corrupt(struct, d, random.Random(seed))
        got = bad.ainf_check(up_to)
        assert got == brute_force_check(bad, up_to), (seed, name, d)
        sizes.append(len(got))
    assert max(sizes) > 1 and sum(1 for n in sizes if n) >= len(sizes) // 2, sizes


def _skewed_category():
    # degrees -1, 0, 2 and 3, so the running sums can leave a target set
    # and come back to it
    gens = [Generator("x", "a", "a", -1), Generator("y", "a", "b", 2),
            Generator("z", "b", "a", 0), Generator("w", "b", "b", 3)]
    return QuiverCategory(["a", "b"], gens, {})


@pytest.mark.parametrize("name", ["A", "C", "D", "skewed"])
def test_tuples_with_totals_is_the_filtered_enumeration(Q, name):
    cat = _skewed_category() if name == "skewed" else {
        "A": preset_A, "C": preset_C, "D": preset_D}[name](Q).cat
    d_max = 4 if name == "D" else 5
    for alphabet in (None, cat.nonidentity_generators()):
        names = list(alphabet) if alphabet is not None else list(cat.generators)
        for d in range(1, d_max + 1):
            full = list(cat.tuples(d, alphabet))
            # declaration order is the product's lexicographic order
            assert full == [t for t in itertools.product(names, repeat=d)
                            if cat.composable(t)]
            sums = sorted({sum(cat.deg(n) for n in t) for t in full})
            for totals in ([], sums, sums[:1], sums[-1:], sums[1::2],
                           [sums[0] - 1, sums[-1] + 1], range(-3 * d, 3 * d, 4)):
                totals = set(totals)
                assert list(cat.tuples(d, alphabet, totals)) == [
                    t for t in full if sum(cat.deg(n) for n in t) in totals], (d, totals)
            # the sums the search hands out are the tuples' degree sums
            assert list(cat.tuples(d, alphabet, set(sums), sums=True)) == [
                (t, sum(cat.deg(n) for n in t)) for t in full]


# -- .alg files: capitals, round trip, faulty rows ----------------------------

def _same(a, b):
    """Equal structures: field, truncation, category and tables."""
    return ((a.spec, a.truncation, a.cat.objects, list(a.cat.generators.values()),
             a.cat.identities, a.tables)
            == (b.spec, b.truncation, b.cat.objects, list(b.cat.generators.values()),
                b.cat.identities, b.tables))


def test_capitalized_generator_names_load(Q):
    # a row whose first word is in capitals was read as a section header:
    # "line 7: unexpected text after Q0"; G<d> is no section name
    for name in ("Q0", "G2"):
        text = re.sub(r"\be0\b", name, (GOLDEN / "preset_C.alg").read_text())
        assert f"{name} a a 0" in text.splitlines()
        struct = load(text)
        assert name in struct.cat.generators and "e0" not in struct.cat.generators
        assert dump(struct) == text
        assert _same(load(dump(struct)), struct)


_GOLDEN_C = (GOLDEN / "preset_C.alg").read_text().splitlines()


def _edited(edit):
    lines = list(_GOLDEN_C)
    edit(lines)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, message", [
    # each was an error without its line, or a KeyError or IndexError
    (lambda ls: ls.insert(7, "e0 a a 0"), r"^line 8: duplicate generator e0$"),
    (lambda ls: ls.__setitem__(6, "e0 a z 0"), r"^line 7: unknown object in generator e0$"),
    (lambda ls: ls.__setitem__(3, "a x"), r"^line 4: bad or repeated object row 'a x'$"),
    (lambda ls: ls.insert(4, "a"), r"^line 5: bad or repeated object row 'a'$"),
    (lambda ls: ls.insert(16, "a 1*e0"), r"^line 17: unknown or repeated object a$"),
    (lambda ls: ls.__setitem__(15, "z 1*e0"), r"^line 16: unknown or repeated object z$"),
    (lambda ls: ls.__setitem__(15, "a 1*e1"), r"^line 16: identity of a uses invalid e1$"),
    (lambda ls: ls.__setitem__(22, "x e0 -> 1*e0"), r"^line 23: noncomposable mu\^2 key"),
    (lambda ls: ls.__setitem__(22, "e0 e1 -> 1*e0"),
     r"^line 23: mu\^2\('e0', 'e1'\) -> e0: expects degree 1, a->a$"),
    (lambda ls: ls.__setitem__(5, "x"), r"^line 39: missing section 'GENERATORS'$"),
    (lambda ls: ls.extend(["MU13", "e0 " * 12 + "e0 -> 1*e0"]),
     r"^line 40: table arity 13 not in 1\.\.12$"),
    (lambda ls: ls.extend(["MU0", "-> 1*e0"]), r"^line 40: table arity 0 not in 1\.\.12$"),
    # a row without its arrow, a zero denominator and text after a header
    (lambda ls: ls.__setitem__(22, "e0 e1 -1*e1"),
     r"^line 23: tuple \('e0', 'e1', '-1\*e1'\) has wrong arity for MU2$"),
    (lambda ls: ls.__setitem__(22, "e0 e1 -> -1/0*e1"), r"^line 23: zero denominator"),
    (lambda ls: ls.__setitem__(20, "MU2 e0 e0 -> 1*e0"), r"^line 21: unexpected text after MU2$"),
])
def test_faulty_alg_rows_name_their_line(edit, message):
    with pytest.raises(ValueError, match=message):
        load(_edited(edit))


def test_an_empty_file_names_line_1():
    # lines count from 1; an empty file has no line 0
    with pytest.raises(ValueError, match=r"^line 1: missing section 'FIELD'$"):
        load("")


def test_an_object_with_no_identity_row_has_the_zero_identity(Q):
    # dump read cat.identities[b] and raised KeyError
    struct = load(_edited(lambda ls: ls.__delitem__(16)))
    assert struct.cat.identities["b"] == Element()
    text = dump(struct)
    assert "b 0" in text.splitlines() and _same(load(text), struct)


def test_dump_refuses_a_name_read_as_a_header(Q):
    gens = [Generator("MU2", "a", "a", 0)]
    struct = AInfStructure(Q, QuiverCategory(["a"], gens, {"a": Element()}), 2)
    with pytest.raises(ValueError, match="^name MU2 would be read as a section header$"):
        dump(struct)


_ALG_FIELDS = [FieldSpec(0), FieldSpec(5), FieldSpec(7)]
# capitals included; a drawn name may also be a section name (MU2, IOTA3)
_ALG_NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,2}", fullmatch=True)


@st.composite
def _structures(draw):
    """A small structure on a drawn quiver: one or two objects, a few
    generators of degree -1 to 2, identities from the degree-0 loops, and
    a few entries of admissible degree per arity up to the truncation."""
    spec = draw(st.sampled_from(_ALG_FIELDS))
    names = draw(st.lists(_ALG_NAMES, min_size=3, max_size=6, unique=True))
    n_obj = draw(st.integers(1, 2))
    objects = names[:n_obj]
    gens = [Generator(n, draw(st.sampled_from(objects)), draw(st.sampled_from(objects)),
                      draw(st.integers(-1, 2))) for n in names[n_obj:]]
    identities = {}
    for obj in objects:
        loops = [g.name for g in gens if g.source == g.target == obj and g.degree == 0]
        chosen = draw(st.lists(st.sampled_from(loops), unique=True)) if loops else []
        identities[obj] = Element(dict.fromkeys(chosen, 1), spec.characteristic)
    cat = QuiverCategory(objects, gens, identities)
    truncation = draw(st.integers(2, 4))
    tables = {}
    for d in range(1, truncation + 1):
        slots = [(t, g.name) for t in cat.tuples(d) for g in gens
                 if (g.source, g.target) == (cat.source(t[-1]), cat.target(t[0]))
                 and g.degree == sum(cat.deg(n) for n in t) + 2 - d]
        if slots:
            for t, g in draw(st.lists(st.sampled_from(slots), max_size=4, unique=True)):
                c = spec.scalar(draw(st.integers(-9, 9).filter(bool)),
                                draw(st.sampled_from([1, 2, 3] if spec.characteristic
                                                     else [1, 2, 3, 4])))
                tables.setdefault(d, {})[t] = (tables.get(d, {}).get(t, Element())
                                               + Element.single(g, c, spec.characteristic))
    return AInfStructure(spec, cat, truncation, tables)


_SECTION_NAME = re.compile(r"FIELD|TRUNCATION|OBJECTS|GENERATORS|IDENTITIES|(MU|IOTA)\d+")


def _header_named(struct):
    """Whether an object or generator has the name of a section."""
    cat = struct.cat
    return any(_SECTION_NAME.fullmatch(n) for n in [*cat.objects, *cat.generators])


@given(_structures())
def test_alg_roundtrip_on_drawn_structures(struct):
    if _header_named(struct):
        with pytest.raises(ValueError, match="would be read as a section header"):
            dump(struct)
        return
    text = dump(struct)
    back = load(text)
    assert _same(back, struct)
    assert dump(back) == text


_BAD_ALG_TOKENS = st.sampled_from(["x", "1/0", "+", "1//2", "nan", "->", "e0", "a", "0",
                                   "-1", "*u", "Q0", "G2", "MU2", "MU0", "OBJECTS"])


@st.composite
def _mutated_alg(draw):
    """A dumped structure (a drawn one or preset C) with one line edited:
    a word replaced, dropped or added, or the line repeated."""
    struct = draw(st.one_of(st.just(None), _structures().filter(
        lambda s: not _header_named(s))))
    lines = list(_GOLDEN_C) if struct is None else dump(struct).splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["replace", "drop", "append", "repeat"]))
    parts = lines[k].split()
    if how == "repeat":
        lines.insert(k + 1, lines[k])
    elif how == "drop":
        del parts[draw(st.integers(0, len(parts) - 1))]
        lines[k] = " ".join(parts)
    else:
        i = draw(st.integers(0, len(parts) - (how == "replace")))
        parts[i:i + (how == "replace")] = [draw(_BAD_ALG_TOKENS)]
        lines[k] = " ".join(parts)
    return "\n".join(lines) + "\n"


@settings(max_examples=80)
@given(_mutated_alg())
def test_mutated_alg_raises_only_a_value_error_naming_a_line(text):
    # an edit may leave a valid file; any error is a ValueError with a line,
    # in the format's terms
    try:
        load(text)
    except ValueError as exc:
        assert re.match(r"^line \d+: ", str(exc)), str(exc)
        assert not _PYTHON_TEXT.search(str(exc)), str(exc)


@given(st.lists(st.lists(st.sampled_from(
    ["FIELD", "Q", "F5", "TRUNCATION", "4", "OBJECTS", "a", "GENERATORS", "e0",
     "IDENTITIES", "1*e0", "G2", "IOTA2", "MU2", "MU0", "e1", "u", "->", "1/2*e1", "+",
     "1/0", "x", "#"]), max_size=6), max_size=14))
def test_load_raises_only_value_error(rows):
    try:
        load("\n".join(" ".join(row) for row in rows))
    except ValueError:
        pass


# -- raw values: the field is checked where a value is stored -------------------

def test_elements_hold_raw_values_of_their_field(Q):
    F5 = FieldSpec(5)
    el = Element({"u": F5.scalar(-1), "v": F5.scalar(1, 2)}, 5)
    assert (el.p, el.terms) == (5, {"u": 4, "v": 3})
    assert Element({"u": -1, "v": 8}, 5) == el - Element.single("v", 5, 5) + Element()
    assert Element({"u": Q.scalar(1, 2), "v": Q.scalar(4, 2)}).terms == {
        "u": Fraction(1, 2), "v": 2}
    assert type(Element({"v": Fraction(4, 2)}).terms["v"]) is int
    assert el.scale(F5.scalar(2)).terms == {"u": 3, "v": 1}
    # equal raw values of two fields are two different Elements
    assert Element.single("u", 1, 5) != Element.single("u", 1)
    assert Element({}, 5) == Element()


def test_elements_of_two_fields_do_not_mix(Q):
    x, y = Element.single("u", 1), Element.single("u", 1, 5)
    for op in (lambda: x + y, lambda: y - x, lambda: y + Element.single("u", 1, 7)):
        with pytest.raises(ValueError, match="^field mismatch: "):
            op()
    # the zero element is the zero of every field
    assert x + Element({}, 5) == x and (Element() + y).p == 5


def test_tables_and_cochains_refuse_an_entry_of_another_field(Q):
    A = preset_A(Q, 4)
    foreign = Element.single("e1", 1, 5)
    with pytest.raises(ValueError, match=r"^mu\^2\('e0', 'e1'\): field mismatch: F5 vs Q$"):
        AInfStructure(Q, A.cat, 4, {2: {**A.tables[2], ("e0", "e1"): foreign}})
    with pytest.raises(ValueError, match=r"^g\^2\('e1', 'e1'\): field mismatch: F5 vs Q$"):
        GaugeTransformation(Q, A.cat, {2: {("e1", "e1"): foreign}})
    with pytest.raises(ValueError, match="^field mismatch: Q vs F5$"):
        Cochain(2, -1, {("e1", "e1"): Element.single("e1", 1), ("f1", "f1"): foreign})
    assert Cochain(2, -1, {("e1", "e1"): foreign}).table == {("e1", "e1"): foreign}


def test_each_loaded_entry_is_checked_once(Q, monkeypatch):
    # the rows were checked as they were parsed and again by the
    # constructor, which now alone checks them and names a bad row's line
    text = dump(mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10))
    checked = Counter()
    check = quiver.check_table

    def counted(cat, label, table, *args):
        checked.update((label, key) for key in table)
        return check(cat, label, table, *args)

    monkeypatch.setattr(quiver, "check_table", counted)
    struct = load(text)
    assert sum(map(len, struct.tables.values())) == len(checked) > 100
    assert set(checked.values()) == {1}
