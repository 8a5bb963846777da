import itertools
import random
from pathlib import Path

import pytest

from ainfbench.gauge import gauge_apply, preset_gauge_G
from ainfbench.quiver import (AInfStructure, Element, Generator, QuiverCategory,
                              dump, load, preset_A, preset_C, preset_D)
GOLDEN = Path(__file__).parent / "golden"


def test_preset_A_products(Q):
    A = preset_A(Q)
    assert A.evaluate(2, ("u", "v")) == Element.single("f1", Q.one())
    # [v][u] = [e1] composed with the (-1)^{|u|} twist
    assert A.evaluate(2, ("v", "u")) == Element.single("e1", -Q.one())
    assert A.evaluate(2, ("e0", "e1")) == Element.single("e1", -Q.one())


def test_preset_A_no_higher_products(Q):
    A = preset_A(Q)
    for t in A.cat.tuples(5):
        assert A.evaluate(5, t).is_zero()


def test_noncomposable_rejected(Q):
    A = preset_A(Q)
    with pytest.raises(ValueError):
        A.evaluate(2, ("u", "u"))  # target b does not feed source a


def test_arity_beyond_truncation(Q):
    A = preset_A(Q, truncation=4)
    with pytest.raises(ValueError):
        A.evaluate(5, ("u", "v", "u", "v", "u"))


def test_preset_C_differential(Q):
    C = preset_C(Q)
    assert C.evaluate(1, ("v0",)) == Element.single("v01", -Q.one())
    assert C.evaluate(1, ("v1",)) == Element.single("v01", Q.one())
    assert C.evaluate(2, ("v0", "u01")) == Element.single("e1", -Q.one())


def test_preset_D_differential(Q):
    D = preset_D(Q)
    want = Element({"x01": -Q.one(), "x02": -Q.one()})
    assert D.evaluate(1, ("x0",)) == want


@pytest.mark.parametrize("preset", [preset_A, preset_C, preset_D])
def test_relations_and_unitality(Q, preset):
    struct = preset(Q)
    assert struct.ainf_check(6) == []
    struct.check_unital()


def test_corrupted_product_detected(Q):
    C = preset_C(Q)
    tables = {d: dict(t) for d, t in C.tables.items()}
    tables[2][("v0", "u01")] = Element.single("e1", Q.one())  # sign flipped
    bad = AInfStructure(Q, C.cat, C.truncation, tables)
    assert bad.ainf_check(6) != []


def test_quasi_isomorphism_dimensions(Q):
    # the small dg model and the big one share all cohomology dimensions,
    # and they are those of the 6-dimensional category
    dims_C = preset_C(Q).mu1_cohomology_dims()
    dims_D = preset_D(Q).mu1_cohomology_dims()
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


def test_degree_bookkeeping_enforced(Q):
    A = preset_A(Q)
    tables = {2: dict(A.tables[2])}
    tables[2][("u", "v")] = Element.single("f0", Q.one())  # wrong degree
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
        table[t] = Element.single(g, spec.one())
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
