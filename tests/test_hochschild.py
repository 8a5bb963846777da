import random

import pytest

import oracles
from ainfbench import hochschild
from ainfbench.hochschild import (Cochain, class_coordinate, coboundary,
                                  cochain_basis, cochain_to_vector,
                                  delta_matrix, euler_cochain, gerst_compose,
                                  gerstenhaber,
                                  hh_bar, is_coboundary, mu_cochain,
                                  reference_cocycle, vector_to_cochain)
from ainfbench.quiver import Element, preset_A, preset_C, preset_D
from ainfbench.scalars import FieldSpec

Q_TABLE = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (6, -4): 1, (7, -4): 1, (8, -6): 1}


def random_cochain(alg, r, s, rng, density=0.5):
    table = {}
    for key, g in cochain_basis(alg, r, s):
        if rng.random() < density:
            c = alg.spec.scalar(rng.randint(-4, 4), rng.randint(1, 3))
            table[key] = table.get(key, Element()) + Element.single(g, c)
    return Cochain(r, s, table)


def test_euler_derivation_is_a_cocycle(Q):
    A = preset_A(Q)
    assert coboundary(euler_cochain(A), A).is_zero()


def test_delta_squared_zero_randomized(Q):
    A = preset_A(Q)
    rng = random.Random(31)
    for r in range(0, 5):
        for s in (1, 0, -1, -2):
            phi = random_cochain(A, r, s, rng) if r else Cochain(
                0, s, {obj: Element.single(g, Q.scalar(rng.randint(-3, 3)))
                       for obj, g in cochain_basis(A, 0, s)})
            assert coboundary(coboundary(phi, A), A).is_zero(), (r, s)


def test_delta_matrix_matches_direct_coboundary(Q):
    A = preset_A(Q)
    rng = random.Random(5)
    for r in range(1, 5):
        for s in (0, -1, -2):
            phi = random_cochain(A, r, s, rng)
            cols, rows, matrix = delta_matrix(A, r, s)
            vec = cochain_to_vector(phi, cols)
            image = {}
            for j, x in vec.items():
                for i, a in matrix[j].items():
                    image[i] = image.get(i, 0) + a * x
            image = {i: v for i, v in image.items() if v}
            direct = coboundary(phi, A)
            assert vector_to_cochain(image, rows, r + 1, s, Q) == direct, (r, s)


def test_bracket_graded_antisymmetry_randomized(Q):
    # [a, b] = -(-1)^{||a|| ||b||} [b, a]
    A = preset_A(Q)
    rng = random.Random(77)
    for _ in range(10):
        r1, s1 = rng.randint(1, 3), rng.randint(-2, 0)
        r2, s2 = rng.randint(1, 3), rng.randint(-2, 0)
        a = random_cochain(A, r1, s1, rng)
        b = random_cochain(A, r2, s2, rng)
        factor = -1 if ((r1 + s1 - 1) * (r2 + s2 - 1)) % 2 == 0 else 1
        assert gerstenhaber(a, b, A) == gerstenhaber(b, a, A).scale(
            Q.scalar(factor)
        )


def test_self_bracket_of_even_cochain_vanishes(Q):
    A = preset_A(Q)
    rng = random.Random(13)
    phi = random_cochain(A, 3, -2, rng)  # ||phi|| = 0
    assert gerstenhaber(phi, phi, A).is_zero()


def test_bracket_graded_jacobi_randomized(Q):
    A = preset_A(Q)
    rng = random.Random(99)
    for _ in range(6):
        bidegs = [(rng.randint(1, 3), rng.randint(-2, 0)) for _ in range(3)]
        a, b, c = (random_cochain(A, r, s, rng, density=0.4)
                   for r, s in bidegs)
        na, nb, _ = ((r + s - 1) % 2 for r, s in bidegs)
        lhs = gerstenhaber(a, gerstenhaber(b, c, A), A)
        t1 = gerstenhaber(gerstenhaber(a, b, A), c, A)
        t2 = gerstenhaber(b, gerstenhaber(a, c, A), A)
        if na * nb % 2:
            t2 = -t2
        assert lhs == t1 + t2


@pytest.mark.parametrize("char,extra", [
    (0, {}),
    (2, {(2, -1): 1, (3, -1): 1, (4, -3): 1, (5, -3): 1}),
    (3, {(3, -2): 1, (4, -2): 1}),
])
def test_hh_table(char, extra):
    want = dict(Q_TABLE)
    want.update(extra)
    assert hh_bar(FieldSpec(char), 8) == want


def test_hh_f5_matches_rational_pattern():
    assert hh_bar(FieldSpec(5), 6) == {k: v for k, v in Q_TABLE.items() if k[0] <= 6}


def test_hh_large_prime_matches_rational_table():
    # F_p for the word-size prime 2^31 - 1 has no extra cells: it must
    # give the Q table
    assert hh_bar(FieldSpec(2147483647), 6) == {k: v for k, v in Q_TABLE.items()
                                                if k[0] <= 6}


def test_is_coboundary_constructed_case(Q):
    A = preset_A(Q)
    rng = random.Random(2)
    nu0 = random_cochain(A, 3, -2, rng)
    phi = coboundary(nu0, A)
    nu = is_coboundary(phi, A)
    assert nu is not None
    assert coboundary(nu, A) == phi


def test_is_coboundary_zero(Q):
    A = preset_A(Q)
    nu = is_coboundary(Cochain(4, -2), A)
    assert nu is not None and nu.is_zero()


def test_is_coboundary_rejects_noncocycle(Q):
    A = preset_A(Q)
    rng = random.Random(8)
    phi = random_cochain(A, 3, -1, rng)
    assert not coboundary(phi, A).is_zero()
    with pytest.raises(ValueError, match="^input is not a cocycle$"):
        is_coboundary(phi, A)


@pytest.mark.parametrize("key, out, message", [
    (("u", "v"), "u", "^input is not a cocycle$"),          # wrong degree, bracket nonzero
    (("e0", "e1"), "e1", r"^cochain entry \(\('e0', 'e1'\), e1\) outside basis$"),
])
def test_is_coboundary_on_entries_outside_the_basis(Q, key, out, message):
    # the bracket judges such a cochain before the basis check rejects it
    A = preset_A(Q)
    with pytest.raises(ValueError, match=message):
        is_coboundary(Cochain(2, 0, {key: Element.single(out, Q.one())}), A)


def test_reference_cocycles_exist(Q):
    A = preset_A(Q)
    for (r, s) in ((6, -4), (8, -6)):
        ref = reference_cocycle(A, r, s)
        assert coboundary(ref, A).is_zero()
        assert is_coboundary(ref, A) is None  # class is nonzero
        assert class_coordinate(ref, A) == Q.one()
    with pytest.raises(ValueError):
        reference_cocycle(A, 7, -5)  # that cell vanishes


@pytest.fixture
def fresh_references(monkeypatch):
    """An empty reference-cell cache for one test."""
    monkeypatch.setattr(hochschild, "_CELLS", {})
    monkeypatch.setattr(hochschild, "_SQUARES_ZERO", {})
    return hochschild


def test_reference_cache_equals_fresh_computation(Q, fresh_references):
    A = preset_A(Q)
    for (r, s) in ((6, -4), (8, -6)):
        first = reference_cocycle(A, r, s)
        again = reference_cocycle(A, r, s)
        assert first == again == fresh_references.Cell(A, r, s).reference()
    assert len(fresh_references._CELLS) == 2


@pytest.mark.parametrize("char", [0, 5])
def test_lazy_reference_equals_whole_kernel_scan(char):
    A = preset_A(FieldSpec(char))
    for (r, s) in ((6, -4), (8, -6)):
        ref = hochschild.Cell(A, r, s).reference()
        assert ref == oracles.find_reference(A, r, s)
        assert not ref.is_zero()


def test_reference_cache_is_keyed_by_content(Q, model8, fresh_references):
    # mc_extend's base and the transferred model are distinct objects
    # with one mu^2: one entry.  Another field gets its own.
    base = preset_A(Q, 10)
    assert base is not model8.minimal and base.cat is not model8.minimal.cat
    assert reference_cocycle(base, 6, -4) == reference_cocycle(model8.minimal, 6, -4)
    assert len(fresh_references._CELLS) == 1
    F5 = FieldSpec(5)
    ref5 = reference_cocycle(preset_A(F5), 6, -4)
    assert len(fresh_references._CELLS) == 2
    assert ref5.table and all(el.p == 5 for el in ref5.table.values())
    assert all(type(c) is int and 0 <= c < 5 for el in ref5.table.values()
               for c in el.terms.values())


def test_reference_cache_survives_caller_mutation(Q, fresh_references):
    A = preset_A(Q)
    want = fresh_references.Cell(A, 6, -4).reference()
    got = reference_cocycle(A, 6, -4)
    got.table.clear()
    reference_cocycle(A, 6, -4).table[("u",)] = Element.single("u", Q.one())
    assert reference_cocycle(A, 6, -4) == want


def test_mu_cochain_on_transferred_model(Q, model12):
    B = model12.minimal
    m3 = mu_cochain(B, 3)
    assert coboundary(m3, B).is_zero()
    # mu^6 of the raw transferred model is NOT yet a cocycle (mu3, mu4 live)
    m6 = mu_cochain(B, 6)
    assert not coboundary(m6, B).is_zero()


def test_mc_identity_on_transferred_model(Q, model12):
    # the relations of the transferred structure, re-derived entirely in
    # cochain language: delta(mu^d) = - sum_{j=3}^{d-1} mu^j o mu^{d+2-j};
    # cross-validates the relation checker against the circle product
    B = model12.minimal
    for d in range(3, 9):
        lhs = coboundary(mu_cochain(B, d), B)
        rhs = Cochain(d + 1, 2 - d)
        for j in range(3, d):
            k = d + 2 - j
            mj, mk = mu_cochain(B, j), mu_cochain(B, k)
            if mj.is_zero() or mk.is_zero():
                continue
            rhs = rhs + gerst_compose(mj, mk, B)
        assert (lhs + rhs).is_zero(), d


def test_gerst_compose_matches_brute_force(Q, mc8):
    # the chosen cochains of mc_extend against each other and both
    # coboundary orders against mu^2 (identity inputs kept), plus random
    # cochains of preset_A whose outputs may be identity components
    A = preset_A(Q)
    mu2 = Cochain(2, 0, mc8.tables[2])
    chosen = [mu_cochain(mc8, d) for d in (6, 8)]
    cases = [(a, b, mc8) for a in chosen for b in chosen if a.r + b.r <= 14]
    cases += [(mu2, phi, mc8) for phi in chosen] + [(phi, mu2, mc8) for phi in chosen]
    rng = random.Random(11)
    for (r1, s1), (r2, s2) in (((2, -1), (3, -2)), ((3, -1), (2, -1)), ((1, -1), (4, -2))):
        cases.append((random_cochain(A, r1, s1, rng, 0.9),
                      random_cochain(A, r2, s2, rng, 0.9), A))
    for phi, psi, alg in cases:
        got = gerst_compose(phi, psi, alg).table
        want = oracles.gerst_compose(phi, psi, alg).table
        assert got and list(got.items()) == list(want.items()), (phi, psi)


def _cells(cat, r_max):
    """Every (r, s) with r <= r_max at which a basis can be nonempty, and
    one empty s on each side."""
    degs = [g.degree for g in cat.generators.values()]
    for r in range(r_max + 1):
        for s in range(min(degs) - r * max(degs) - 1, max(degs) - r * min(degs) + 2):
            yield r, s


@pytest.mark.parametrize("preset, char, r_max", [
    ("A", 0, 7), ("A", 2, 7), ("A", 3, 7), ("A", 5, 7), ("C", 0, 6), ("D", 0, 4),
])
def test_bases_and_delta_columns_match_full_enumeration(preset, char, r_max):
    # the degree-pruned bases and the row loop over the row basis' tuples
    # give the full enumeration's bases and columns, in order, column
    # entries in insertion order
    alg = {"A": preset_A, "C": preset_C, "D": preset_D}[preset](FieldSpec(char))
    nonempty = 0
    for r, s in _cells(alg.cat, r_max):
        assert cochain_basis(alg, r, s) == oracles.cochain_basis(alg, r, s), (r, s)
        cols, rows, columns = delta_matrix(alg, r, s)
        want_cols, want_rows, want = oracles.delta_matrix(alg, r, s)
        assert (cols, rows) == (want_cols, want_rows), (r, s)
        assert [list(c.items()) for c in columns] == [list(c.items()) for c in want], (r, s)
        nonempty += bool(cols and rows)
    assert nonempty >= 3 * r_max
