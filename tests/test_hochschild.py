import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import cochain_to_vector, preset_D
from ainfbench import hochschild
from ainfbench.hochschild import (Cochain, class_coordinate, coboundary,
                                  cochain_basis,
                                  delta_matrix, gerst_compose,
                                  gerstenhaber,
                                  hh_bar, is_coboundary, mu_cochain,
                                  reference_cocycle, vector_to_cochain)
from ainfbench.linalg import Echelon, rank
from ainfbench.quiver import AInfStructure, Element, preset_A, preset_C
from ainfbench.scalars import FieldSpec, canonical

Q_TABLE = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (6, -4): 1, (7, -4): 1, (8, -6): 1}


def random_cochain(alg, r, s, rng, density=0.5):
    table = {}
    for key, g in cochain_basis(alg, r, s):
        if rng.random() < density:
            c = alg.spec.scalar(rng.randint(-4, 4), rng.randint(1, 3))
            table[key] = table.get(key, Element()) + Element.single(
                g, c, alg.spec.characteristic)
    return Cochain(r, s, table)


def test_euler_derivation_is_a_cocycle(Q):
    A = preset_A(Q)
    assert coboundary(oracles.euler_cochain(A), A).is_zero()


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
            image = [image.get(i, 0) for i in range(len(rows))]
            direct = coboundary(phi, A)
            assert vector_to_cochain(image, rows, r + 1, s, Q) == direct, (r, s)


def test_length_zero_coboundary_is_its_delta_matrix_column(Q):
    # delta of each basis cochain of C(0, s) is a length-1 cochain equal to
    # its column of delta_matrix(A, 0, s), read in that matrix's row basis;
    # a cochain with values at both objects gives the sum of its columns
    for spec in (Q, FieldSpec(5)):
        A, p = preset_A(spec), spec.characteristic
        for s in (0, 1):  # the degrees of Hom(x, x)
            cols, rows, matrix = delta_matrix(A, 0, s)
            assert cols
            table, want = {}, {}
            for j, ((obj, g), column) in enumerate(zip(cols, matrix)):
                image = coboundary(Cochain(0, s, {obj: Element.single(g, 1, p)}), A)
                assert (image.r, image.s) == (1, s)
                assert cochain_to_vector(image, rows) == column, (spec, obj, g)
                c = spec.scalar(j + 2, 3)
                table[obj] = table.get(obj, Element()) + Element.single(g, c, p)
                for i, v in column.items():
                    want[i] = want.get(i, 0) + c * v
            assert set(table) == {"a", "b"} and (canonical(want, p) or not rows)
            image = coboundary(Cochain(0, s, table), A)
            assert cochain_to_vector(image, rows) == canonical(want, p), (spec, s)


def test_gerst_compose_refuses_one_length_zero_factor(Q):
    A = preset_A(Q)
    obj, g = cochain_basis(A, 0, 0)[0]
    zero_length = Cochain(0, 0, {obj: Element.single(g, 1)})
    mu2 = Cochain(2, 0, A.tables[2])
    for phi, psi in ((zero_length, mu2), (mu2, zero_length)):
        with pytest.raises(ValueError, match="^circle product needs length >= 1 factors$"):
            gerst_compose(phi, psi, A)


@pytest.mark.parametrize("r", range(7))
@pytest.mark.parametrize("char", [0, 5, 7], ids=["Q", "F5", "F7"])
@given(seed=st.integers(0, 2**32))
def test_bracket_and_coboundary_equal_the_two_cochain_oracle(char, r, seed):
    # one scatter of both circle products equals the oracle's two Cochains,
    # subtracted, with its keys in cat.tuples order (the oracle's come as
    # the first product's, then the second's).  delta of a drawn cochain
    # (mostly no cocycle; over Q, denominators 1 to 3 mixed) and of that
    # coboundary (a cocycle, whose bracket cancels entirely); the bracket
    # of two drawn cochains whose product has at most 6 letters
    rng = random.Random(seed)
    A = preset_A(FieldSpec(char))

    def drawn(r):
        return random_cochain(A, r, rng.randint(-r, 1), rng, rng.choice((0.1, 0.5, 1)))

    phi = drawn(r)
    r1 = rng.randint(1, max(1, r))
    a, b = drawn(r1), drawn(rng.randint(1, 7 - r1))
    image = coboundary(phi, A)
    square = coboundary(image, A)
    for got, want in ((image, oracles.coboundary_by_cochains(phi, A)),
                      (square, oracles.coboundary_by_cochains(image, A)),
                      (gerstenhaber(a, b, A), oracles.gerstenhaber_by_cochains(a, b, A))):
        assert got == want
        assert list(got.table) == A.cat.tuples_among(got.table)
    assert square.is_zero()


def test_bracket_refuses_a_cochain_of_another_field(Q):
    # an F5 cocycle read over Q was bracketed from its residues, so its
    # delta read nonzero (34 keys of (7, -4)) and it passed for no cocycle
    A = preset_A(Q)
    mu2 = Cochain(2, 0, A.tables[2])
    phi = reference_cocycle(preset_A(FieldSpec(5)), 6, -4)
    obj, g = cochain_basis(A, 0, 0)[0]
    phi0 = Cochain(0, 0, {obj: Element.single(g, 1, 5)})
    for bracket in (lambda: coboundary(phi, A), lambda: coboundary(phi0, A),
                    lambda: gerstenhaber(phi, mu2, A), lambda: gerstenhaber(mu2, phi, A)):
        with pytest.raises(ValueError, match="^field mismatch: F5 vs Q$"):
            bracket()


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
        is_coboundary(Cochain(2, 0, {key: Element.single(out, 1)}), A)


def test_reference_cocycles_exist(Q):
    A = preset_A(Q)
    for (r, s) in ((6, -4), (8, -6)):
        ref = reference_cocycle(A, r, s)
        assert coboundary(ref, A).is_zero()
        assert is_coboundary(ref, A) is None  # class is nonzero
        assert class_coordinate(ref, A) == 1
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
        # the oracle's image test reads its rows in basis order
        assert oracles.delta_matrix(A, r - 1, s)[1] == cochain_basis(A, r, s)
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
    reference_cocycle(A, 6, -4).table[("u",)] = Element.single("u", 1)
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


def _by_key(rows, columns):
    """Each column as {row key: value}; rows is delta_matrix's numbering
    {key: id} or a row basis list, either one iterating in id order."""
    keys = list(rows)
    return [{keys[i]: v for i, v in col.items()} for col in columns]


def _assert_matches_oracle(alg, r, s, built):
    """delta_matrix's (cols, rows, columns) against the oracle's: the same
    column basis, and each column the same {row key: value}, its entries
    in ascending id order; every numbered row is an oracle row."""
    cols, rows, columns = built
    want_cols, want_rows, want = oracles.delta_matrix(alg, r, s)
    assert cols == want_cols and set(rows) <= set(want_rows), (r, s)
    assert list(rows.values()) == list(range(len(rows))), (r, s)
    assert all(list(c) == sorted(c) for c in columns), (r, s)
    assert _by_key(rows, columns) == _by_key(want_rows, want), (r, s)


@pytest.mark.parametrize("preset, char, r_max", [
    ("A", 0, 7), ("A", 2, 7), ("A", 3, 7), ("A", 5, 7), ("C", 0, 6), ("D", 0, 4),
])
def test_bases_and_delta_columns_match_full_enumeration(preset, char, r_max):
    # the degree-pruned bases give the full enumeration's, in order, and
    # the column-built columns its columns, compared by row key
    alg = {"A": preset_A, "C": preset_C, "D": preset_D}[preset](FieldSpec(char))
    nonempty = 0
    for r, s in _cells(alg.cat, r_max):
        assert cochain_basis(alg, r, s) == oracles.cochain_basis(alg, r, s), (r, s)
        built = delta_matrix(alg, r, s)
        _assert_matches_oracle(alg, r, s, built)
        nonempty += bool(built[0] and built[1])
    assert nonempty >= 3 * r_max


@pytest.mark.parametrize("char", [0, 5], ids=["Q", "F5"])
def test_delta_columns_match_full_enumeration_at_the_classify_cells(char):
    # the cells mc_extend(10) builds on preset A, up to (10, -8), whose
    # 750 columns meet 2,504 of the 2,508 rows: bases and columns by row
    # key, as in the sweep above
    A = preset_A(FieldSpec(char))
    for r, s in ((5, -4), (6, -4), (7, -6), (8, -6), (10, -8)):
        built = delta_matrix(A, r, s)
        _assert_matches_oracle(A, r, s, built)
    assert (len(built[0]), len(built[1])) == (750, 2504)
    assert len(oracles.cochain_basis(A, 11, -8)) == 2508


@given(st.integers(0, 2**32), st.lists(st.sampled_from((0, 0.1, 0.5, 0.9, 1)), min_size=1))
def test_skipped_columns_are_never_expanded(seed, densities):
    # at each cell of preset A with r <= 9, a skip set drawn from the
    # cell's column basis entries: every other column is the full build's,
    # by row key (skipping renumbers the rows); columns[j] is None when
    # cols[j] is in skip, and _column never runs for it
    rng = random.Random(seed)
    A = preset_A(FieldSpec(0))
    expanded, column = [], hochschild._column

    def counted_column(w, h, *rest):
        expanded.append((w, h))
        return column(w, h, *rest)

    for n, (r, s) in enumerate(_cells(A.cat, 9)):
        cols, full_rows, full = delta_matrix(A, r, s)
        full = _by_key(full_rows, full)
        density = densities[n % len(densities)]
        skip = frozenset(b for b in cols if rng.random() < density)
        expanded.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hochschild, "_column", counted_column)
            _, rows, columns = delta_matrix(A, r, s, skip)
        assert len(columns) == len(full)
        for b, col, want in zip(cols, columns, full):
            if b in skip:
                assert col is None, (r, s, b)
            else:
                assert _by_key(rows, [col]) == [want], (r, s, b)
        assert expanded == [(w if r else (), h) for w, h in cols if (w, h) not in skip]


_PRESETS = {"A": preset_A, "C": preset_C}


@lru_cache(maxsize=None)
def _structure(preset, char):
    return _PRESETS[preset](FieldSpec(char))


@lru_cache(maxsize=None)
def _full_rank(preset, char, r, s):
    return _uncleared_rank(_structure(preset, char), r, s)


def _hh_dim(preset, char, r, s):
    """HH at (r, s), r >= 1, from the ranks of delta on all its columns
    (_uncleared_rank): each is ranked once, and only where a test asks."""
    size = len(cochain_basis(_structure(preset, char), r, s))
    return size - _full_rank(preset, char, r, s) - _full_rank(preset, char, r - 1, s)


@lru_cache(maxsize=None)
def _oracle_delta(preset, char, r, s):
    """The oracle's delta from (r - 1, s), its rows in basis order."""
    return oracles.delta_matrix(_structure(preset, char), r - 1, s)


@lru_cache(maxsize=None)
def _solve_cells(preset, nonzero):
    """The cells (r, s), 1 <= r <= 9, whose delta from (r - 1, s) has
    columns and rows; with nonzero, those whose HH over Q is nonzero."""
    alg = _structure(preset, 0)
    return [(r, s) for r, s in _cells(alg.cat, 9) if r and cochain_basis(alg, r - 1, s)
            and cochain_basis(alg, r, s) and (not nonzero or _hh_dim(preset, 0, r, s))]


@given(st.sampled_from("AC"), st.sampled_from((0, 5)), st.data(), st.integers(0, 2**32))
def test_cell_answers_equal_a_solve_on_the_oracle_matrix(preset, char, data, seed):
    # Cell numbers its rows by first hit; its primitive, reference and
    # coordinate equal a solve through Echelon on the oracle's delta with
    # its rows in basis order.  Each right-hand side is delta of a random
    # cochain, once as it is and once plus 1 at a random row (mostly
    # infeasible); primitives on a drawn cell, and the reference and
    # coordinates on a drawn cell whose HH is nonzero
    rng = random.Random(seed)
    for nonzero in (False, True):
        r, s = data.draw(st.sampled_from(_solve_cells(preset, nonzero)))
        alg = _structure(preset, char)
        cols, rows, matrix = _oracle_delta(preset, char, r, s)
        F, cell = alg.spec, hochschild.Cell(alg, r, s)

        def draw(perturb, extra=None):
            """A right-hand side as (oracle vector, cochain), extra added."""
            b = dict(extra or {})
            for col in matrix:
                c = rng.randint(-3, 3) if rng.random() < 0.3 else 0
                for i, v in col.items():
                    b[i] = b.get(i, 0) + c * v
            if perturb:
                i = rng.randrange(len(rows))
                b[i] = b.get(i, 0) + 1
            b = canonical(b, char)
            return b, vector_to_cochain([b.get(i, 0) for i in range(len(rows))], rows, r, s, F)

        def oracle_solve(columns, b):
            x = Echelon(columns, char).solve(b)
            return None if x is None else vector_to_cochain(x[:len(cols)], cols, r - 1, s, F), x

        for perturb in (False, True):
            b, phi = draw(perturb)
            assert cell.primitive(phi) == oracle_solve(matrix, b)[0], (r, s, perturb)
        if not nonzero or not _hh_dim(preset, char, r, s):
            continue
        ref = cell.reference()
        assert ref == oracles.find_reference(alg, r, s), (r, s)
        if _hh_dim(preset, char, r, s) != 1:
            continue
        ref_vec = cochain_to_vector(ref, rows)
        for perturb in (False, True):
            c = rng.randint(1, 4)
            b, phi = draw(perturb, {i: c * v for i, v in ref_vec.items()})
            nu, x = oracle_solve(matrix + [ref_vec], b)
            if x is None:
                with pytest.raises(ValueError, match="not cohomologous"):
                    cell.coordinate(phi)
            else:
                assert cell.coordinate(phi) == (x[-1], nu), (r, s, perturb)


def test_rows_no_column_meets_keep_their_own_ids(Q):
    # the reference of (8, -6) has entries at 18 rows of C(8, -6) that no
    # column of delta from (7, -6) meets: each takes the next free id once,
    # and keeps it, so phi's residual is read on the reference's rows
    A = preset_A(Q)
    cell = hochschild.Cell(A, 8, -6)
    met = len(cell.rows)
    ref = cell.reference()
    assert len(cell.rows) == met + 18
    ids = cell.vector(ref)
    assert len(ids) == sum(len(el.terms) for el in ref.table.values())
    assert cell.vector(ref) == ids and len(cell.rows) == met + 18
    assert cell.coordinate(ref.scale(3)) == (3, Cochain(7, -6))


@pytest.fixture
def fresh_patterns(monkeypatch):
    """Empty basis and Q-record caches for one test."""
    monkeypatch.setattr(hochschild, "_BASES", {})
    monkeypatch.setattr(hochschild, "_RECORDS", {})
    return hochschild


def test_hh_bar_expands_only_the_kept_columns_across_fields(fresh_patterns, monkeypatch):
    # at each cell it eliminates, hh_bar expands only the columns outside
    # the pivot rows of the cell before (the skip it passes): on the Q pass
    # the cell's size less rank(r - 1, s), the columns that
    # test_hh_bar_hands_echelon_only_the_uncleared_columns counts.  The
    # bases depend on the category alone, so four fields enumerate each once,
    # and the rows of the last layer are numbered by first hit: no C(8, s)
    Q = FieldSpec(0)
    A = preset_A(Q)
    ranks = _uncleared_ranks(A, 7)
    sizes = {c: len(cochain_basis(A, *c)) for c in ranks}
    eliminated = [(r, s) for r, s in ranks if sizes[(r, s)] and cochain_basis(A, r + 1, s)]
    monkeypatch.setattr(hochschild, "_BASES", {})
    builds, enumerations = [], []  # builds: [char, (r, s), |skip|, expanded, size]
    build, column, enumerate_basis = (hochschild.delta_matrix, hochschild._column,
                                      hochschild._enumerate_basis)

    def counted_build(alg, r, s, skip=(), rows=None):
        builds.append([alg.spec.characteristic, (r, s), len(skip), 0])
        cols, rows, columns = build(alg, r, s, skip, rows)
        assert {b for b, c in zip(cols, columns) if c is None} == set(skip)
        builds[-1].append(len(cols))
        return cols, rows, columns

    def counted_column(*args):
        builds[-1][3] += 1
        return column(*args)

    def counted_enumeration(cat, r, s):
        enumerations.append((r, s))
        return enumerate_basis(cat, r, s)

    monkeypatch.setattr(hochschild, "delta_matrix", counted_build)
    monkeypatch.setattr(hochschild, "_column", counted_column)
    monkeypatch.setattr(hochschild, "_enumerate_basis", counted_enumeration)
    for char in (0, 5, 3, 2):
        F = FieldSpec(char)
        dims = hh_bar(F, 7)
        assert dims[(6, -4)] == 1 and dims[(0, 1)] == 2
    for char, cell, skipped, expanded, size in builds:
        assert expanded == size - skipped, (char, cell)
    q_pass = [(cell, skipped, expanded) for char, cell, skipped, expanded, _ in builds if not char]
    assert q_pass == [((r, s), ranks.get((r - 1, s), 0), sizes[(r, s)] - ranks.get((r - 1, s), 0))
                      for r, s in eliminated]
    cells = [(r, s) for r in range(8) for s in range(-(r + 1), 2)]
    assert sorted(enumerations) == sorted(set(cells) | {(r + 1, s) for r, s in cells
                                                        if sizes[(r, s)] and r < 7})


def test_pruned_basis_search_is_the_full_enumeration_up_to_length_11(fresh_patterns):
    # the search drops a prefix once no letters can take its degree sum to
    # a wanted total; at every cell of preset A with r <= 11 it keeps
    # exactly the full enumeration's basis
    A = preset_A(FieldSpec(0))
    nonempty = 0
    for r, s in _cells(A.cat, 11):
        want = oracles.cochain_basis(A, r, s)
        assert cochain_basis(A, r, s) == want, (r, s)
        nonempty += bool(want)
    assert nonempty == 54


@pytest.mark.parametrize("preset, r_max", [("A", 10), ("C", 7), ("D", 4)])
def test_column_built_pattern_is_the_row_walk(preset, r_max, fresh_patterns):
    # the columns of delta, each expanded from its column key, against the
    # walk over the whole row basis that tests each adjacent pair of each
    # row: its (column, row, slot) triples summed with the structure's
    # mu^2 values, made canonical, compared by row key.  Slots 2n and
    # 2n + 1 hold the n-th coefficient of mu^2 and its negative
    alg = {"A": preset_A, "C": preset_C, "D": preset_D}[preset](FieldSpec(0))
    slot_of, values = {}, []
    for key, el in alg.tables[2].items():
        for g, c in el.terms.items():
            slot_of.setdefault(key, []).append((g, len(values), len(values) + 1))
            values += [c, -c]
    nonempty = 0
    for r, s in _cells(alg.cat, r_max):
        cols, rows, columns = delta_matrix(alg, r, s)
        row_basis = cochain_basis(alg, r + 1, s)
        walk = oracles.pattern_by_rows(alg.cat, slot_of, r, s, cols, row_basis)
        want = [{} for _ in cols]
        for j, i, slot in walk:
            want[j][i] = want[j].get(i, 0) + values[slot]
        assert _by_key(rows, columns) == _by_key(row_basis, [canonical(c, 0) for c in want])
        nonempty += bool(walk)
    assert nonempty >= 3 * r_max


def _one_product_removed(F):
    # preset A without v o u = e1
    A = preset_A(F)
    mu2 = {k: v for k, v in A.tables[2].items() if k != ("v", "u")}
    return AInfStructure(F, A.cat, A.truncation, {2: mu2})


def _one_product_times_5(F):
    # preset A with u o v = 5 f1, which vanishes over F5
    A = preset_A(F)
    mu2 = dict(A.tables[2])
    mu2[("u", "v")] = mu2[("u", "v")].scale(5)
    return AInfStructure(F, A.cat, A.truncation, {2: mu2})


_TWO_SUPPORTS = [
    (lambda: preset_A(FieldSpec(0)), lambda: _one_product_removed(FieldSpec(0))),
    (lambda: _one_product_times_5(FieldSpec(0)), lambda: _one_product_times_5(FieldSpec(5))),
]
_TWO_SUPPORT_IDS = ["entry-dropped", "coefficient-vanishes-mod-5"]


@pytest.mark.parametrize("first, second", _TWO_SUPPORTS, ids=_TWO_SUPPORT_IDS)
@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_delta_patterns_are_keyed_by_mu2_support(first, second, order, fresh_patterns):
    # two structures on one category whose mu^2 supports differ: each
    # delta follows its own mu^2, whichever is built first, and delta
    # keeps no Q record of either
    algs = _ordered(first, second, order)
    for alg in algs:
        for r, s in ((0, 0), (1, -1), (2, -2), (3, -2), (4, -3), (5, -4)):
            _assert_matches_oracle(alg, r, s, delta_matrix(alg, r, s))
    assert fresh_patterns._RECORDS == {}


def _ordered(first, second, order):
    """The two structures, in order, their mu^2 supports checked distinct."""
    algs = [first(), second()]
    if order == "reverse":
        algs.reverse()
    supports = [{k: tuple(v.terms) for k, v in alg.tables[2].items()} for alg in algs]
    assert supports[0] != supports[1]
    return algs


def _uncleared_rank(alg, r, s):
    """The rank of delta at (r, s) on all its columns, 0 where delta has
    no column or no row."""
    cols, rows, columns = delta_matrix(alg, r, s)
    return rank(columns, alg.spec.characteristic) if cols and rows else 0


def _uncleared_ranks(alg, r_max):
    """{(r, s): _uncleared_rank} at every cell of _cells."""
    return {(r, s): _uncleared_rank(alg, r, s) for r, s in _cells(alg.cat, r_max)}


def _uncleared_dims(alg, r_max):
    """The HH table at r <= r_max from _uncleared_ranks, zeros omitted."""
    ranks, dims = _uncleared_ranks(alg, r_max), {}
    for r, s in ranks:
        dim = len(cochain_basis(alg, r, s)) - ranks[(r, s)] - ranks.get((r - 1, s), 0)
        if dim:
            dims[(r, s)] = dim
    return dims


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_cleared_hh_bar_equals_the_uncleared_ranks(char, fresh_patterns):
    # hh_bar eliminates delta only on the columns outside the pivot rows of
    # the cell before; the ranks on all columns give the same tables, over
    # F_p alone and again once the Q records certify (and clear) most cells
    F = FieldSpec(char)
    want = _uncleared_dims(preset_A(F), 9)
    assert hh_bar(F, 9) == want
    hh_bar(FieldSpec(0), 9)
    assert hh_bar(F, 9) == want


def test_hh_bar_hands_echelon_only_the_uncleared_columns(fresh_patterns, monkeypatch):
    # at each cell that hh_bar(Q, 9) eliminates, the rank(r - 1, s) columns
    # at the pivot rows of (r - 1, s) stay out of the Echelon
    Q = FieldSpec(0)
    A = preset_A(Q)
    ranks = _uncleared_ranks(A, 9)
    sizes = {c: len(cochain_basis(A, *c)) for c in ranks}
    eliminated = [(r, s) for r, s in ranks
                  if sizes[(r, s)] and cochain_basis(A, r + 1, s)]
    cleared = sum(ranks.get((r - 1, s), 0) for r, s in eliminated)
    assert cleared > 1000
    handed, init = [], hochschild.Echelon.__init__

    def counted_init(self, columns, p):
        handed.append(len(columns))
        init(self, columns, p)

    monkeypatch.setattr(hochschild.Echelon, "__init__", counted_init)
    hh_bar(Q, 9)
    assert len(handed) == len(eliminated)
    assert sum(handed) == sum(sizes[c] for c in eliminated) - cleared


def test_solves_refuse_a_cochain_of_another_field(Q):
    # a cocycle over F5 is not "not a cocycle" over Q: every entry point
    # behind solve_first names the mismatch, as class_coordinate does
    from ainfbench.gauge import m6_certificate

    phi = reference_cocycle(preset_A(FieldSpec(5)), 6, -4)
    for entry in (is_coboundary, m6_certificate, class_coordinate):
        with pytest.raises(ValueError, match="^field mismatch: F5 vs Q$"):
            entry(phi, preset_A(Q))


CERTIFIED_PRIMES = (2, 3, 5, 7, 2147483647)


def test_last_layer_records_clear_a_longer_run(fresh_patterns, monkeypatch):
    # the rows of the cells at r_max are numbered by first hit, and a Q
    # record made there keeps its pivot rows as row keys like every other:
    # a later run to r = 9 over F_p reads its rank and clears the next
    # cell with its rows, and each table is the one computed with empty
    # caches, in fewer eliminations (F2: 16 of the 35 it makes alone)
    A, alone = preset_A(FieldSpec(0)), {}
    eliminated = _trace_eliminations(monkeypatch)
    for p in (2, 3, 5, 7):
        monkeypatch.setattr(hochschild, "_BASES", {})
        monkeypatch.setattr(hochschild, "_RECORDS", {})
        alone[p] = hh_bar(FieldSpec(p), 9), len(eliminated.pop(p))
    monkeypatch.setattr(hochschild, "_BASES", {})
    monkeypatch.setattr(hochschild, "_RECORDS", {})
    hh_bar(FieldSpec(0), 7)
    records = hochschild._RECORDS
    assert {r for r, _ in records} == set(range(8))
    for (r, s), (out, _, pivots) in records.items():
        assert len(pivots) == out and pivots <= set(cochain_basis(A, r + 1, s)), (r, s)
    after = {}
    for p in (2, 3, 5, 7):
        assert hh_bar(FieldSpec(p), 9) == alone[p][0], p
        after[p] = len(eliminated.pop(p))
        assert after[p] < alone[p][1], p
    assert (after[2], alone[2][1]) == (16, 35)


def test_shorter_q_run_keeps_a_longer_runs_pivot_rows(fresh_patterns, monkeypatch):
    # hh_bar(Q, 7) after hh_bar(Q, 9) keeps the pivot rows recorded at
    # r = 7, so hh_bar(F2, 9) still eliminates only the cells whose pivot
    # product 2 divides, as after hh_bar(Q, 9) alone, and its table is the
    # one computed with empty caches
    alone = hh_bar(FieldSpec(2), 9)
    monkeypatch.setattr(hochschild, "_BASES", {})
    monkeypatch.setattr(hochschild, "_RECORDS", {})
    eliminations, init = Counter(), Echelon.__init__

    def counting(self, *args, **kwargs):
        eliminations["cells"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Echelon, "__init__", counting)
    hh_bar(FieldSpec(0), 9)
    eliminations.clear()
    hh_bar(FieldSpec(0), 7)
    eliminations.clear()
    assert hh_bar(FieldSpec(2), 9) == alone
    assert eliminations["cells"] == 6


def test_certified_ranks_equal_direct_ranks(fresh_patterns):
    # every rank over F_p that hh_bar takes from the Q elimination (p not
    # dividing the pivot product) is the rank of the F_p matrix, and the
    # tables are those of F_p alone, with no Q record; at r <= 9 only 2
    # and 3 divide a pivot product
    alone = {p: hh_bar(FieldSpec(p), 9) for p in CERTIFIED_PRIMES}
    hh_bar(FieldSpec(0), 9)
    records = fresh_patterns._RECORDS
    assert {r for r, _ in records} == set(range(10))
    for p in CERTIFIED_PRIMES:
        A, uncertified = preset_A(FieldSpec(p)), []
        for (r, s), (out, det, _) in records.items():
            if det % p:
                assert out == rank(delta_matrix(A, r, s)[2], p), (p, r, s)
            else:
                uncertified.append((r, s))
        assert bool(uncertified) == (p < 5), p
        assert hh_bar(FieldSpec(p), 9) == alone[p]


def _trace_eliminations(monkeypatch):
    """{char: [(r, s)]}, filled as hh_bar builds an Echelon for the cell
    (r, s) of a structure over F_char."""
    current, out = [], {}
    build, init = hochschild.delta_matrix, hochschild.Echelon.__init__

    def traced_build(alg, r, s, *rest):
        current[:] = [(alg.spec.characteristic, r, s)]
        return build(alg, r, s, *rest)

    def traced_init(self, columns, p):
        char, r, s = current[0]
        out.setdefault(char, []).append((r, s))
        init(self, columns, p)

    monkeypatch.setattr(hochschild, "delta_matrix", traced_build)
    monkeypatch.setattr(hochschild.Echelon, "__init__", traced_init)
    return out


def test_q_elimination_certifies_all_but_the_torsion_cells(fresh_patterns, monkeypatch):
    # Q ranks 24 nonempty cells at r <= 7; after it, F5 ranks none, F3 only
    # (3, -2) (pivot product 3) and F2 only the 5 cells whose pivot
    # products (-2, 4, 4, -2, 2) are even; F2 alone ranks all 24.  Each
    # product is the minor on the columns that clearing keeps
    eliminated = _trace_eliminations(monkeypatch)
    for char in (0, 5, 3, 2):
        hh_bar(FieldSpec(char), 7)
    assert len(eliminated[0]) == 24 and 5 not in eliminated
    assert eliminated[3] == [(3, -2)]
    assert eliminated[2] == [(2, -1), (4, -3), (5, -3), (6, -3), (7, -5)]
    records = fresh_patterns._RECORDS
    assert [records[c][1] for c in eliminated[2] + eliminated[3]] == [-2, 4, 4, -2, 2, 3]
    del eliminated[2]
    monkeypatch.setattr(hochschild, "_RECORDS", {})
    hh_bar(FieldSpec(2), 7)
    assert eliminated[2] == eliminated[0]
