import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from ainfbench.linalg import Echelon, nullspace, rank, rref, solve
from ainfbench.scalars import canon


def _padded(columns, ncols):
    """columns followed by zero columns up to ncols, as solve and nullspace
    read them."""
    return columns + [{} for _ in range(ncols - len(columns))]


def _cols_from_dense(rows):
    ncols = len(rows[0])
    return [
        {i: Fraction(rows[i][j]) for i in range(len(rows)) if rows[i][j]}
        for j in range(ncols)
    ]


def test_solve_simple():
    cols = _cols_from_dense([[1, 2], [3, 4]])
    x = solve(cols, 2, {0: Fraction(5), 1: Fraction(11)}, 0)
    assert x == [Fraction(1), Fraction(2)]


def test_solve_infeasible():
    cols = _cols_from_dense([[1, 1], [1, 1]])
    assert solve(cols, 2, {0: Fraction(1), 1: Fraction(2)}, 0) is None


def test_nullspace_dimension():
    cols = _cols_from_dense([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(cols, 3, 0)
    assert len(basis) == 2
    for vec in basis:
        out0 = sum(vec[j] * cols[j].get(0, 0) for j in range(3))
        assert out0 == 0


def test_rank_mod_p_vs_rational():
    # det [[2,1],[0,3]] = 6: full rank over Q, drops mod 2 and mod 3
    for char, want in ((0, 2), (3, 1), (2, 1)):
        conv = (lambda v: Fraction(v)) if char == 0 else (lambda v: v % char)
        rows = [{0: conv(2), 1: conv(1)}, {1: conv(3)}]
        rows = [{k: v for k, v in r.items() if v} for r in rows]
        assert rank(rows, char) == want


def test_randomized_solutions_verify():
    rng = random.Random(3)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        cols = _cols_from_dense(dense) if m else []
        xs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = {}
        for i in range(m):
            val = sum(dense[i][j] * xs[j] for j in range(n))
            if val:
                b[i] = Fraction(val)
        got = solve(cols, n, b, 0)
        assert got is not None
        for i in range(m):
            assert sum(dense[i][j] * got[j] for j in range(n)) == b.get(i, 0)


def test_rref_deterministic_pivots():
    rows = [{1: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}]
    pivots = rref(rows, 0)
    assert pivots == [0, 1]


# ---------------------------------------------------------------------------
# Echelon against answers derived from rref, the independent oracle
# ---------------------------------------------------------------------------

ORACLE_FIELDS = (0, 2, 3, 2147483647)


def _oracle_rows(columns, b=None, aug=None):
    """Rows of [columns | b] for rref; the augmented column is aug."""
    row_ids = sorted({r for col in columns for r in col} | set(b or ()))
    rows = []
    for rid in row_ids:
        row = {j: col[rid] for j, col in enumerate(columns) if col.get(rid)}
        if b and b.get(rid):
            row[aug] = b[rid]
        rows.append(row)
    return rows


def _oracle_solve(columns, ncols, b, p):
    rows = _oracle_rows(columns, b, ncols)
    pivots = rref(rows, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, col in zip(rows, pivots):
        x[col] = row.get(ncols, 0)
    return x


def _oracle_nullspace(columns, ncols, p):
    rows = _oracle_rows(columns)
    pivots = rref(rows, p)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, col in zip(rows, pivots):
            if row.get(free):
                vec[col] = canon(-row[free], p)
        basis.append(vec)
    return basis


def _random_system(rng, char):
    """Sparse columns with small entries, some zero, padded ncols, and a
    right-hand side that is feasible about half the time."""
    conv = Fraction if char == 0 else (lambda v: v % char)
    m, n = rng.randint(0, 7), rng.randint(0, 7)
    columns = []
    for _ in range(n):
        col = {}
        if rng.random() > 0.2:  # otherwise a zero column
            for i in range(m):
                v = conv(rng.randint(-3, 3))
                if v and rng.random() < 0.5:
                    col[i] = v
        columns.append(col)
    ncols = n + rng.choice((0, 0, 1, 2))
    if rng.random() < 0.5:  # b = A x: feasible
        b = {}
        for col in columns:
            c = conv(rng.randint(-2, 2))
            for i, v in col.items():
                b[i] = b.get(i, 0) + c * v
    else:  # random: usually infeasible when A is not onto
        b = {i: conv(rng.randint(-3, 3)) for i in range(m)}
    if char:
        b = {i: v % char for i, v in b.items()}
    return columns, ncols, {i: v for i, v in b.items() if v}


@pytest.mark.parametrize("char", ORACLE_FIELDS)
def test_echelon_matches_rref_oracle(char):
    rng = random.Random(char)
    infeasible = 0
    for _ in range(300):
        columns, ncols, b = _random_system(rng, char)
        want_x = _oracle_solve(columns, ncols, b, char)
        infeasible += want_x is None
        assert rank(columns, char) == len(rref(_oracle_rows(columns), char))
        assert solve(columns, ncols, b, char) == want_x
        assert nullspace(columns, ncols, char) == _oracle_nullspace(columns, ncols, char)
        assert (not Echelon(_padded(columns, ncols), char).residual(b)) == (want_x is not None)
    assert 30 < infeasible < 270  # both outcomes are exercised


@pytest.mark.parametrize("char", ORACLE_FIELDS)
def test_echelon_edge_cases(char):
    # empty matrix, with and without declared columns
    assert rank([], char) == 0
    assert solve([], 0, {}, char) == []
    assert solve([], 0, {0: 1}, char) is None
    assert nullspace([], 2, char) == [[1, 0], [0, 1]]
    # zero columns, and ncols > len(columns) in solve and nullspace: every
    # such column is free
    cols = [{}, {0: 1}, {}]
    ech = Echelon(_padded(cols, 5), char)
    assert (ech.rank, ech.pivots, ech.free) == (1, [1], [0, 2, 3, 4])
    assert solve(cols, 5, {0: 1}, char) == [0, 1] + [0] * 3
    assert solve(cols, 5, {1: 1}, char) is None
    assert nullspace(cols, 5, char) == _oracle_nullspace(cols, 5, char)


@pytest.mark.parametrize("char", ORACLE_FIELDS)
def test_lazy_kernel_is_the_nullspace(char):
    rng = random.Random(100 + char)
    for _ in range(100):
        columns, ncols, _ = _random_system(rng, char)
        ech = Echelon(_padded(columns, ncols), char)
        assert list(ech.kernel()) == ech.nullspace() == nullspace(columns, ncols, char)


# dense integer columns, all of one height, some of them zero
_INTEGER_COLUMNS = st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.integers(-4, 4), min_size=m, max_size=m), max_size=7))


def _pivot_minor(echelon, columns):
    """Dense rows of columns on echelon's pivot rows and pivot columns."""
    return [[columns[j].get(row, 0) for j in echelon.pivots] for row in echelon.pivot_rows]


@settings(max_examples=200)
@given(_INTEGER_COLUMNS)
def test_pivot_product_is_the_pivot_minor_determinant(dense):
    # over Q the pivot product is the determinant of a nonsingular R x R
    # minor, an int; mod p it settles the rank whenever p does not divide
    # it, and the rank mod p never exceeds R
    columns = [{i: v for i, v in enumerate(col) if v} for col in dense]
    ech = Echelon(columns, 0)
    det = ech.pivot_product
    assert type(det) is int and det != 0
    assert det == oracles.determinant(_pivot_minor(ech, columns))
    for p in (2, 3, 5):
        reduced = [{i: v % p for i, v in col.items() if v % p} for col in columns]
        ech_p = Echelon(reduced, p)
        assert ech_p.pivot_product == oracles.determinant(_pivot_minor(ech_p, reduced)) % p
        assert ech_p.rank <= ech.rank
        if det % p:
            assert ech_p.rank == ech.rank


@st.composite
def _complexes(draw):
    """(p, d1, d2) with d2 d1 = 0 over F_p (Q for p = 0): d2 is drawn, and
    each column of d1 is a combination of d2's kernel vectors, some of them
    repeated or zero."""
    p = draw(st.sampled_from((0, 2, 3, 5)))
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    entry = st.integers(-3, 3).map(lambda v: canon(v, p))
    d2 = [{i: v for i, v in enumerate(draw(st.lists(entry, min_size=n2, max_size=n2))) if v}
          for _ in range(n1)]
    kernel = nullspace(d2, n1, p)
    d1 = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(st.lists(entry, min_size=len(kernel), max_size=len(kernel)))
        col = {}
        for c, vec in zip(coeffs, kernel):
            for i, v in enumerate(vec):
                col[i] = col.get(i, 0) + c * v
        d1.append({i: canon(v, p) for i, v in col.items() if canon(v, p)})
    return p, d1, d2


@settings(max_examples=50)
@given(_complexes())
def test_clearing_keeps_the_rank(complex_):
    # d2 d1 = 0: the columns of d2 at the pivot rows of d1's echelon add
    # nothing to d2's rank, so d2 ranked without them has its full rank
    p, d1, d2 = complex_
    for col in d1:  # the draw is a complex
        acc = {}
        for j, a in col.items():
            for i, b in d2[j].items():
                acc[i] = acc.get(i, 0) + a * b
        assert not any(canon(v, p) for v in acc.values())
    cleared = set(Echelon(d1, p).pivot_rows)
    assert len(cleared) == rank(d1, p)
    kept = [col for j, col in enumerate(d2) if j not in cleared]
    assert rank(kept, p) == rank(d2, p)


# Row keys of three kinds, each ordered unlike the row numbers they name;
# entries 1, -1 (p - 1 mod p, drawn as often as the rest together) and others
_ROW_KEYS = (lambda i: i, lambda i: (i % 3, i), lambda i: f"r{i}")
_ENTRIES = {0: (1, -1, -1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)), 2: (1,), 3: (1, 2),
            7: (1, 6, 6, 6, 2, 3, 5)}


@st.composite
def _keyed_systems(draw):
    """(p, columns, ncols, b): sparse columns over rows keyed by one kind
    of key, entries from _ENTRIES[p], and b a combination of the columns
    or drawn freely."""
    p = draw(st.sampled_from(sorted(_ENTRIES)))
    key = draw(st.sampled_from(_ROW_KEYS))
    m, n = draw(st.integers(1, 7)), draw(st.integers(0, 7))
    entry = st.sampled_from(_ENTRIES[p])
    columns = [{key(i): v for i, v in enumerate(draw(st.lists(st.one_of(st.just(0), entry),
                                                               min_size=m, max_size=m))) if v}
               for _ in range(n)]
    if draw(st.booleans()):
        b = {}
        for col in columns:
            c = draw(st.sampled_from((0, 1, -1, 2)))
            for r, v in col.items():
                b[r] = b.get(r, 0) + c * v
    else:
        b = {key(i): draw(entry) for i in draw(st.sets(st.integers(0, m - 1)))}
    b = {r: canon(v, p) for r, v in b.items() if canon(v, p)}
    return p, columns, n + draw(st.integers(0, 2)), b


@settings(max_examples=100)
@given(_keyed_systems())
@example((0, [{"r1": -1, "r0": 2}, {"r1": 1, "r0": -1}, {"r0": Fraction(1, 2)}], 4, {"r0": 1}))
@example((7, [{(1, 1): 6, (0, 0): 3}, {(0, 0): 6}], 3, {(0, 0): 5, (1, 1): 1}))
def test_unit_pivots_insert_as_by_division(system):
    # the sign flip for pivots -1 and p - 1 and the stored (weight, row)
    # keys give the pivots, pivot rows, pivot product, solutions and
    # kernel of the insertion that divides by every pivot
    p, columns, ncols, b = system
    columns = _padded(columns, ncols)
    ech, want = Echelon(columns, p), oracles.DividingEchelon(columns, p)
    assert (ech.pivots, ech.pivot_rows, ech.free) == (want.pivots, want.pivot_rows, want.free)
    assert ech.pivot_product == want.pivot_product
    assert ech.residual(b) == want.residual(b)
    assert ech.solve(b) == want.solve(b)
    assert list(ech.kernel()) == list(want.kernel())
