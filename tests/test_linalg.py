import random
from fractions import Fraction

import pytest

from ainfbench.linalg import Echelon, FieldOps, nullspace, rank, rref, solve
from ainfbench.scalars import FieldSpec


def _cols_from_dense(rows):
    ncols = len(rows[0])
    return [
        {i: Fraction(rows[i][j]) for i in range(len(rows)) if rows[i][j]}
        for j in range(ncols)
    ]


def test_solve_simple():
    ops = FieldOps(FieldSpec(0))
    cols = _cols_from_dense([[1, 2], [3, 4]])
    x = solve(cols, 2, {0: Fraction(5), 1: Fraction(11)}, ops)
    assert x == [Fraction(1), Fraction(2)]


def test_solve_infeasible():
    ops = FieldOps(FieldSpec(0))
    cols = _cols_from_dense([[1, 1], [1, 1]])
    assert solve(cols, 2, {0: Fraction(1), 1: Fraction(2)}, ops) is None


def test_nullspace_dimension():
    ops = FieldOps(FieldSpec(0))
    cols = _cols_from_dense([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(cols, 3, ops)
    assert len(basis) == 2
    for vec in basis:
        out0 = sum(vec[j] * cols[j].get(0, 0) for j in range(3))
        assert out0 == 0


def test_rank_mod_p_vs_rational():
    # det [[2,1],[0,3]] = 6: full rank over Q, drops mod 2 and mod 3
    for char, want in ((0, 2), (3, 1), (2, 1)):
        ops = FieldOps(FieldSpec(char))
        conv = (lambda v: Fraction(v)) if char == 0 else (lambda v: v % char)
        rows = [{0: conv(2), 1: conv(1)}, {1: conv(3)}]
        rows = [{k: v for k, v in r.items() if v} for r in rows]
        assert rank(rows, ops) == want


def test_randomized_solutions_verify():
    rng = random.Random(3)
    ops = FieldOps(FieldSpec(0))
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
        got = solve(cols, n, b, ops)
        assert got is not None
        for i in range(m):
            assert sum(dense[i][j] * got[j] for j in range(n)) == b.get(i, 0)


def test_rref_deterministic_pivots():
    ops = FieldOps(FieldSpec(0))
    rows = [{1: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}]
    pivots = rref(rows, ops)
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


def _oracle_solve(columns, ncols, b, ops):
    rows = _oracle_rows(columns, b, ncols)
    pivots = rref(rows, ops)
    if ncols in pivots:
        return None
    x = [ops.zero] * ncols
    for row, col in zip(rows, pivots):
        x[col] = row.get(ncols, ops.zero)
    return x


def _oracle_nullspace(columns, ncols, ops):
    rows = _oracle_rows(columns)
    pivots = rref(rows, ops)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [ops.zero] * ncols
        vec[free] = ops.one
        for row, col in zip(rows, pivots):
            if row.get(free):
                vec[col] = ops.neg(row[free])
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
    ops = FieldOps(FieldSpec(char))
    rng = random.Random(char)
    infeasible = 0
    for _ in range(300):
        columns, ncols, b = _random_system(rng, char)
        want_x = _oracle_solve(columns, ncols, b, ops)
        infeasible += want_x is None
        assert rank(columns, ops) == len(rref(_oracle_rows(columns), ops))
        assert solve(columns, ncols, b, ops) == want_x
        assert nullspace(columns, ncols, ops) == _oracle_nullspace(columns, ncols, ops)
        assert Echelon(columns, ops, ncols).contains(b) == (want_x is not None)
    assert 30 < infeasible < 270  # both outcomes are exercised


@pytest.mark.parametrize("char", ORACLE_FIELDS)
def test_echelon_edge_cases(char):
    ops = FieldOps(FieldSpec(char))
    one = ops.one
    # empty matrix, with and without declared columns
    assert rank([], ops) == 0
    assert solve([], 0, {}, ops) == []
    assert solve([], 0, {0: one}, ops) is None
    assert nullspace([], 2, ops) == [[one, ops.zero], [ops.zero, one]]
    # zero columns and ncols > len(columns): every such column is free
    cols = [{}, {0: one}, {}]
    ech = Echelon(cols, ops, 5)
    assert (ech.rank, ech.pivots, ech.free) == (1, [1], [0, 2, 3, 4])
    assert solve(cols, 5, {0: one}, ops) == [ops.zero, one] + [ops.zero] * 3
    assert solve(cols, 5, {1: one}, ops) is None
    assert nullspace(cols, 5, ops) == _oracle_nullspace(cols, 5, ops)
