"""Canonical raw values over Q, and the all-Fraction representation as
their oracle.

A raw Q value is an int when it is integral and otherwise a Fraction with
denominator > 1; it is never a float.  Every result must equal the one
computed with every Q value a Fraction (oracles.fraction_values)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ainfbench.gauge import extract_invariants, gauge_apply, mc_extend, random_gauge
from ainfbench.hochschild import (Cell, delta_matrix, gerst_compose, hh_bar,
                                  mu_cochain)
from ainfbench.linalg import Echelon
from ainfbench.perturbation import preset_splitting_C, transfer
from ainfbench.quiver import preset_A
from ainfbench.scalars import FieldSpec, canon, divide


def canonical(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def values_of(obj):
    """Every raw value in a structure's tables, a cochain or an invariant
    (itself a raw value), each table value from an Element over Q."""
    if isinstance(obj, (int, Fraction)):
        yield obj
        return
    tables = getattr(obj, "tables", None)
    if tables is None:
        tables = {0: obj.table}
    for table in tables.values():
        for el in table.values():
            assert el.p == 0
            yield from el.terms.values()


def invariant_values(inv):
    for part in (inv.m6, inv.m8, inv.reference6, inv.reference8):
        yield from values_of(part)


# ---------------------------------------------------------------------------
# canonical form and no float
# ---------------------------------------------------------------------------

small = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=200)
@given(small, small)
def test_arithmetic_is_fraction_arithmetic_in_canonical_form(a, b):
    Q = FieldSpec(0)
    x, y = Q.scalar(a.numerator, a.denominator), Q.scalar(b.numerator, b.denominator)
    assert canonical(x) and canonical(y)
    got = {"add": [canon(x + y, 0), canon(a + b, 0)],
           "sub": [canon(x - y, 0), canon(a - b, 0)],
           "mul": [canon(x * y, 0), canon(a * b, 0)],
           "neg": [canon(-x, 0), canon(-a, 0)]}
    want = {"add": a + b, "sub": a - b, "mul": a * b, "neg": -a}
    if b:
        got["div"] = [divide(x, y, 0), divide(a, b, 0)]
        want["div"] = a / b
    for op, values in got.items():
        for v in values:
            assert v == want[op], op
            assert canonical(v), (op, v)


def test_division_of_integers_is_exact():
    Q = FieldSpec(0)
    assert divide(1, 2, 0) == Fraction(1, 2) and type(divide(1, 2, 0)) is Fraction
    assert divide(4, 2, 0) == 2 and type(divide(4, 2, 0)) is int
    assert divide(Q.scalar(1), Q.scalar(2), 0) == Q.scalar(1, 2) == Fraction(1, 2)
    assert type(divide(Q.scalar(6), Q.scalar(-3), 0)) is int
    assert type(Q.scalar(6, -3)) is int and type(canon(Fraction(4, 2), 0)) is int


def test_f_p_values_are_residues():
    F5 = FieldSpec(5)
    assert divide(F5.scalar(1), F5.scalar(2), 5) == 3 == F5.scalar(1, 2)
    assert canon(F5.scalar(2) - F5.scalar(4), 5) == 3 == F5.scalar(-2)
    assert type(F5.scalar(-1, 2)) is int


@pytest.fixture(scope="module")
def classify_run():
    """One classify pipeline over Q: mc_extend at order 10 and its
    invariants, then a seeded gauge on transfer(., 8) and its invariants."""
    Q = FieldSpec(0)
    mc = mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 10)
    model = transfer(preset_splitting_C(Q), 8).minimal
    gauge = random_gauge(Q, model.cat, random.Random(5))
    moved = gauge_apply(gauge, model, 8)
    return mc, extract_invariants(mc), moved, extract_invariants(moved)


def test_classify_pipeline_holds_only_canonical_values(classify_run):
    mc, mc_inv, moved, moved_inv = classify_run
    values = list(values_of(mc)) + list(values_of(moved))
    values += [v for inv in (mc_inv, moved_inv) for v in invariant_values(inv)]
    assert all(canonical(v) for v in values)
    # both kinds occur, so the check reads both branches
    assert any(type(v) is int for v in values)
    assert any(type(v) is Fraction for v in values)


# ---------------------------------------------------------------------------
# the all-Fraction representation as oracle
# ---------------------------------------------------------------------------

def _as_fractions(columns):
    return [{i: Fraction(v) for i, v in col.items()} for col in columns]


def _echelon_answers(columns, ncols, b):
    ech = Echelon(columns + [{}] * (ncols - len(columns)), 0)
    return ech.pivots, ech.rank, ech.solve(b), ech.nullspace()


def _raw(answers):
    """The raw values of a solution and a kernel basis."""
    _, _, x, kernel = answers
    return list(x or []) + [v for vec in kernel for v in vec]


def _order10_system():
    """The system delta(nu) = mu^6 o mu^6 that mc_extend solves at order 10
    (750 columns; its right-hand side has entries ±1/2 and ±1/4)."""
    Q = FieldSpec(0)
    base = preset_A(Q, 10)
    mc = mc_extend(Q, Q.scalar(1, 2), Q.scalar(-2, 3), 8)
    phi6 = mu_cochain(mc, 6)
    phi = -gerst_compose(phi6, phi6, base)
    cell = Cell(base, phi.r, phi.s)
    return cell.matrix, len(cell.cols), cell.vector(phi)


def _systems():
    """Every delta matrix of preset_A over Q with r <= 7, each with a
    feasible right-hand side of rational coefficients, and the order-10
    system of mc_extend."""
    A = preset_A(FieldSpec(0))
    for r in range(0, 8):
        for s in range(-(r + 1), 2):
            cols, rows, matrix = delta_matrix(A, r, s)
            b = {}
            for j, col in enumerate(matrix):
                c = Fraction(j % 5 - 2, 3)
                for i, v in col.items():
                    b[i] = b.get(i, 0) + c * v
            yield matrix, len(cols), {i: v for i, v in b.items() if v}
    yield _order10_system()


def test_echelon_equals_fraction_oracle(monkeypatch):
    systems = list(_systems())
    want = [_echelon_answers(m, n, b) for m, n, b in systems]
    with monkeypatch.context() as mp:
        oracles.fraction_values(mp)
        got = [_echelon_answers(_as_fractions(m), n, b) for m, n, b in systems]
    for w, g in zip(want, got):
        assert w == g
        assert all(canonical(v) for v in _raw(w))
        assert all(type(v) is Fraction for v in _raw(g))
    assert sum(w[2] is not None and any(type(v) is Fraction for v in w[2])
               for w in want) > 0  # some solutions are not integral


def test_pipelines_equal_fraction_oracle(monkeypatch, classify_run):
    Q = FieldSpec(0)
    mc, _, _, moved_inv = classify_run
    dims = hh_bar(Q, 7)
    with monkeypatch.context() as mp:
        oracles.fraction_values(mp)
        Qf = FieldSpec(0)
        dims_f = hh_bar(Qf, 7)
        mc_f = mc_extend(Qf, Qf.scalar(1, 2), Qf.scalar(-2, 3), 10)
        model = transfer(preset_splitting_C(Qf), 8).minimal
        moved_f = gauge_apply(random_gauge(Qf, model.cat, random.Random(5)), model, 8)
        inv_f = extract_invariants(moved_f)
    assert dims_f == dims
    assert oracles.ordered(mc_f.tables) == oracles.ordered(mc.tables)
    assert (inv_f.m6, inv_f.m8, inv_f.reference6, inv_f.reference8) == (
        moved_inv.m6, moved_inv.m8, moved_inv.reference6, moved_inv.reference8)
    # the oracle run held every Q value as a Fraction
    values = list(values_of(mc_f)) + list(values_of(moved_f))
    values += list(invariant_values(inv_f))
    assert values and all(type(v) is Fraction for v in values)
