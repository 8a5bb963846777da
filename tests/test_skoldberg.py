import pytest

from oracles import SkoldbergComplex, skoldberg_check
from ainfbench.hochschild import hh_bar
from ainfbench.linalg import rank
from ainfbench.quiver import A_GENERATORS
from ainfbench.scalars import FieldSpec, canon
from ainfbench.skoldberg import _dual_basis, _dual_differential, skoldberg_dims


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_composites_vanish(char):
    # p_k o p_{k+1} = 0 and epsilon o p_1 = 0 on the primal resolution,
    # through p_25, the last step skoldberg_dims(., 24) reads
    assert skoldberg_check(FieldSpec(char), 25)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_dual_squares_to_zero(char):
    # the dual read from the split rule is a complex at every (j, s); this
    # checks which word each split lands on, not the Koszul sign
    bases = [_dual_basis(j) for j in range(27)]
    nonzero = 0
    for j in range(25):
        for s in bases[j]:
            first = _dual_differential(bases, j, s, char)
            second = _dual_differential(bases, j + 1, s, char)
            nonzero += sum(map(bool, first))
            for col in first:
                acc = {}
                for row, val in col.items():
                    for row2, val2 in second[row].items():
                        acc[row2] = canon(acc.get(row2, 0) + val * val2, char)
                assert not any(acc.values()), (j, s)
    assert nonzero


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
def test_dims_match_reference_through_40(char):
    from ainfbench.cli import expected_hh

    assert skoldberg_dims(FieldSpec(char), 40) == expected_hh(char, 40)


def _exact_through_5(cx):
    """Whether P_6 -> ... -> P_0 -> A -> 0 is exact, by ranks: rank eps =
    dim A, and rank p_j + rank p_(j+1) = dim P_j for j = 0..5, p_0 = eps."""
    p = cx.spec.characteristic
    ranks = [rank(cx.augmentation(), p)] + [rank(cx.differential(j), p) for j in range(1, 7)]
    return ranks[0] == len(A_GENERATORS) and all(
        ranks[j] + ranks[j + 1] == len(cx.bases[j]) for j in range(6))


def test_resolution_ranks():
    # exact at j = 0..5, and P_(j+4), p_(j+4) are P_j, p_j for j >= 2 (the
    # words grow, the matrices do not), so exact at every j: the dual
    # complex computes HH, not just a complex's cohomology
    for char in (0, 2, 3, 5):
        cx = SkoldbergComplex(FieldSpec(char), 25)
        assert all(len(b) == 18 for b in cx.bases)
        assert _exact_through_5(cx), char
        for j in range(2, 22):
            assert cx.bases[j] == cx.bases[j + 4]
            assert cx.differential(j) == cx.differential(j + 4), (char, j)


def test_exactness_sees_a_zero_differential(monkeypatch):
    # p_3 = 0 keeps p o p = 0, which is all skoldberg_check sees; the ranks
    # see that the complex stops being exact
    differential = SkoldbergComplex.differential

    def zero_p3(self, j):
        cols = differential(self, j)
        return [{} for _ in cols] if j == 3 else cols

    monkeypatch.setattr(SkoldbergComplex, "differential", zero_p3)
    for char in (0, 2):
        assert skoldberg_check(FieldSpec(char), 25)
        assert not _exact_through_5(SkoldbergComplex(FieldSpec(char), 6))


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_agrees_with_bar_complex(char):
    # through r = 8, with Q ranked first: the F_p bar tables then take every
    # rank the Q elimination certifies, and the small resolution checks
    # them independently
    spec = FieldSpec(char)
    bar = hh_bar(FieldSpec(0), 8)
    if char:
        bar = hh_bar(spec, 8)
    assert bar == skoldberg_dims(spec, 8)


def test_eight_periodicity_rational(Q):
    dims = skoldberg_dims(Q, 24)
    for r in range(1, 17):
        for s in range(-20, 2):
            assert dims.get((r + 8, s - 6), 0) == dims.get((r, s), 0), (r, s)


def test_four_step_periodicity_char2():
    dims = skoldberg_dims(FieldSpec(2), 20)
    for r in range(1, 17):
        for s in range(-18, 2):
            assert dims.get((r + 4, s - 3), 0) == dims.get((r, s), 0), (r, s)


def test_r0_not_periodic(Q):
    # the identity classes at r = 0 do not propagate
    dims = skoldberg_dims(Q, 10)
    assert dims[(0, 1)] == 2 and dims.get((8, -5), 0) == 0


def test_f3_periodic_continuation_matches_golden():
    from ainfbench.cli import expected_hh

    assert skoldberg_dims(FieldSpec(3), 24) == expected_hh(3, 24)


def test_larger_prime_looks_rational():
    from ainfbench.cli import expected_hh

    assert hh_bar(FieldSpec(7), 6) == expected_hh(0, 6)
