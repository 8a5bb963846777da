import random
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import oracles
from oracles import series_inv, series_mul
from ainfbench import useries
from ainfbench.useries import (TruncatedUSeries, divide_by_euler, jacobi_check,
                               partition_series, theta_v)


def test_partition_small_values():
    u = partition_series(7)
    assert u.coeffs == [1, 1, 2, 3, 5, 7, 11, 15]


def test_partition_against_bruteforce():
    u = partition_series(30)
    for n in range(31):
        assert u[n] == oracles.partition_count(n), n


def _euler(N):
    """Euler's function prod (1 - U^m) modulo U^(N+1), by the pentagonal
    number theorem."""
    euler = [0] * (N + 1)
    for k in range(-N, N + 1):
        if k * (3 * k - 1) // 2 <= N:
            euler[k * (3 * k - 1) // 2] = -1 if k % 2 else 1
    return TruncatedUSeries(euler, N)


def test_euler_function_is_the_product():
    N = 40
    product = TruncatedUSeries([1], N)
    for m in range(1, N + 1):
        product = series_mul(product, TruncatedUSeries([1] + [0] * (m - 1) + [-1], N))
    assert product == _euler(N)


def test_partition_two_constructions_agree():
    # the pentagonal-number recurrence vs the dense inverse of Euler's
    # function, through the series order of triangle --wrap 48
    for N in (0, 1, 6, 300, 1176):
        assert partition_series(N) == oracles.series_inv(_euler(N)), N


_SERIES = st.lists(st.integers(-50, 50), min_size=1, max_size=40).map(TruncatedUSeries)


@given(_SERIES, st.integers(1, 3))
@example(TruncatedUSeries([1], 0), 3)
def test_division_by_euler_matches_the_dense_inverse(a, k):
    # dividing by E k times is multiplying by the dense inverse of E k times
    inverse = series_inv(_euler(a.order))
    want = a
    for _ in range(k):
        want = series_mul(want, inverse)
    assert divide_by_euler(a, k) == want


@given(_SERIES)
@example(theta_v(50))
@example(TruncatedUSeries(theta_v(50).coeffs[:-1] + [1], 50))   # off in U^50 alone
def test_jacobi_check_is_v_over_euler_cubed(v):
    # jacobi_check(N) holds exactly when u^3 v is 1, u the dense inverse of
    # E; seen with the theta series replaced by drawn ones, most of them
    # no cube of E
    u = series_inv(_euler(v.order))
    want = series_mul(series_mul(series_mul(v, u), u), u).is_one()
    with mock.patch.object(useries, "theta_v", lambda order: v):
        assert jacobi_check(v.order) is want


def test_theta_coefficients():
    v = theta_v(10)
    assert v[0] == 1 and v[1] == -3
    assert v[3] == 5 and v[6] == -7
    assert v[2] == 0 and v[4] == 0


def test_geometric_series_inverse():
    N = 12
    a = TruncatedUSeries([1, -1], N)
    geo = series_inv(a)
    assert geo.coeffs == [1] * (N + 1)
    assert series_mul(a, geo).is_one()


def test_inverse_requires_unit():
    with pytest.raises(ZeroDivisionError):
        series_inv(TruncatedUSeries([0, 1], 5))


def test_mul_commutative_associative_randomized():
    rng = random.Random(7)
    N = 9
    for _ in range(50):
        a, b, c = (
            TruncatedUSeries([rng.randint(-5, 5) for _ in range(N + 1)], N)
            for _ in range(3)
        )
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_jacobi_identity_order_50():
    assert jacobi_check(50)


def test_inv_roundtrip_randomized():
    rng = random.Random(11)
    N = 10
    for _ in range(25):
        coeffs = [1] + [rng.randint(-4, 4) for _ in range(N)]
        a = TruncatedUSeries(coeffs, N)
        assert series_mul(a, series_inv(a)).is_one()


def test_integer_nonunit_constant_rejected():
    # never fall back to floats: 2 is not invertible over the integers
    with pytest.raises(ZeroDivisionError):
        series_inv(TruncatedUSeries([2, 1], 5))


def test_fraction_coefficients_invert_exactly():
    from fractions import Fraction

    a = TruncatedUSeries([Fraction(2), Fraction(1, 3)], 5)
    inv = series_inv(a)
    assert all(isinstance(c, Fraction) for c in inv.coeffs)
    assert series_mul(a, inv).is_one()
