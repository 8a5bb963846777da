"""The arithmetic contract of raw values: ``canon`` and ``divide`` over Q
and F_p give the canonical form (an int or a Fraction with denominator
> 1 over Q, a residue in [0, p) over F_p), and ``FieldSpec.scalar`` and
``parse_scalar`` read a rational into it."""

import random
from fractions import Fraction

import pytest

from ainfbench.gauge import mc_extend
from ainfbench.scalars import Element, FieldSpec, canon, divide, parse_scalar

FIELDS = (0, 2, 3, 5, 2**31 - 1)


def is_canonical(v, p: int) -> bool:
    if p:
        return type(v) is int and 0 <= v < p
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def test_rational_add():
    Q = FieldSpec(0)
    assert canon(Q.scalar(1, 2) + Q.scalar(1, 3), 0) == Q.scalar(5, 6) == Fraction(5, 6)


def test_mod5_inverse():
    F5 = FieldSpec(5)
    assert parse_scalar("1/2", F5) == F5.scalar(3) == divide(1, 2, 5) == 3
    assert canon(F5.scalar(2) * F5.scalar(3), 5) == 1


def test_noninvertible_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/6", FieldSpec(3))
    with pytest.raises(ZeroDivisionError):
        parse_scalar("3/4", FieldSpec(2))


def test_division_by_zero():
    for p in FIELDS:
        with pytest.raises(ZeroDivisionError):
            divide(1, 0, p)
        with pytest.raises(ZeroDivisionError):
            FieldSpec(p).scalar(1, 0)
    for p in FIELDS[1:]:  # a denominator divisible by p is zero in F_p
        with pytest.raises(ZeroDivisionError):
            divide(1, 3 * p, p)
        with pytest.raises(ZeroDivisionError, match=f"not invertible mod {p}"):
            FieldSpec(p).scalar(1, -p)


@pytest.mark.parametrize("text", [
    "F0", "F00", "F", "F-5", "F+5", "F4", "FQ", "00", "F1",
    # composites with no factor up to 37, which Miller-Rabin rejects:
    # 41*43; a strong pseudoprime to bases 2, 3, 5 and 7; and one to every
    # base up to 23, rejected only by bases 29 to 37
    "F1763", "F3215031751", "F3825123056546413051"])
def test_field_spec_names_only_q_or_a_prime(text):
    # F0 and F00 were read as Q
    with pytest.raises(ValueError):
        FieldSpec.parse(text)


@pytest.mark.parametrize("text,p", [("F5", 5), ("F2", 2), ("Q", 0), ("QQ", 0), ("0", 0)])
def test_field_spec_parses(text, p):
    assert FieldSpec.parse(text) == FieldSpec(p)


def test_spec_mismatch():
    # a raw value has no field; two fields meet only in Elements, and the
    # error names both
    with pytest.raises(ValueError, match="field mismatch: Q vs F5"):
        Element.single("u", 1) + Element.single("u", 1, 5)


def test_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(2**63 + 9)
    FieldSpec(2**31 - 1)  # large primes within a machine word are fine
    assert FieldSpec.parse("F2305843009213693951") == FieldSpec(2**61 - 1)


@pytest.mark.parametrize("char", FIELDS)
def test_field_axioms_randomized(char):
    spec = FieldSpec(char)
    rng = random.Random(20240 + char)

    def rand():
        num = rng.randint(-30, 30)
        den = rng.randint(1, 12)
        while char and den % char == 0:
            den = rng.randint(1, 12)
        return spec.scalar(num, den)

    def add(a, b):
        return canon(a + b, char)

    def mul(a, b):
        return canon(a * b, char)

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        results = [a, b, c, add(a, b), mul(a, b), canon(-a, char)]
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, canon(-a, char)) == 0
        if b:
            results.append(divide(a, b, char))
            assert mul(divide(a, b, char), b) == a
        assert all(is_canonical(v, char) for v in results)


def test_mc_extend_reads_rationals_in_its_field():
    F5 = FieldSpec(5)
    got = mc_extend(F5, Fraction(1, 2), Fraction(-2, 3), 8)
    want = mc_extend(F5, F5.scalar(1, 2), F5.scalar(-2, 3), 8)
    assert got.tables == want.tables
    elements = [el for table in got.tables.values() for el in table.values()]
    assert elements and all(el.p == 5 for el in elements)
    assert all(is_canonical(v, 5) for el in elements for v in el.terms.values())


@pytest.mark.parametrize(
    "text,want",
    [("-9", "-9"), ("5/12", "5/12"), ("+3", "3"), ("10/4", "5/2"), ("0", "0")],
)
def test_parse_print_roundtrip(text, want):
    assert str(parse_scalar(text, FieldSpec(0))) == want


@pytest.mark.parametrize("bad", ["", "1/", "/2", "a", "1/2/3", "1.5", "2/-3"])
def test_malformed_literals(bad):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_scalar(bad, FieldSpec(0))
