"""Exact field scalars: arbitrary-precision rationals and prime fields F_p.

Every other module computes over one of these fields; no floating point
anywhere.  Values are immutable and carry their field spec, so mixing
fields is an error rather than a silent coercion.

The raw value of a rational is canonical: a Python int when it is
integral, otherwise a reduced Fraction with denominator > 1
(``_rational``).  Integral values, which most values of the delta
matrices and their eliminations are, then skip Fraction arithmetic.  The
form matters only for speed: an int equals and hashes like the Fraction
of the same value, so a non-canonical value is still computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_MAX_PRIME = 2**63 - 1
_UNIT_CACHE: dict = {}


def _rational(v):
    """The canonical raw value of the rational v: an int when integral."""
    return v.numerator if v.denominator == 1 else v


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Base field: characteristic 0 means Q, a prime p means F_p."""

    characteristic: int = 0

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if c > _MAX_PRIME:
            raise ValueError(f"prime {c} does not fit a machine word")
        if not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        text = text.strip()
        if text in ("Q", "QQ", "0"):
            return FieldSpec(0)
        if text.startswith("F"):
            return FieldSpec(int(text[1:]))
        raise ValueError(f"unknown field spec {text!r} (expected Q or F<p>)")

    # -- scalar constructors ------------------------------------------

    def scalar(self, num: int, den: int = 1) -> "Scalar":
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        p = self.characteristic
        if p == 0:
            return Scalar(self, _rational(Fraction(num, den)))
        d = den % p
        if d == 0:
            raise ZeroDivisionError(f"denominator {den} is not invertible mod {p}")
        return Scalar(self, num * pow(d, p - 2, p) % p)

    def zero(self) -> "Scalar":
        cached = _UNIT_CACHE.get(self)
        if cached is None:
            cached = _UNIT_CACHE[self] = (self.scalar(0), self.scalar(1))
        return cached[0]

    def one(self) -> "Scalar":
        cached = _UNIT_CACHE.get(self)
        if cached is None:
            cached = _UNIT_CACHE[self] = (self.scalar(0), self.scalar(1))
        return cached[1]


class Scalar:
    """A field element: over Q an int, or a reduced Fraction with
    denominator > 1 when the value is not integral; over F_p a residue in
    [0,p)."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        self.spec = spec
        self.value = value

    def _check(self, other: "Scalar"):
        if self.spec != other.spec:
            raise ValueError(f"field mismatch: {self.spec} vs {other.spec}")

    def __add__(self, other):
        self._check(other)
        p = self.spec.characteristic
        v = self.value + other.value
        return Scalar(self.spec, v % p if p else _rational(v))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.characteristic
        v = self.value - other.value
        return Scalar(self.spec, v % p if p else _rational(v))

    def __mul__(self, other):
        self._check(other)
        p = self.spec.characteristic
        v = self.value * other.value
        return Scalar(self.spec, v % p if p else _rational(v))

    def __truediv__(self, other):
        self._check(other)
        if not other:
            raise ZeroDivisionError("division by zero")
        p = self.spec.characteristic
        if p == 0:
            # Fraction(a, b), not a / b: int / int would be a float
            return Scalar(self.spec, _rational(Fraction(self.value, other.value)))
        return Scalar(self.spec, self.value * pow(other.value, p - 2, p) % p)

    def __neg__(self):
        p = self.spec.characteristic
        return Scalar(self.spec, -self.value % p if p else -self.value)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.spec == other.spec
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.spec, self.value))

    def __repr__(self):
        return f"Scalar({self.spec}, {self})"

    def __str__(self):
        v = self.value
        if self.spec.is_rational and v.denominator != 1:
            return f"{v.numerator}/{v.denominator}"
        return str(int(v))


def field_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Exact arithmetic on two scalars of one field: op in add|sub|mul|div."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def parse_scalar(text: str, spec: FieldSpec) -> Scalar:
    """Parse 'a' or 'a/b' (optional sign, decimal) into a canonical scalar."""
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        num_s, den_s = num_s.strip(), den_s.strip()
        if not den_s.isdigit():
            raise ValueError(f"malformed scalar literal {text!r}")
        num, den = _parse_int(num_s), int(den_s)
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
    else:
        num, den = _parse_int(text), 1
    return spec.scalar(num, den)


def _parse_int(s: str) -> int:
    body = s[1:] if s[:1] in "+-" else s
    if not body.isdigit():
        raise ValueError(f"malformed scalar literal {s!r}")
    return int(s)
