"""Exact field scalars over Q and F_p, and the linear combinations of
them that every table holds (``Element``, evaluated by ``accumulate``).

No floating point anywhere.  A raw value has one canonical form: over Q
an int when integral, else a reduced Fraction with denominator > 1
(``_rational``), so integral values skip Fraction arithmetic; over F_p a
residue in [0, p).  An int equals and hashes like the Fraction of its
value, so the form matters only for speed.  Values are not checked per
operation: Elements and linalg's columns hold raw values, their loops
use plain + and *, and each sum is made canonical once (``canonical``);
the field is checked where an Element, a table or a cochain is built.
A raw value carries no field of its own: whoever holds one holds the
characteristic p too (``Element.p``, ``Echelon.p``, ``FieldSpec``), and
``canon`` and ``divide`` are the single-value arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

_MAX_PRIME = 2**63 - 1


def _rational(v):
    """The canonical raw value of the rational v: an int when integral."""
    return v.numerator if v.denominator == 1 else v


def canon(v, p: int):
    """The canonical form of the raw value v: a residue mod p, or over Q
    (p = 0) ``_rational`` of it."""
    return v % p if p else _rational(v)


def divide(a, b, p: int):
    """a / b in the field of characteristic p, canonical; ZeroDivisionError
    when b is zero there."""
    if p:
        if not b % p:
            raise ZeroDivisionError("division by zero")
        return a * pow(b, p - 2, p) % p
    # Fraction(a, b), not a / b: int / int would be a float
    return _rational(Fraction(a, b))


def canonical(values: dict, p: int) -> dict:
    """The nonzero entries of a {key: raw value} dict, each in canonical
    form: a residue mod p, or over Q (p = 0) ``_rational`` of it."""
    if p:
        return {k: r for k, v in values.items() if (r := v % p)}
    return {k: _rational(v) for k, v in values.items() if v}


def field_mismatch(*chars) -> ValueError:
    """The error for values of the fields of these characteristics met."""
    return ValueError("field mismatch: " + " vs ".join(str(FieldSpec(c)) for c in chars))


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


class Frozen:
    """Base of the value types, written out: dataclasses would import
    inspect in every process.  A subclass names its fields in __slots__;
    _freeze sets them once, in that order, and hashes them.  Equality,
    hash, repr, copy and pickle go by the fields' values; setting or
    deleting a field raises AttributeError."""

    __slots__ = ("_values", "_hash")

    def _freeze(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_hash", hash(values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values


class FieldSpec(Frozen):
    """Base field: characteristic 0 means Q, a prime p means F_p."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        if characteristic > _MAX_PRIME:
            raise ValueError(f"prime {characteristic} does not fit a machine word")
        if characteristic and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        self._freeze(characteristic)

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Q from Q, QQ or 0; F_p from F and the decimal digits of a prime
        p (F0 names no field); else ValueError."""
        text = text.strip()
        if text in ("Q", "QQ", "0"):
            return FieldSpec(0)
        digits = text[1:]
        if text[:1] == "F" and digits.isascii() and digits.isdigit() and int(digits):
            return FieldSpec(int(digits))
        raise ValueError(f"unknown field spec {text!r} (expected Q or F<p>, p prime)")

    def scalar(self, num: int, den: int = 1):
        """num / den as a canonical raw value of this field."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        p = self.characteristic
        if p and not den % p:
            raise ZeroDivisionError(f"denominator {den} is not invertible mod {p}")
        return divide(num, den, p)


def parse_scalar(text: str, spec: FieldSpec):
    """Parse 'a' or 'a/b' (optional sign, decimal) into a canonical raw
    value of spec's field."""
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


def parse_number(kind, what, token: str):
    """token read as kind (int or Fraction), what naming it in a file's or
    an option's own terms; else a ValueError in those terms."""
    try:
        return kind(token)
    except ZeroDivisionError:
        raise ValueError(f"{what} {token} has a zero denominator") from None
    except ValueError:
        noun = "an integer" if kind is int else "a rational number"
        raise ValueError(f"{what} {token or '(empty)'} is not {noun}") from None


def _parse_int(s: str) -> int:
    body = s[1:] if s[:1] in "+-" else s
    if not body.isdigit():
        raise ValueError(f"malformed scalar literal {s!r}")
    return int(s)


class Element:
    """Linear combination of generators sharing source, target and degree.

    terms maps generators to canonical raw values, as linalg's columns
    hold them; p is the field's characteristic, 0 for Q, and the one tag
    of the field: the values themselves carry none.  The constructor
    prunes zeros and canonicalizes, so a loop sums raw products with plain
    + and * and canonicalizes once, building the Element.  An operation on
    two fields raises ValueError.  The zero element is the empty
    combination; its field is contextual.
    """

    __slots__ = ("terms", "p")

    def __init__(self, terms=None, p: int = 0):
        self.p = p
        self.terms = canonical(terms, p) if terms else {}

    @staticmethod
    def single(name: str, coeff, p: int = 0) -> "Element":
        return Element({name: coeff}, p)

    def is_zero(self) -> bool:
        return not self.terms

    def _field(self, other: "Element") -> int:
        """The characteristic of both: the zero element takes the other's."""
        if self.p != other.p and self.terms and other.terms:
            raise field_mismatch(self.p, other.p)
        return self.p if self.terms else other.p

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return Element(out, self._field(other))

    def __neg__(self) -> "Element":
        return Element({g: -c for g, c in self.terms.items()}, self.p)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, c) -> "Element":
        """c * self for a raw value c of the field."""
        return Element({g: v * c for g, v in self.terms.items()}, self.p)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.terms == other.terms
                and (self.p == other.p or not self.terms))

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Element({self.terms!r}{f', p={self.p}' if self.p else ''})"


ZERO = Element()


def accumulate(acc: dict, table: dict, pairs, negate: bool = False) -> dict:
    """acc += (-1)^negate sum of c * table[key] over the (key, c) pairs.

    The one evaluator of sparse tables: a key absent from the table
    contributes nothing, and the sign is applied only on a hit.  Raw
    values, plain + and *: returns acc, a {generator: raw value} dict of
    sums that are not canonical and may be zero (Element(acc, p) makes
    them canonical and prunes them)."""
    get = acc.get
    for key, c in pairs:
        val = table.get(key)
        if val is None:
            continue
        if negate:
            c = -c
        for g, v in val.terms.items():
            acc[g] = get(g, 0) + v * c
    return acc


def tensor_terms(elements) -> list:
    """(key, coefficient) pairs of the tensor product of Elements, keys in
    input order; raw products, not canonical."""
    pairs = [((), 1)]
    for el in elements:
        pairs = [(key + (g,), c0 * c) for key, c0 in pairs for g, c in el.terms.items()]
    return pairs
