"""Truncated formal power series in one variable U with exact coefficients.

Coefficients are Python ints (the partition and theta series are integral)
or Fractions when rational division is needed; floats never appear.  All
arithmetic is exact modulo U^(N+1).
"""

from __future__ import annotations


class TruncatedUSeries:
    """Polynomial approximation c_0 + c_1 U + ... + c_N U^N of a power series."""

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs += [0] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if isinstance(other, int):
            other = TruncatedUSeries([other], self.order)
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __add__(self, other):
        self._compat(other)
        return TruncatedUSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __neg__(self):
        return TruncatedUSeries([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedUSeries([other * a for a in self.coeffs], self.order)
        self._compat(other)
        return series_mul(self, other)

    __rmul__ = __mul__

    def _compat(self, other):
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*U^{n}" if n > 1 else f"{c}*U")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def series_mul(a: TruncatedUSeries, b: TruncatedUSeries) -> TruncatedUSeries:
    """Cauchy product modulo U^(N+1)."""
    n = a.order
    out = [0] * (n + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j in range(n + 1 - i):
            cb = b.coeffs[j]
            if cb:
                out[i + j] += ca * cb
    return TruncatedUSeries(out, n)


def series_inv(a: TruncatedUSeries) -> TruncatedUSeries:
    """Multiplicative inverse modulo U^(N+1); constant term must be a unit
    (over the integers that means +-1; Fraction coefficients invert exactly)."""
    c0 = a.coeffs[0]
    if not c0:
        raise ZeroDivisionError("constant term 0 is not invertible")
    if isinstance(c0, int):
        if c0 not in (1, -1):
            raise ZeroDivisionError(
                f"constant term {c0} is not invertible over the integers"
            )
        inv0 = c0
    else:
        inv0 = 1 / c0  # Fraction: exact
    n = a.order
    out = [0] * (n + 1)
    out[0] = inv0
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            if a.coeffs[i]:
                acc += a.coeffs[i] * out[k - i]
        out[k] = -inv0 * acc
    return TruncatedUSeries(out, n)


def one(order: int) -> TruncatedUSeries:
    return TruncatedUSeries([1], order)


def partition_series(order: int) -> TruncatedUSeries:
    """Generating function of integer partitions: prod_{m>0} (1 - U^m)^(-1).

    The product is finite modulo U^(N+1) since factors with m > N are 1.
    """
    result = one(order)
    for m in range(1, order + 1):
        factor = [0] * (order + 1)
        factor[0] = 1
        factor[m] = -1
        result = series_mul(result, series_inv(TruncatedUSeries(factor, order)))
    return result


def theta_v(order: int) -> TruncatedUSeries:
    """Sparse series sum_{p>=0} (-1)^p (2p+1) U^(p(p+1)/2)."""
    out = [0] * (order + 1)
    p = 0
    while p * (p + 1) // 2 <= order:
        out[p * (p + 1) // 2] = (-1) ** p * (2 * p + 1)
        p += 1
    return TruncatedUSeries(out, order)


def jacobi_check(order: int = 50) -> bool:
    """u^3 * v == 1 modulo U^(order+1): the cube of the partition series
    inverts the theta series (a specialization of the triple product)."""
    u = partition_series(order)
    v = theta_v(order)
    return series_mul(series_mul(series_mul(u, u), u), v).is_one()
