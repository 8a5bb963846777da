"""Truncated formal power series in one variable U with exact coefficients.

Coefficients are Python ints: the partition, theta and polygon-count
series are integral, and nothing here divides.  All arithmetic is exact
modulo U^(N+1).
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

    def is_one(self):
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __neg__(self):
        return TruncatedUSeries([-a for a in self.coeffs], self.order)

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


def partition_series(order: int) -> TruncatedUSeries:
    """Generating function of integer partitions: prod_{m>0} (1 - U^m)^(-1).
    Its inverse, Euler's function prod_{m>0} (1 - U^m), is the sparse series
    sum_k (-1)^k U^(k(3k-1)/2) over all integers k (the pentagonal number
    theorem), so p(n) = sum_{k>0} (-1)^(k+1) (p(n - k(3k-1)/2) + p(n -
    k(3k+1)/2)): O(sqrt n) terms for each n, O(N sqrt N) in all."""
    steps = []  # the generalized pentagonal numbers, ascending, with their signs
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        sign = 1 if k % 2 else -1
        steps += [(k * (3 * k - 1) // 2, sign), (k * (3 * k + 1) // 2, sign)]
        k += 1
    p = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        for g, sign in steps:
            if g > n:
                break
            total += sign * p[n - g]
        p[n] = total
    return TruncatedUSeries(p, order)


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
