"""Truncated formal power series in one variable U with exact coefficients.

Coefficients are Python ints: the partition, theta and polygon-count
series are integral, and the one division, by Euler's function, keeps
them so (its constant term is 1).  All arithmetic is exact modulo
U^(N+1).
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


def divide_by_euler(a: TruncatedUSeries, k: int = 1) -> TruncatedUSeries:
    """a / E^k modulo U^(N+1), E = prod_{m>0} (1 - U^m) Euler's function,
    the series sum_j (-1)^j U^(j(3j-1)/2) over all integers j (the
    pentagonal number theorem).  So q = a / E is q_n = a_n + sum_{j>0}
    (-1)^(j+1) (q_(n - j(3j-1)/2) + q_(n - j(3j+1)/2)): O(k N sqrt N)."""
    order = a.order
    steps = []  # the generalized pentagonal numbers, ascending, with their signs
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        sign = 1 if j % 2 else -1
        steps += [(j * (3 * j - 1) // 2, sign), (j * (3 * j + 1) // 2, sign)]
        j += 1
    q = list(a.coeffs)
    for _ in range(k):
        for n in range(1, order + 1):
            total = q[n]
            for g, sign in steps:
                if g > n:
                    break
                total += sign * q[n - g]
            q[n] = total
    return TruncatedUSeries(q, order)


def partition_series(order: int) -> TruncatedUSeries:
    """Generating function of integer partitions: 1 / E."""
    return divide_by_euler(TruncatedUSeries([1], order))


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
    inverts the theta series (a specialization of the triple product).
    As u = 1 / E, that is v / E^3 == 1."""
    return divide_by_euler(theta_v(order), 3).is_one()
