"""Exact sparse linear algebra over Q or F_p: one column elimination.

A matrix is a list of sparse columns (dict row -> raw value: for Q an int
when integral and otherwise a Fraction, as ``scalars._rational`` makes it;
for F_p an int residue).  ``Echelon`` takes the columns in order and
reduces each against the basis built from the ones before it.  A column
that keeps a nonzero residual is a pivot column and its residual joins
the basis; a column that reduces to zero is free, and the multipliers
that zeroed it give its kernel vector.  ``rank``, ``solve``,
``nullspace`` (and its lazy form ``Echelon.kernel``), the column-space
test ``Echelon.contains`` and ``Echelon.residual`` all read this one
factorization.

Why the outputs equal those of Gauss-Jordan elimination (``rref`` on the
rows, first nonzero column first, kept as the test oracle): the pivot
columns are the greedy basis, each column that is independent of the
columns before it, which is exactly the set of columns rref pivots on.
Once that set is fixed, the solution with every free variable 0 is
unique, and so is the kernel vector with a 1 at one free column and 0 at
the others.  So the results do not depend on which row a residual is
pivoted on; that row is chosen to keep fill low (the row hit by the
fewest input columns, then the lowest row id).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .scalars import FieldSpec, _rational


class FieldOps:
    """Raw-value arithmetic for one field, used inside elimination loops."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p = spec.characteristic
        self.zero = 0
        self.one = 1
        if p == 0:
            self.add = lambda a, b: _rational(a + b)
            self.sub = lambda a, b: _rational(a - b)
            self.mul = lambda a, b: _rational(a * b)
            # Fraction(a, b), not a / b: int / int would be a float
            self.div = lambda a, b: _rational(Fraction(a, b))
            self.neg = lambda a: -a
        else:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: (a * b) % p
            self.div = lambda a, b: a * pow(b, p - 2, p) % p
            self.neg = lambda a: -a % p


class Echelon:
    """Column echelon factorization of a sparse matrix.

    columns[j] is a sparse dict {row: value}; ncols >= len(columns) pads
    with zero columns.  Basis vector k is the residual of pivot column
    pivots[k], scaled to 1 at its pivot row; it is zero at the pivot rows
    of all earlier basis vectors.  Pivot column k is recorded as
    columns[pivots[k]] = sum_i steps[k][i] * basis[i] + scale[k] * basis[k],
    and each free column as its multipliers, so a right-hand side needs
    only a reduction and a back-substitution.  Nothing is cached beyond
    the object, which hochschild.Cell keeps for a reference cell.
    """

    def __init__(self, columns, ops: FieldOps, ncols: int = None):
        self.ops = ops
        self.ncols = len(columns) if ncols is None else ncols
        self.pivots: list[int] = []    # k -> pivot column
        self.free: list[int] = []      # free columns, ascending
        self._weight = Counter(r for col in columns for r in col)
        self._slot: dict = {}          # pivot row -> k
        self._rows: list = []          # k -> pivot row
        self._basis: list[dict] = []   # k -> residual scaled to 1 at its pivot row
        self._steps: list[dict] = []   # k -> {i: multiplier of basis i}
        self._inv: list = []           # k -> 1 / scale[k]
        self._kernel: list[dict] = []  # per free column, its multipliers
        for j, col in enumerate(columns):
            residual, mult = self._reduce(col)
            if residual:
                self._insert(j, residual, mult)
            else:
                self.free.append(j)
                self._kernel.append(mult)
        for j in range(len(columns), self.ncols):
            self.free.append(j)
            self._kernel.append({})

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, col):
        """(residual, multipliers) of col against the basis."""
        v = {r: a for r, a in col.items() if a}
        mult = {}
        slot = self._slot
        heap = [slot[r] for r in v if r in slot]
        if not heap:
            return v, mult
        heapify(heap)
        rows, basis = self._rows, self._basis
        p = self.ops.spec.characteristic
        zero = self.ops.zero
        get = v.get
        while heap:
            k = heappop(heap)
            f = get(rows[k])
            if not f:
                continue  # pushed twice, or already cancelled
            mult[k] = f
            for r, a in basis[k].items():
                nv = get(r, zero) - f * a
                if p:
                    nv %= p
                elif nv.denominator == 1:  # scalars._rational, inline
                    nv = nv.numerator
                if nv:
                    if r not in v and r in slot:
                        heappush(heap, slot[r])
                    v[r] = nv
                else:
                    del v[r]
        return v, mult

    def _insert(self, j, residual, mult):
        weight = self._weight
        row = min(residual, key=lambda r: (weight[r], r))
        scale = residual[row]
        ops = self.ops
        inv = ops.div(ops.one, scale)
        if inv != ops.one:
            mul = ops.mul
            residual = {r: mul(a, inv) for r, a in residual.items()}
        self._slot[row] = len(self._rows)
        self._rows.append(row)
        self._basis.append(residual)
        self._steps.append(mult)
        self._inv.append(inv)
        self.pivots.append(j)

    def _back_substitute(self, mult):
        """x with sum_j x_j columns[j] = sum_k mult[k] basis[k], supported
        on the pivot columns."""
        ops = self.ops
        y = dict(mult)
        x = [ops.zero] * self.ncols
        mul, sub = ops.mul, ops.sub
        for k in range(len(self.pivots) - 1, -1, -1):
            yk = y.get(k)
            if not yk:
                continue
            xk = mul(yk, self._inv[k])
            x[self.pivots[k]] = xk
            for i, m in self._steps[k].items():
                y[i] = sub(y.get(i, ops.zero), mul(xk, m))
        return x

    def residual(self, b) -> dict:
        """b less the column-space vector that leaves it zero at every pivot
        row: unique, so linear in b, and empty iff b lies in the space."""
        return self._reduce(b)[0]

    def contains(self, b) -> bool:
        """Whether b lies in the column space."""
        return not self.residual(b)

    def solve(self, b):
        """Solution of sum_j x_j columns[j] = b with every free variable 0,
        as a list of raw values, or None when b is not in the column space."""
        residual, mult = self._reduce(b)
        if residual:
            return None
        return self._back_substitute(mult)

    def kernel(self):
        """Kernel basis, lazily: per free column, ascending, the vector with
        1 there and 0 at the other free columns, back-substituted only when
        asked for."""
        ops = self.ops
        for j, mult in zip(self.free, self._kernel):
            vec = [ops.neg(v) for v in self._back_substitute(mult)]
            vec[j] = ops.one
            yield vec

    def nullspace(self):
        """The kernel basis of kernel(), as a list."""
        return list(self.kernel())


def rref(rows, ops: FieldOps):
    """Reduce sparse rows in place to reduced row echelon form.

    Returns the list of pivot columns, one per nonzero row; after the call
    rows[i] is the i-th echelon row (zero rows dropped).  Pivot selection:
    lowest column, then lowest original row index.  The library computes
    with Echelon; this independent elimination is the tests' oracle.
    """
    rows[:] = [dict(r) for r in rows if r]
    pivots = []
    done = 0
    cols = sorted({c for r in rows for c in r})
    for col in cols:
        pivot_i = None
        for i in range(done, len(rows)):
            if rows[i].get(col):
                pivot_i = i
                break
        if pivot_i is None:
            continue
        rows[done], rows[pivot_i] = rows[pivot_i], rows[done]
        piv = rows[done]
        inv = ops.div(ops.one, piv[col])
        if inv != ops.one:
            for c in list(piv):
                piv[c] = ops.mul(piv[c], inv)
        for i, row in enumerate(rows):
            if i == done:
                continue
            f = row.get(col)
            if not f:
                continue
            for c, v in piv.items():
                nv = ops.sub(row.get(c, ops.zero), ops.mul(f, v))
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        pivots.append(col)
        done += 1
        if done == len(rows):
            break
    rows[:] = [r for r in rows if r]
    rows.sort(key=lambda r: min(r))
    return pivots


def rank(vectors, ops: FieldOps) -> int:
    """Rank of a list of sparse vectors (rows or columns alike)."""
    return Echelon(vectors, ops).rank


def solve(columns, ncols: int, b, ops: FieldOps):
    """Solve sum_j x_j * columns[j] = b exactly.

    columns: list of sparse vectors (dict row -> value); b likewise.
    Returns the deterministic solution (free variables set to zero) as a
    list of raw values, or None when the system is infeasible.
    """
    return Echelon(columns, ops, ncols).solve(b)


def nullspace(columns, ncols: int, ops: FieldOps):
    """Deterministic basis of {x : sum_j x_j columns[j] = 0}.

    One basis vector per free column, in ascending column order; the free
    coordinate is 1 and the other free coordinates are 0.
    """
    return Echelon(columns, ops, ncols).nullspace()
