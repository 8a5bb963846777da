"""Exact sparse linear algebra over Q or F_p: one column elimination.

A matrix is a list of sparse columns (dict row -> raw value: for Q an int
when integral and otherwise a Fraction, as ``scalars._rational`` makes it;
for F_p an int residue), over the field of characteristic p (0 for Q).
``Echelon`` takes the columns in order and reduces each against the basis
built from the ones before it.  A column that keeps a nonzero residual is
a pivot column and its residual joins the basis; a column that reduces to
zero is free, and the multipliers that zeroed it give its kernel vector.
``rank``, ``solve``, ``nullspace`` (and its lazy form ``Echelon.kernel``),
``Echelon.residual``, empty exactly on the column space, and
``Echelon.pivot_product``, the determinant of a nonsingular maximal minor,
and ``Echelon.pivot_rows`` all read this one factorization.

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
from heapq import heapify, heappop, heappush
from math import prod

from .scalars import canon, divide


class Echelon:
    """Column echelon factorization of a sparse matrix.

    columns is a list of sparse dicts {row: value}, one per column; an
    empty dict is a zero column.  Basis vector k is the residual of pivot
    column pivots[k], scaled to 1 at its pivot row; it is zero at the
    pivot rows of all earlier basis vectors.  Pivot column k is recorded as
    columns[pivots[k]] = sum_i steps[k][i] * basis[i] + scale[k] * basis[k],
    and each free column as its multipliers, so a right-hand side needs
    only a reduction and a back-substitution.  Nothing is cached beyond
    the object, which hochschild.Cell keeps for a reference cell.

    The pivot row of a residual is its row hit by the fewest input
    columns, then the least row key: the key (weight, row) of every row
    is built once per matrix.  A pivot of 1 needs no scaling, one of -1
    (p - 1 mod p) is its own inverse and scales by a sign flip, and any
    other is inverted by divide, with canon on every entry.
    """

    def __init__(self, columns, p: int):
        self.p = p
        self.ncols = len(columns)
        self.pivots: list[int] = []    # k -> pivot column
        self.free: list[int] = []      # free columns, ascending
        # row -> (input columns hitting it, row): the pivot-row key (_insert)
        self._order = {r: (w, r) for r, w in Counter(r for col in columns for r in col).items()}
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
        del self._order  # read by _insert alone; a cached Cell would keep it

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def pivot_rows(self) -> tuple:
        """k -> pivot row of basis vector k, as pivots is k -> pivot column.
        On these rows the basis is unit triangular, so the column space
        and the unit vectors of the other rows span all vectors over the
        rows, as a direct sum."""
        return tuple(self._rows)

    @property
    def pivot_product(self):
        """prod_k scale[k], canonical: the determinant of the minor on the
        pivot rows and pivot columns, since there the basis vectors form a
        unit triangular matrix (each is 1 at its pivot row and 0 at the
        earlier ones) and the steps an upper triangular one with diagonal
        scale.  Exact: 1 over the product of the inverses _inv, by divide,
        never a float; over Q an int when the columns are integral."""
        return divide(1, prod(self._inv), self.p)

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
        p = self.p
        get = v.get
        while heap:
            k = heappop(heap)
            f = get(rows[k])
            if not f:
                continue  # pushed twice, or already cancelled
            mult[k] = f
            for r, a in basis[k].items():
                nv = get(r, 0) - f * a
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
        row = min(residual, key=self._order.__getitem__)
        p = self.p
        a = residual[row]
        if a == 1:
            inv = 1
        elif a == p - 1:  # -1 (over Q p - 1 = -1): its own inverse; p - b is -b, canonical
            inv = p - 1
            residual = {r: p - b for r, b in residual.items()}
        else:
            inv = divide(1, a, p)
            residual = {r: canon(b * inv, p) for r, b in residual.items()}
        self._slot[row] = len(self._rows)
        self._rows.append(row)
        self._basis.append(residual)
        self._steps.append(mult)
        self._inv.append(inv)
        self.pivots.append(j)

    def _back_substitute(self, mult):
        """x with sum_j x_j columns[j] = sum_k mult[k] basis[k], supported
        on the pivot columns."""
        p = self.p
        y = dict(mult)
        x = [canon(0, p)] * self.ncols
        for k in range(len(self.pivots) - 1, -1, -1):
            yk = y.get(k)
            if not yk:
                continue
            xk = canon(yk * self._inv[k], p)
            x[self.pivots[k]] = xk
            for i, m in self._steps[k].items():
                y[i] = canon(y.get(i, 0) - xk * m, p)
        return x

    def residual(self, b) -> dict:
        """b less the column-space vector that leaves it zero at every pivot
        row: unique, so linear in b, and empty iff b lies in the space."""
        return self._reduce(b)[0]

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
        p = self.p
        for j, mult in zip(self.free, self._kernel):
            vec = [canon(-v, p) for v in self._back_substitute(mult)]
            vec[j] = canon(1, p)
            yield vec

    def nullspace(self):
        """The kernel basis of kernel(), as a list."""
        return list(self.kernel())


def rref(rows, p: int):
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
        inv = divide(1, piv[col], p)
        if inv != 1:
            for c in list(piv):
                piv[c] = canon(piv[c] * inv, p)
        for i, row in enumerate(rows):
            if i == done:
                continue
            f = row.get(col)
            if not f:
                continue
            for c, v in piv.items():
                nv = canon(row.get(c, 0) - f * v, p)
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


def rank(vectors, p: int) -> int:
    """Rank of a list of sparse vectors (rows or columns alike)."""
    return Echelon(vectors, p).rank


def cohomology_dims(blocks: dict) -> dict:
    """{(r, s): dim} of a complex given {(r, s): (size, rank out)} per
    block, the differential running from (r, s) to (r + 1, s): dim = size
    - rank out - rank in, zeros dropped, in the blocks' order."""
    dims = {}
    for (r, s), (size, out) in blocks.items():
        dim = size - out - blocks.get((r - 1, s), (0, 0))[1]
        if dim:
            dims[(r, s)] = dim
    return dims


def solve(columns, ncols: int, b, p: int):
    """Solve sum_j x_j * columns[j] = b exactly.

    columns: list of sparse vectors (dict row -> value), padded with zero
    columns to ncols; b likewise.  Returns the deterministic solution
    (free variables set to zero) as a list of raw values, or None when the
    system is infeasible.
    """
    return Echelon(_padded(columns, ncols), p).solve(b)


def nullspace(columns, ncols: int, p: int):
    """Deterministic basis of {x : sum_j x_j columns[j] = 0}, columns
    padded with zero columns to ncols.

    One basis vector per free column, in ascending column order; the free
    coordinate is 1 and the other free coordinates are 0.
    """
    return Echelon(_padded(columns, ncols), p).nullspace()


def _padded(columns, ncols: int) -> list:
    return [*columns, *[{}] * (ncols - len(columns))]
