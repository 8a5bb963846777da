"""Normalized Hochschild cochains of the 6-dimensional category.

A cochain of length r and internal degree s is a degree-preserving map on
composable r-tuples of the non-identity generators {e1, f1, u, v}, valued
in elements of degree sum(deg inputs) + s (outputs may involve e0, f0).
Length 0 cochains assign one element of Hom(x,x)^s to each object x.

Degrees are shifted throughout: ||phi|| = r + s - 1, ||a|| = deg(a) - 1.
The circle product

    (phi o psi)(a_...) = sum_n (-1)^{||psi|| eps_n} phi(..., psi(window), ...)

makes [phi, psi] = phi o psi - (-1)^{||phi|| ||psi||} psi o phi a graded
Lie bracket, and the coboundary is bracketing with the product:

    delta(phi) = mu2 o phi - (-1)^{||phi||} phi o mu2.

Expanded, this is exactly the seven-term formula used for the order-6
obstruction check (at r = 5), which is how the sign convention is pinned.
"""

from __future__ import annotations

from .linalg import Echelon, cohomology_dims, rank  # noqa: F401 (bench/test_bench.py reads hochschild.rank)
from .quiver import AInfStructure, Element, ZERO, index_by_output, preset_A, splices
from .scalars import FieldSpec, canonical, divide, field_mismatch


class Cochain:
    """Sparse normalized cochain: table maps tuple keys (or object names at
    r = 0) to Elements of one field (else ValueError); absent keys mean
    zero."""

    __slots__ = ("r", "s", "table")

    def __init__(self, r: int, s: int, table=None):
        self.r = r
        self.s = s
        self.table = {k: v for k, v in (table or {}).items() if not v.is_zero()}
        fields = {v.p for v in self.table.values()}
        if len(fields) > 1:
            raise field_mismatch(*sorted(fields))

    @property
    def shifted_degree(self) -> int:
        return (self.r + self.s - 1) % 2

    def value(self, key) -> Element:
        return self.table.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.table

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.r, self.s) != (other.r, other.s):
            raise ValueError("cochain bidegrees differ")
        out = dict(self.table)
        for k, v in other.table.items():
            out[k] = out[k] + v if k in out else v
        return Cochain(self.r, self.s, out)

    def __neg__(self) -> "Cochain":
        return Cochain(self.r, self.s, {k: -v for k, v in self.table.items()})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, c) -> "Cochain":
        """c * self for a raw value c of the field."""
        return Cochain(self.r, self.s, {k: v.scale(c) for k, v in self.table.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and (self.r, self.s) == (other.r, other.s)
            and self.table == other.table
        )

    def __repr__(self):
        return f"Cochain(r={self.r}, s={self.s}, {len(self.table)} entries)"


def mu_cochain(alg: AInfStructure, d: int) -> Cochain:
    """The arity-d structure map as a cochain in CC^2(A,A)^{2-d}."""
    table = {}
    cat = alg.cat
    for names, el in alg.tables.get(d, {}).items():
        if any(cat.is_identity_component(n) for n in names):
            if d >= 3:
                raise ValueError(f"mu^{d} not normalized at {names}")
            continue
        table[names] = el
    return Cochain(d, 2 - d, table)


def gerst_compose(phi: Cochain, psi: Cochain, alg: AInfStructure) -> Cochain:
    """Circle product with shifted signs; both factors of length >= 1.

    One splices scatter of psi into phi, which is exact, signed by the
    tail only when ||psi|| is odd.  Keys are the composable tuples of
    non-identity generators, in the order of cat.tuples, so a psi-key
    holding an identity component (as mu^2's do) is never read."""
    if phi.r < 1 or psi.r < 1:
        raise ValueError("circle product needs length >= 1 factors")
    cat = alg.cat
    gens = cat.nonidentity_generators()
    inner = {w: v for w, v in psi.table.items() if all(n in gens for n in w)}
    acc = splices({}, phi.table, inner, cat.odd, psi.shifted_degree)
    return Cochain(phi.r + psi.r - 1, phi.s + psi.s, _entries(acc, cat, alg.spec.characteristic))


def _entries(acc: dict, cat, p: int) -> dict:
    """The nonzero scattered sums as Elements over characteristic p, keyed by
    the tuples of non-identity generators in cat.tuples order."""
    gens = cat.nonidentity_generators()
    sums = ((t, Element(acc[t], p)) for t in cat.tuples_among(acc, gens))
    return {t: el for t, el in sums if not el.is_zero()}


def gerstenhaber(phi: Cochain, psi: Cochain, alg: AInfStructure) -> Cochain:
    """[phi, psi] = phi o psi - (-1)^{||phi|| ||psi||} psi o phi."""
    a = gerst_compose(phi, psi, alg)
    b = gerst_compose(psi, phi, alg)
    if phi.shifted_degree and psi.shifted_degree:
        return a + b
    return a - b


def coboundary(phi: Cochain, alg: AInfStructure) -> Cochain:
    """Hochschild differential delta(phi) = [mu^2, phi].

    mu^2 enters with its identity inputs, so outputs of phi in e0/f0
    multiply.  A length-0 cochain is one scatter too: its object values,
    summed, are the inner table's one entry, at the empty key, which meets
    only the mu^2 keys it composes with, so the sum is exact."""
    if phi.r:
        return gerstenhaber(Cochain(2, 0, alg.tables[2]), phi, alg)
    acc = splices({}, alg.tables[2], {(): sum(phi.table.values(), ZERO)}, alg.cat.odd,
                  phi.shifted_degree)
    return Cochain(1, phi.s, _entries(acc, alg.cat, alg.spec.characteristic))


# ---------------------------------------------------------------------------
# Bases, matrices and linear algebra over the cochain complex
# ---------------------------------------------------------------------------

# The bases by category signature and (r, s), the only part of delta kept
# between calls: a basis holds no value, so every field and every
# structure on one category shares it.  Each delta_matrix call reads
# mu^2 afresh (_expansion), and its rows are numbered as its columns meet
# them.  Apart, by category signature and mu^2 support, hh_bar keeps the
# last rank over Q of an integral mu^2 on it per (r, s), with its mu^2
# coefficients, pivot product and pivot rows: the rank and product settle
# the rank over F_p for every p not dividing the product, and the rows
# clear the next cell (hh_bar).
_BASES: dict = {}
_RECORDS: dict = {}


def cochain_basis(alg: AInfStructure, r: int, s: int):
    """Deterministic ordered basis [(key, gen)] of CC of length r, degree s.

    Keys come in the order of cat.tuples, outputs in declaration order.
    Only tuples whose degree sum is deg(g) - s for some generator g can
    carry an entry, so the enumeration asks tuples for exactly those sums
    and never walks the others.  A basis depends on the category alone:
    it is built once per category signature and (r, s) and the same list
    is returned to every field and structure, so callers must not mutate
    it.  Only hh_bar's clearing and m6_certificate read one as rows."""
    bases = _BASES.setdefault(alg.cat.signature, {})
    if (r, s) not in bases:
        bases[(r, s)] = _enumerate_basis(alg.cat, r, s)
    return bases[(r, s)]


def _enumerate_basis(cat, r: int, s: int):
    out = []
    if r == 0:
        for obj in cat.objects:
            for g in cat.gens_from(obj):
                gen = cat.generators[g]
                if gen.target == obj and gen.degree == s:
                    out.append((obj, g))
        return out
    # the outputs of a tuple by (its source, its target, its degree sum)
    outputs = {}
    for obj in cat.objects:
        for g in cat.gens_from(obj):
            gen = cat.generators[g]
            outputs.setdefault((obj, gen.target, gen.degree - s), []).append(g)
    src = {n: g.source for n, g in cat.generators.items()}
    tgt = {n: g.target for n, g in cat.generators.items()}
    totals = {total for _, _, total in outputs}
    for t, total in cat.tuples(r, cat.nonidentity_generators(), totals, sums=True):
        out += [(t, g) for g in outputs.get((src[t[-1]], tgt[t[0]], total), ())]
    return out


def vector_to_cochain(vec, basis, r: int, s: int, spec: FieldSpec) -> Cochain:
    terms: dict = {}
    for (key, g), v in zip(basis, vec, strict=True):
        if v:
            terms.setdefault(key, {})[g] = v
    return Cochain(r, s, {key: Element(t, spec.characteristic) for key, t in terms.items()})


def delta_matrix(alg: AInfStructure, r: int, s: int, skip=(), rows=None):
    """Matrix of delta: CC(r,s) -> CC(r+1,s), columns in basis order.

    Returns (col_basis, rows, columns): cochain_basis' shared list, the
    row numbering {row key: id} in id order, and columns[j] the sparse
    dict {row id: raw value} of column j, or None for each j in skip: a
    skipped column is never expanded, so None stands for "not built", not
    for a zero column.  A row not in the dict passed as rows (extended in
    place; empty by default) gets the next id when a column first meets
    it, so no row basis is enumerated.  Each other column is expanded once
    (_column) from mu^2's expansion tables (_expansion), and made
    canonical, ids ascending.
    """
    col_basis = cochain_basis(alg, r, s)
    tables = _expansion(alg)
    rows = {} if rows is None else rows
    odd, p = alg.cat.odd, alg.spec.characteristic
    flip = (r + s - 1) % 2  # ||phi||
    skip = set(skip)
    return col_basis, rows, [
        None if j in skip else _column(() if not r else w, h, tables, rows, odd, flip, p)
        for j, (w, h) in enumerate(col_basis)]


def _expansion(alg: AInfStructure) -> tuple:
    """(right, left, preimages): mu^2's raw coefficients listed by what a
    column of delta meets, over keys of non-identity letters, in mu^2's
    order: right[h] holds (x, g, c) for each key (x, h) and output g of
    coefficient c, left[h] (y, g, c) for each key (h, y), and preimages[g]
    (key, c) for each key whose value holds g."""
    right, left, plain = {}, {}, set(alg.cat.nonidentity_generators())
    for (a, b), el in alg.tables[2].items():
        for g, c in el.terms.items():
            if a in plain:
                right.setdefault(b, []).append((a, g, c))
            if b in plain:
                left.setdefault(a, []).append((b, g, c))
    return right, left, index_by_output(
        (key, el) for key, el in alg.tables[2].items() if plain.issuperset(key))


def _column(w, h, tables, rows, odd, flip, p) -> dict:
    """The column (w, h) of delta (w = () at r = 0) by the three-term
    expansion of delta, independent of coboundary(), which brackets with
    mu^2; the test suite checks the two against each other.  rows numbers
    the rows, tables are _expansion's and flip is ||phi||.

    The column meets exactly the rows ((x,) + w, g) with g in mu^2(x, h),
    the rows (w + (y,), g) with g in mu^2(h, y), and the rows (w[:n] +
    (a, b) + w[n+1:], h) with w[n] in mu^2(a, b), the last signed by the
    parity of w's tail after n.  Each is a basis entry (check_table holds
    mu^2 to composable keys and outputs of their degree, source and
    target) and costs one get-or-assign of its id."""
    right, left, preimages = tables
    col = {}
    for x, g, c in right.get(h, ()):
        if (i := rows.get(key := ((x,) + w, g))) is None:
            i = rows[key] = len(rows)
        col[i] = col.get(i, 0) + c
    for y, g, c in left.get(h, ()):
        if (i := rows.get(key := (w + (y,), g))) is None:
            i = rows[key] = len(rows)
        col[i] = col.get(i, 0) + (-c if flip and odd[y] else c)
    negate = 1 ^ flip  # (-1)^(1 + ||phi|| + ||w[n+1:]||)
    for n in range(len(w) - 1, -1, -1):
        letter = w[n]
        if letter in preimages:
            head, tail = w[:n], w[n + 1:]
            for ab, c in preimages[letter]:
                if (i := rows.get(key := (head + ab + tail, h))) is None:
                    i = rows[key] = len(rows)
                col[i] = col.get(i, 0) + (-c if negate else c)
        negate ^= odd[letter]
    return canonical({i: col[i] for i in sorted(col)}, p)


def hh_bar(spec: FieldSpec, r_max: int, alg: AInfStructure = None):
    """Bigraded Hochschild cohomology dimensions via the normalized bar
    complex and exact Gaussian elimination: {(r, s): dim}, zeros omitted.
    alg (preset A by default) must be over spec's field and its mu^2
    associative (delta_squares_to_zero), else ValueError.

    A cochain of length k has s = deg(output) - (degree sum of k inputs),
    so s lies in [lo - k * hi, hi - k * lo] for the generator degrees
    lo..hi; the cells (r, s) are every s at which C(r, s) or C(r + 1, s)
    can be nonempty, and delta is built where both are.

    Clearing (Chen and Kerber, 2011): delta at (r, s) is eliminated only
    on its columns outside the pivot rows P of (r - 1, s), which index
    C(r, s).  The image of delta at (r - 1, s) has a basis unit
    triangular on P (Echelon.pivot_rows), so C(r, s) is that image plus
    the span of the e_j, j not in P, a direct sum.  delta^2 = 0 kills the
    image, so the kept columns have delta's full rank at (r, s).  The
    cleared columns are delta_matrix's skip: they are never expanded.
    Rows are numbered in basis order, as the next cell's columns, but at
    r_max by first hit: nothing clears with them, so no C(r_max + 1, s).

    One elimination over Q serves every prime that does not divide its
    pivot product.  Over Q with integral mu^2, each cell keeps in _RECORDS,
    by category and mu^2 support, mu^2's coefficients {(key, g): c}, its
    rank R, pivot product D (Echelon.pivot_product) and P.  Let M be the
    integer matrix of delta there: D is the determinant of an R x R minor
    of M on the rows P, a nonzero integer, and every (R + 1)-minor of M is
    0.  A structure over F_p on the same category and support whose
    coefficients are the Q ones mod p has the matrix M mod p.  If p does not divide D, that
    minor stays nonsingular mod p and the larger ones stay 0, so the
    rank is R and the image projects onto the rows P, which complement
    it too: hh_bar takes R and P without building or eliminating the F_p
    matrix.  Every other cell with columns and rows is built on its kept
    columns alone and eliminated over its own field.  A record made at
    r_max has pivot rows None, serves only there and keeps a longer run's."""
    alg = alg or preset_A(spec)
    if alg.spec != spec:
        raise field_mismatch(alg.spec.characteristic, spec.characteristic)
    if not delta_squares_to_zero(alg):
        raise ValueError("mu^2 is not associative: delta^2 != 0")
    p = spec.characteristic
    degs = [g.degree for g in alg.cat.generators.values()]
    lo, hi = min(degs), max(degs)
    cells = []
    for r in range(r_max + 1):
        ends = [b for k in (r, r + 1) for b in (lo - k * hi, hi - k * lo)]
        cells += [(r, s) for s in range(min(ends), max(ends) + 1)]
    coeffs = {(key, g): c for key, el in alg.tables[2].items() for g, c in el.terms.items()}
    records = _RECORDS.setdefault((alg.cat.signature, frozenset(coeffs)), {})
    integral = not p and all(type(c) is int for c in coeffs.values())
    blocks, pivot_rows = {}, {}  # pivot rows by cell, until the next r reads them
    for r, s in cells:
        cleared = pivot_rows.pop((r - 1, s), ())
        known = records.get((r, s))
        if (p and known and known[2] % p and {k: c % p for k, c in known[0].items()} == coeffs
                and (r == r_max or known[3] is not None)):
            blocks[(r, s)] = (len(cochain_basis(alg, r, s)), known[1])
            pivot_rows[(r, s)] = known[3]
            continue
        cols = cochain_basis(alg, r, s)
        rows = {b: i for i, b in enumerate(cochain_basis(alg, r + 1, s))} if r < r_max else {}
        if not cols or (r < r_max and not rows):
            out, det, pivots = 0, 1, ()
        else:
            echelon = Echelon([c for c in delta_matrix(alg, r, s, cleared, rows)[2]
                               if c is not None], p)
            out, pivots = echelon.rank, echelon.pivot_rows if r < r_max else None
            det = echelon.pivot_product if integral else None
            del echelon  # else held while the next cell is built and eliminated
        if integral and (pivots is not None or not known or known[3] is None
                         or known[0] != coeffs):   # never erase a longer run's P
            records[(r, s)] = (coeffs, out, det, pivots)
        pivot_rows[(r, s)] = pivots
        blocks[(r, s)] = (len(cols), out)
    return cohomology_dims(blocks)


def _check_solution(columns, x, b, p: int) -> None:
    """Raise AssertionError unless sum_j x_j columns[j] == b over the field
    of characteristic p: one sparse matrix-vector pass over the columns,
    sharing nothing with Echelon."""
    acc = {}
    for xj, col in zip(x, columns):
        if xj:
            for i, a in col.items():
                acc[i] = acc.get(i, 0) + xj * a
    if canonical(acc, p) != {i: v for i, v in b.items() if v}:
        raise AssertionError("the solve's answer fails its own system")


class Cell:
    """The HH cell at (r, s), factored once: cols, rows and matrix are
    delta_matrix(alg, r-1, s), its rows numbered by first hit, and echelon
    their Echelon, which every answer about a cochain phi at (r, s) reads."""

    def __init__(self, alg: AInfStructure, r: int, s: int):
        self.alg, self.r, self.s = alg, r, s
        self.cols, self.rows, self.matrix = delta_matrix(alg, r - 1, s)
        self.echelon = Echelon(self.matrix, alg.spec.characteristic)
        self._reference = None

    def vector(self, phi: Cochain) -> dict:
        """{row id: value} of phi (_ids)."""
        return self._ids(((key, g), c) for key, el in phi.table.items()
                         for g, c in el.terms.items())

    def _ids(self, entries) -> dict:
        """{row id: value} of ((key, g), value) pairs.  A basis entry of
        C(r, s) that no column meets (a zero row of delta) takes the next
        free id, kept, so residuals agree across calls; any other entry is
        a ValueError."""
        rows, vec = self.rows, {}
        for entry, c in entries:
            if (i := rows.get(entry)) is None:
                if entry not in cochain_basis(self.alg, self.r, self.s):
                    raise ValueError(f"cochain entry ({entry[0]}, {entry[1]}) outside basis")
                i = rows[entry] = len(rows)
            vec[i] = c
        return vec

    def primitive(self, phi: Cochain):
        """The deterministic nu with delta(nu) = phi, re-checked, or None."""
        b = self.vector(phi)
        x = self.echelon.solve(b)
        if x is None:
            return None
        _check_solution(self.matrix, x, b, self.echelon.p)
        return vector_to_cochain(x, self.cols, self.r - 1, self.s, self.alg.spec)

    def reference(self) -> Cochain:
        """First deterministic cocycle whose class is nonzero, as a fresh
        Cochain: the kernel of delta at (r, s) is back-substituted lazily,
        in order, until a vector leaves the image; it is bracket-checked once."""
        if self._reference is None:
            alg, r, s = self.alg, self.r, self.s
            cols, _, matrix = delta_matrix(alg, r, s)
            for vec in Echelon(matrix, self.echelon.p).kernel():
                residual = self.echelon.residual(self._ids((b, v) for b, v in zip(cols, vec) if v))
                if residual:
                    break
            else:
                raise ValueError(f"HH at (r={r}, s={s}) vanishes; no reference cocycle")
            ref = vector_to_cochain(vec, cols, r, s, alg.spec)
            if not coboundary(ref, alg).is_zero():
                raise ValueError(f"prescribed order-{r} cochain is not a cocycle")
            self._row = min(residual)
            self._reference, self._ref_value = ref, residual[self._row]
        return Cochain(self.r, self.s, self._reference.table)

    def coordinate(self, phi: Cochain):
        """(c, nu): the raw value c with phi = c * reference + delta(nu) in
        a 1-dimensional cell, and that nu.  Residuals are linear and vanish
        on the image, so c is the ratio of phi's and the reference's at one
        row; nu, the re-checked primitive of phi - c * reference, proves it
        (ValueError if there is none)."""
        ref = self.reference()
        at = self.echelon.residual(self.vector(phi)).get(self._row, 0)
        c = divide(at, self._ref_value, self.echelon.p)
        nu = self.primitive(phi - ref.scale(c))
        if nu is None:
            raise ValueError("phi is not cohomologous to a multiple of the reference")
        return c, nu


def solve_first(phi: Cochain, alg: AInfStructure, not_cocycle: Exception, solve):
    """solve() about the cochain phi; raises not_cocycle if phi is not a
    cocycle.  A feasible solve proves delta(phi) = 0 once delta^2 = 0
    (delta_squares_to_zero): delta_matrix is the bracket's matrix
    (test_delta_matrix_matches_direct_coboundary) and each primitive is
    re-checked against it.  So the bracket runs only after a solve gives
    None or a ValueError, or before it if delta^2 != 0.  A phi over
    another field than alg's is refused first (ValueError): its values
    would be read as alg's."""
    fields = {el.p for el in phi.table.values()} - {alg.spec.characteristic}
    if fields:
        raise field_mismatch(*fields, alg.spec.characteristic)
    exact = delta_squares_to_zero(alg)
    if not exact and not coboundary(phi, alg).is_zero():
        raise not_cocycle
    try:
        result = solve()
    except ValueError:  # e.g. an entry outside the bases: the bracket speaks first
        if not coboundary(phi, alg).is_zero():
            raise not_cocycle from None
        raise
    if result is None and exact and not coboundary(phi, alg).is_zero():
        raise not_cocycle
    return result


def is_coboundary(phi: Cochain, alg: AInfStructure):
    """The deterministic nu with delta(nu) = phi, or None; ValueError when
    phi is not a cocycle (solve_first)."""
    return solve_first(phi, alg, ValueError("input is not a cocycle"),
                       lambda: Cell(alg, phi.r, phi.s).primitive(phi))


# The cells asked for a reference, by (content key, r, s), and delta^2 = 0
# by content key: the field, the category signature and the mu^2 items,
# all that delta reads.  So distinct structures sharing one mu^2 (preset,
# transferred, gauged, MC-built) share an entry.  A cell enters _CELLS
# once its reference is bracket-checked.
_CELLS: dict = {}
_SQUARES_ZERO: dict = {}


def _content_key(alg: AInfStructure):
    return alg.spec, alg.cat.signature, frozenset(alg.tables[2].items())


def delta_squares_to_zero(alg: AInfStructure) -> bool:
    """Whether mu^2 is associative (identities included), which makes
    delta^2 = [mu^2 o mu^2, -] vanish (Gerstenhaber, Ann. Math. 1963);
    checked once per content key."""
    key = _content_key(alg)
    if key not in _SQUARES_ZERO:
        mu2_only = AInfStructure(alg.spec, alg.cat, 3, {2: alg.tables[2]})
        _SQUARES_ZERO[key] = not mu2_only.ainf_check(3)
    return _SQUARES_ZERO[key]


def _cell(alg: AInfStructure, r: int, s: int) -> Cell:
    key = (_content_key(alg), r, s)
    if key not in _CELLS:
        cell = Cell(alg, r, s)
        cell.reference()
        _CELLS[key] = cell
    return _CELLS[key]


def reference_cocycle(alg: AInfStructure, r: int, s: int) -> Cochain:
    """The reference cocycle of the cell at (r, s) (Cell.reference): the
    fixed yardstick against which class coordinates are reported."""
    return _cell(alg, r, s).reference()


def class_split(phi: Cochain, alg: AInfStructure):
    """(c, nu) with phi = c * reference_cocycle + delta(nu) in a
    1-dimensional cell (Cell.coordinate); the re-checked nu proves phi a
    cocycle."""
    return _cell(alg, phi.r, phi.s).coordinate(phi)


def class_coordinate(phi: Cochain, alg: AInfStructure):
    """The raw value c of class_split: phi's class against the reference."""
    return class_split(phi, alg)[0]
