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

from .linalg import Echelon, FieldOps, rank
from .quiver import AInfStructure, Element, ZERO, accumulate, preset_A, splices
from .scalars import FieldSpec, Scalar, canonical, field_mismatch


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
        """c * self for a raw value c of the field or a Scalar."""
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


def euler_cochain(alg: AInfStructure) -> Cochain:
    """Degree derivation e(x) = deg(x) x, a length-1 cocycle of degree 0."""
    table = {}
    for n in alg.cat.nonidentity_generators():
        d = alg.cat.deg(n)
        if d:
            table[(n,)] = Element.single(n, alg.spec.scalar(d))
    return Cochain(1, 0, table)


def gerst_compose(phi: Cochain, psi: Cochain, alg: AInfStructure) -> Cochain:
    """Circle product with shifted signs; both factors of length >= 1.

    Only splices are evaluated, which is exact: each term at t reads a
    psi-key w and a phi-key K with t = K[:p] + w + K[p+1:] and K[p] in the
    output of psi(w), so other tuples give zero.  Keys are the composable
    tuples of non-identity generators, in the order of cat.tuples, so a
    psi-key holding an identity component (as mu^2's do) is never read."""
    if phi.r < 1 or psi.r < 1:
        raise ValueError("circle product needs length >= 1 factors")
    cat, p = alg.cat, alg.spec.characteristic
    r_out = phi.r + psi.r - 1
    s_out = phi.s + psi.s
    sign_flip = psi.shifted_degree == 1
    out = {}
    gens = cat.nonidentity_generators()
    inner = {w: v for w, v in psi.table.items() if all(n in gens for n in w)}
    candidates = (t for t, *_ in splices(phi.table, inner))
    for t in cat.tuples_among(candidates, r_out, gens):
        degs = [cat.deg(n) for n in t]
        acc = {}
        eps = 0
        for n in range(phi.r):
            lo = r_out - n - psi.r
            inner = psi.table.get(t[lo: r_out - n])
            if inner is not None:
                head, tail = t[:lo], t[r_out - n:]
                accumulate(acc, phi.table,
                           ((head + (g,) + tail, c) for g, c in inner.terms.items()),
                           sign_flip and eps % 2)
            if n < r_out:
                eps += degs[r_out - 1 - n] - 1
        out[t] = Element(acc, p)
    return Cochain(r_out, s_out, out)


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
    multiply.  Length-0 cochains have no circle product and take the
    two-term formula delta(phi)(a) = mu2(a, phi) +- mu2(phi, a)."""
    if phi.r:
        return gerstenhaber(Cochain(2, 0, alg.tables[2]), phi, alg)
    cat, mu2 = alg.cat, alg.tables[2]
    flip_phi = phi.shifted_degree == 1
    out = {}
    for (a,) in cat.tuples(1, cat.nonidentity_generators()):
        acc = {}
        v = phi.table.get(cat.source(a))
        if v is not None:
            accumulate(acc, mu2, (((a, g), c) for g, c in v.terms.items()))
        v = phi.table.get(cat.target(a))
        if v is not None:
            accumulate(acc, mu2, (((g, a), c) for g, c in v.terms.items()),
                       flip_phi and (cat.deg(a) - 1) % 2)
        out[(a,)] = Element(acc, alg.spec.characteristic)
    return Cochain(1, phi.s, out)


# ---------------------------------------------------------------------------
# Bases, matrices and linear algebra over the cochain complex
# ---------------------------------------------------------------------------

def cochain_basis(alg: AInfStructure, r: int, s: int):
    """Deterministic ordered basis [(key, gen)] of CC of length r, degree s.

    Keys come in the order of cat.tuples, outputs in declaration order.
    Only tuples whose degree sum is deg(g) - s for some generator g can
    carry an entry, so the enumeration asks tuples for exactly those sums
    and never walks the others."""
    cat = alg.cat
    out = []
    if r == 0:
        for obj in cat.objects:
            for g in cat.gens_from(obj):
                gen = cat.generators[g]
                if gen.target == obj and gen.degree == s:
                    out.append((obj, g))
        return out
    gens = cat.nonidentity_generators()
    totals = {g.degree - s for g in cat.generators.values()}
    for t, total in cat.tuples(r, gens, totals, sums=True):
        want = total + s
        src = cat.source(t[-1])
        tgt = cat.target(t[0])
        for g in cat.gens_from(src):
            gen = cat.generators[g]
            if gen.target == tgt and gen.degree == want:
                out.append((t, g))
    return out


def cochain_to_vector(phi: Cochain, basis) -> dict:
    index = {b: i for i, b in enumerate(basis)}
    vec = {}
    for key, el in phi.table.items():
        for g, c in el.terms.items():
            i = index.get((key, g))
            if i is None:
                raise ValueError(f"cochain entry ({key}, {g}) outside basis")
            vec[i] = c
    return vec


def vector_to_cochain(vec, basis, r: int, s: int, spec: FieldSpec) -> Cochain:
    terms: dict = {}
    for i, (key, g) in enumerate(basis):
        v = vec.get(i) if isinstance(vec, dict) else vec[i]
        if v:
            terms.setdefault(key, {})[g] = v
    return Cochain(r, s, {key: Element(t, spec.characteristic) for key, t in terms.items()})


def delta_matrix(alg: AInfStructure, r: int, s: int):
    """Matrix of delta: CC(r,s) -> CC(r+1,s) in the deterministic bases.

    Returns (col_basis, row_basis, columns) with columns[j] a sparse dict
    {row index: raw value}.  Assembled row-wise from the three-term
    expansion of delta, independently of coboundary(), which brackets with
    mu^2; the test suite checks the two against each other.  Entries are
    summed raw and made canonical once, at the end.
    """
    cat = alg.cat
    col_basis = cochain_basis(alg, r, s)
    row_basis = cochain_basis(alg, r + 1, s)
    col_index = {b: i for i, b in enumerate(col_basis)}
    row_index = {b: i for i, b in enumerate(row_basis)}
    columns = [dict() for _ in col_basis]
    flip_phi = (r + s - 1) % 2 == 1
    mu2 = alg.tables[2]

    def add(j, i, value):
        columns[j][i] = columns[j].get(i, 0) + value

    # A tuple without a row contributes nothing (every row_index lookup
    # below would miss), so only the row basis' tuples are walked, in order.
    for t in dict.fromkeys(t for t, _ in row_basis):
        degs = [cat.deg(n) for n in t]
        if r == 0:
            slots = ((cat.source(t[0]), "right"), (cat.target(t[0]), "left"))
        else:
            slots = ((t[1:], "right"), (t[:-1], "left"))
        for key, side in slots:
            # a hit in col_index already has the basis' source, target and degree
            for h in cat.gens_from(cat.source(key[-1]) if r else key):
                j = col_index.get((key, h))
                if j is None:
                    continue
                if side == "right":
                    el = mu2.get((t[0], h), ZERO)
                    negate = False
                else:
                    el = mu2.get((h, t[-1]), ZERO)
                    negate = flip_phi and (degs[-1] - 1) % 2 == 1
                for g, c in el.terms.items():
                    i = row_index.get((t, g))
                    if i is not None:
                        add(j, i, -c if negate else c)
        if r >= 1:
            eps = 0
            for n in range(r):
                lo = r - 1 - n
                inner = mu2.get((t[lo], t[lo + 1]))
                if inner is not None:
                    head, tail = t[:lo], t[lo + 2:]
                    negate = (1 + (1 if flip_phi else 0) + eps) % 2 == 1
                    for g, c in inner.terms.items():
                        slot = head + (g,) + tail
                        for h in cat.gens_from(cat.source(slot[-1])):
                            j = col_index.get((slot, h))
                            if j is None:
                                continue
                            i = row_index.get((t, h))
                            if i is not None:
                                add(j, i, -c if negate else c)
                eps += degs[r - n] - 1
    for j, col in enumerate(columns):  # one column at a time: no second matrix
        columns[j] = canonical(col, alg.spec.characteristic)
    return col_basis, row_basis, columns


def hh_bar(spec: FieldSpec, r_max: int, alg: AInfStructure = None):
    """Bigraded Hochschild cohomology dimensions via the normalized bar
    complex and exact Gaussian elimination: {(r, s): dim}, zeros omitted."""
    alg = alg or preset_A(spec)
    ops = FieldOps(spec)
    dims = {}
    ranks: dict[tuple, int] = {}
    sizes: dict[tuple, int] = {}
    for r in range(0, r_max + 1):
        for s in range(-(r + 1), 2):
            cols, rows, matrix = delta_matrix(alg, r, s)
            sizes[(r, s)] = len(cols)
            ranks[(r, s)] = rank(matrix, ops) if cols and rows else 0
    for r in range(0, r_max + 1):
        for s in range(-(r + 1), 2):
            dim = sizes[(r, s)] - ranks[(r, s)] - ranks.get((r - 1, s), 0)
            if dim:
                dims[(r, s)] = dim
    return dims


def _check_solution(columns, x, b, ops) -> None:
    """Raise AssertionError unless sum_j x_j columns[j] == b: one sparse
    matrix-vector pass over the columns, sharing nothing with Echelon."""
    p = ops.spec.characteristic
    acc = {}
    for xj, col in zip(x, columns):
        if xj:
            for i, a in col.items():
                acc[i] = acc.get(i, 0) + xj * a
    got = {i: v % p if p else v for i, v in acc.items()}
    if {i: v for i, v in got.items() if v} != {i: v for i, v in b.items() if v}:
        raise AssertionError("the solve's answer fails its own system")


class Cell:
    """The HH cell at (r, s), factored once: cols, rows and matrix are
    delta_matrix(alg, r-1, s) and echelon their Echelon, which every answer
    about a cochain phi at (r, s) reads."""

    def __init__(self, alg: AInfStructure, r: int, s: int):
        self.alg, self.r, self.s = alg, r, s
        self.cols, self.rows, self.matrix = delta_matrix(alg, r - 1, s)
        self.echelon = Echelon(self.matrix, FieldOps(alg.spec), len(self.cols))
        self._reference = None

    def primitive(self, phi: Cochain):
        """The deterministic nu with delta(nu) = phi, re-checked, or None."""
        b = cochain_to_vector(phi, self.rows)
        x = self.echelon.solve(b)
        if x is None:
            return None
        _check_solution(self.matrix, x, b, self.echelon.ops)
        return vector_to_cochain(x, self.cols, self.r - 1, self.s, self.alg.spec)

    def ranks(self, phi: Cochain):
        """(rank A, rank [A|phi]); unequal, they certify phi no coboundary."""
        rank_a, b = self.echelon.rank, cochain_to_vector(phi, self.rows)
        return rank_a, rank_a + (0 if self.echelon.contains(b) else 1)

    def reference(self) -> Cochain:
        """First deterministic cocycle whose class is nonzero, as a fresh
        Cochain: the kernel of delta at (r, s) is back-substituted lazily,
        in order, until a vector leaves the image; it is bracket-checked once."""
        if self._reference is None:
            alg, r, s = self.alg, self.r, self.s
            cols, _, matrix = delta_matrix(alg, r, s)
            for vec in Echelon(matrix, self.echelon.ops, len(cols)).kernel():
                residual = self.echelon.residual({i: v for i, v in enumerate(vec) if v})
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

    def coordinate(self, phi: Cochain) -> Scalar:
        """c with phi = c * reference + delta(nu) in a 1-dimensional cell.
        Residuals are linear and vanish on the image, so c is the ratio of
        phi's and the reference's at one row; the re-checked primitive of
        phi - c * reference proves it (ValueError if there is none)."""
        ref, ops = self.reference(), self.echelon.ops
        at = self.echelon.residual(cochain_to_vector(phi, self.rows)).get(self._row, 0)
        c = ops.div(at, self._ref_value)
        if self.primitive(phi - ref.scale(c)) is None:
            raise ValueError("phi is not cohomologous to a multiple of the reference")
        return Scalar(self.alg.spec, c)


def solve_first(phi: Cochain, alg: AInfStructure, not_cocycle: Exception, solve):
    """solve() about the cochain phi; raises not_cocycle if phi is not a
    cocycle.  A feasible solve proves delta(phi) = 0 once delta^2 = 0
    (delta_squares_to_zero): delta_matrix is the bracket's matrix
    (test_delta_matrix_matches_direct_coboundary) and each primitive is
    re-checked against it.  So the bracket runs only after a solve gives
    None or a ValueError, or before it if delta^2 != 0."""
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
    """The deterministic nu with delta(nu) = phi, or None (Cell.ranks then
    certifies it); ValueError when phi is not a cocycle (solve_first)."""
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
    cat = alg.cat
    signature = (tuple(cat.objects), tuple(cat.generators.values()),
                 frozenset(cat.identities.items()))
    return alg.spec, signature, frozenset(alg.tables[2].items())


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


def class_coordinate(phi: Cochain, alg: AInfStructure) -> Scalar:
    """c with phi = c * reference_cocycle + coboundary in a 1-dimensional
    cell (Cell.coordinate); its re-checked primitive proves phi a cocycle."""
    return _cell(alg, phi.r, phi.s).coordinate(phi)
