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

from .linalg import Echelon, FieldOps, nullspace, rank, solve
from .quiver import AInfStructure, Element, ZERO, accumulate
from .scalars import FieldSpec, Scalar


class Cochain:
    """Sparse normalized cochain: table maps tuple keys (or object names at
    r = 0) to Elements; absent keys mean zero."""

    __slots__ = ("r", "s", "table")

    def __init__(self, r: int, s: int, table=None):
        self.r = r
        self.s = s
        self.table = {k: v for k, v in (table or {}).items() if not v.is_zero()}

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

    def scale(self, c: Scalar) -> "Cochain":
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
    """Circle product with shifted signs; both factors of length >= 1."""
    if phi.r < 1 or psi.r < 1:
        raise ValueError("circle product needs length >= 1 factors")
    cat = alg.cat
    r_out = phi.r + psi.r - 1
    s_out = phi.s + psi.s
    sign_flip = psi.shifted_degree == 1
    out = {}
    gens = cat.nonidentity_generators()
    for t in cat.tuples(r_out, gens):
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
        el = Element(acc)
        if not el.is_zero():
            out[t] = el
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
        out[(a,)] = Element(acc)
    return Cochain(1, phi.s, out)


# ---------------------------------------------------------------------------
# Bases, matrices and linear algebra over the cochain complex
# ---------------------------------------------------------------------------

def cochain_basis(alg: AInfStructure, r: int, s: int):
    """Deterministic ordered basis [(key, gen)] of CC of length r, degree s."""
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
    for t in cat.tuples(r, gens):
        want = sum(cat.deg(n) for n in t) + s
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
            vec[i] = c.value
    return vec


def vector_to_cochain(vec, basis, r: int, s: int, spec: FieldSpec) -> Cochain:
    table: dict = {}
    for i, b in enumerate(basis):
        v = vec[i] if not isinstance(vec, dict) else vec.get(i)
        if not v:
            continue
        key, g = b
        el = table.get(key, ZERO)
        table[key] = el + Element.single(g, Scalar(spec, v))
    return Cochain(r, s, table)


def delta_matrix(alg: AInfStructure, r: int, s: int):
    """Matrix of delta: CC(r,s) -> CC(r+1,s) in the deterministic bases.

    Returns (col_basis, row_basis, columns) with columns[j] a sparse dict
    {row index: raw value}.  Assembled row-wise from the three-term
    expansion of delta, independently of coboundary(), which brackets with
    mu^2; the test suite checks the two against each other.
    """
    cat, spec = alg.cat, alg.spec
    ops = FieldOps(spec)
    col_basis = cochain_basis(alg, r, s)
    row_basis = cochain_basis(alg, r + 1, s)
    col_index = {b: i for i, b in enumerate(col_basis)}
    row_index = {b: i for i, b in enumerate(row_basis)}
    columns = [dict() for _ in col_basis]
    flip_phi = (r + s - 1) % 2 == 1
    mu2 = alg.tables[2]

    def add(j, i, value):
        cell = columns[j]
        new = ops.add(cell.get(i, ops.zero), value)
        if new:
            cell[i] = new
        else:
            cell.pop(i, None)

    gens = cat.nonidentity_generators()
    for t in cat.tuples(r + 1, gens):
        degs = [cat.deg(n) for n in t]
        if r == 0:
            slots = ((cat.source(t[0]), "right"), (cat.target(t[0]), "left"))
        else:
            slots = ((t[1:], "right"), (t[:-1], "left"))
        for key, side in slots:
            want = (sum(cat.deg(n) for n in key) if r else 0) + s
            src = cat.source(key[-1]) if r else key
            tgt = cat.target(key[0]) if r else key
            for h in cat.gens_from(src):
                gen = cat.generators[h]
                if gen.target != tgt or gen.degree != want:
                    continue
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
                        add(j, i, ops.neg(c.value) if negate else c.value)
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
                        want = sum(cat.deg(n2) for n2 in slot) + s
                        for h in cat.gens_from(cat.source(slot[-1])):
                            gen = cat.generators[h]
                            if gen.target != cat.target(slot[0]) or gen.degree != want:
                                continue
                            j = col_index.get((slot, h))
                            if j is None:
                                continue
                            i = row_index.get((t, h))
                            if i is not None:
                                add(j, i, ops.neg(c.value) if negate else c.value)
                eps += degs[r - n] - 1
    return col_basis, row_basis, columns


def hh_bar(spec: FieldSpec, r_max: int, alg: AInfStructure = None):
    """Bigraded Hochschild cohomology dimensions via the normalized bar
    complex and exact Gaussian elimination: {(r, s): dim}, zeros omitted."""
    from .quiver import preset_A

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


class CoboundarySystem:
    """The system delta(nu) = phi in the deterministic bases, factored once.

    cols and rows are the bases of CC(r-1, s) and CC(r, s), matrix the
    delta matrix between them, b the vector of phi and echelon the one
    factorization that the primitive and both ranks read."""

    def __init__(self, phi: Cochain, alg: AInfStructure):
        self.r, self.s, self.spec = phi.r, phi.s, alg.spec
        self.cols, self.rows, self.matrix = delta_matrix(alg, phi.r - 1, phi.s)
        self.b = cochain_to_vector(phi, self.rows)
        self.echelon = Echelon(self.matrix, FieldOps(alg.spec), len(self.cols))

    def primitive(self):
        """The deterministic nu with delta(nu) = phi, or None."""
        x = self.echelon.solve(self.b)
        if x is None:
            return None
        return vector_to_cochain(x, self.cols, self.r - 1, self.s, self.spec)

    def ranks(self):
        """(rank A, rank [A|b]); unequal ranks certify that phi is not a
        coboundary."""
        rank_a = self.echelon.rank
        return rank_a, rank_a + (0 if self.echelon.contains(self.b) else 1)


def is_coboundary(phi: Cochain, alg: AInfStructure):
    """Exact solve of delta(nu) = phi.

    Returns the deterministic primitive nu, or None with the system being
    infeasible (rank certificate available via CoboundarySystem.ranks)."""
    if not coboundary(phi, alg).is_zero():
        raise ValueError("input is not a cocycle")
    return CoboundarySystem(phi, alg).primitive()


def cocycle_space(alg: AInfStructure, r: int, s: int):
    """Deterministic basis of cocycles in CC(r,s) as Cochains."""
    cols, rows, matrix = delta_matrix(alg, r, s)
    vecs = nullspace(matrix, len(cols), FieldOps(alg.spec))
    return [vector_to_cochain(v, cols, r, s, alg.spec) for v in vecs]


# Reference cocycles by content: (field, category signature, r, s, mu^2
# items).  The reference depends on nothing else, so the structures of
# one pipeline (preset, transferred, gauged, MC-built), distinct objects
# sharing one mu^2, share an entry, and any caller in the process gets the
# same answer it would compute.  There is one entry per field and cell in
# practice.  Callers get a copy of the table; the Elements in it are
# shared and, like every Element, never mutated.
_REFERENCES: dict = {}


def _reference_key(alg: AInfStructure, r: int, s: int):
    cat = alg.cat
    signature = (tuple(cat.objects), tuple(cat.generators.values()),
                 frozenset(cat.identities.items()))
    return alg.spec, signature, r, s, frozenset(alg.tables[2].items())


def reference_cocycle(alg: AInfStructure, r: int, s: int) -> Cochain:
    """First deterministic cocycle whose class is nonzero in HH at (r,s);
    the fixed yardstick against which class coordinates are reported.

    The kernel of delta at (r,s) is scanned in order against one
    factorization of the image of delta from (r-1,s); the result is kept
    per content key (_REFERENCES) and returned as a fresh Cochain."""
    key = _reference_key(alg, r, s)
    ref = _REFERENCES.get(key)
    if ref is None:
        ref = _find_reference(alg, r, s)
        _REFERENCES[key] = ref
    return Cochain(ref.r, ref.s, ref.table)


def _find_reference(alg: AInfStructure, r: int, s: int) -> Cochain:
    ops = FieldOps(alg.spec)
    cols, rows, matrix = delta_matrix(alg, r, s)
    kernel = nullspace(matrix, len(cols), ops)
    below_cols, below_rows, below = delta_matrix(alg, r - 1, s)
    image = Echelon(below, ops, len(below_cols))
    for vec in kernel:
        if not image.contains({i: v for i, v in enumerate(vec) if v}):
            return vector_to_cochain(vec, cols, r, s, alg.spec)
    raise ValueError(f"HH at (r={r}, s={s}) vanishes; no reference cocycle")


def class_coordinate(phi: Cochain, reference: Cochain, alg: AInfStructure) -> Scalar:
    """Coordinate c with phi = c * reference + coboundary (HH cell must be
    1-dimensional for this to be well-posed, which is checked by caller)."""
    ops = FieldOps(alg.spec)
    cols, rows, matrix = delta_matrix(alg, phi.r - 1, phi.s)
    ref_vec = cochain_to_vector(reference, rows)
    b = cochain_to_vector(phi, rows)
    x = solve(matrix + [ref_vec], len(cols) + 1, b, ops)
    if x is None:
        raise ValueError("phi is not cohomologous to a multiple of the reference")
    return Scalar(alg.spec, x[-1])
