"""Small periodic bimodule resolution of the 6-dimensional algebra.

The algebra A = K<u,v>/(paths of length 3) over the semisimple ring
S = K e0 + K f0 admits a rank-2 free resolution P_j = A (x)_S B_j (x)_S A,
where B_j is spanned by two paths (beta_j, gamma_j):

    B_0    = (e0, f0)                       length 0
    B_4k   = ((uv)^{3k}, (vu)^{3k})         length 6k   (k > 0)
    B_4k+1 = (v(uv)^{3k}, u(vu)^{3k})       length 6k+1
    B_4k+2 = (v(uv)^{3k+1}, u(vu)^{3k+1})   length 6k+3
    B_4k+3 = ((uv)^{3k+2}, (vu)^{3k+2})     length 6k+4

(path words written in composition order, rightmost letter first).  The
differentials split one or two letters of the middle word into the outer
A-factors; dualizing into A gives a 4-step ladder of 2x2 matrices in the
left/right multiplication operators l(a), r(b) whose only k-dependence is
a sign eta = (-1)^k and an internal shift of 3 per half-period.  That
shift is 6 per full period of 8 steps, which is the bigraded periodicity
HH(r, s) = HH(r+8, s-6) for r > 0 (step (4, -3) in characteristic 2).
"""

from __future__ import annotations

from .linalg import FieldOps, rank
from .quiver import A_GENERATORS, _assoc_mul_A
from .scalars import FieldSpec

def _basis_word(j: int, which: int) -> tuple:
    """The path word beta_j (which=0) or gamma_j (which=1)."""
    k, rem = divmod(j, 4)
    if rem == 0:
        core = ("u", "v") * (3 * k) if which == 0 else ("v", "u") * (3 * k)
        return core
    if rem == 1:
        return (("v",) + ("u", "v") * (3 * k)) if which == 0 else (
            ("u",) + ("v", "u") * (3 * k))
    if rem == 2:
        return (("v",) + ("u", "v") * (3 * k + 1)) if which == 0 else (
            ("u",) + ("v", "u") * (3 * k + 1))
    core = ("u", "v") * (3 * k + 2) if which == 0 else ("v", "u") * (3 * k + 2)
    return core


class SkoldbergComplex:
    """Primal resolution terms and differentials, in explicit bases.

    P_j basis: (x, which, y) with x, y in the 6-element basis of A,
    which in {0,1} picking beta_j/gamma_j, subject to the S-tensor
    matching source(x) = target(word) and source(word) = target(y).
    """

    def __init__(self, spec: FieldSpec, j_max: int):
        self.spec = spec
        self.j_max = j_max
        self.bases = [self._basis(j) for j in range(j_max + 1)]

    def _word_of(self, j, which):
        if j == 0:
            return ()
        return _basis_word(j, which)

    def _ends(self, j, which):
        if j == 0:
            return ("a", "a") if which == 0 else ("b", "b")
        word = _basis_word(j, which)
        return A_GENERATORS[word[-1]].source, A_GENERATORS[word[0]].target

    def _basis(self, j):
        out = []
        for which in (0, 1):
            src, tgt = self._ends(j, which)
            for x, gx in A_GENERATORS.items():
                if gx.source != tgt:
                    continue
                for y, gy in A_GENERATORS.items():
                    if gy.target != src:
                        continue
                    out.append((x, which, y))
        return out

    def differential(self, j):
        """Matrix of p_j: P_j -> P_{j-1} as sparse columns over the bases."""
        assert 1 <= j <= self.j_max
        cols = []
        target_index = {b: i for i, b in enumerate(self.bases[j - 1])}
        ops = FieldOps(self.spec)
        for (x, which, y) in self.bases[j]:
            word = _basis_word(j, which)
            col: dict[int, object] = {}

            def emit(x2, word2, y2, sign, empty_obj=None):
                if x2 is None or y2 is None:
                    return
                if word2:
                    which2 = self._which_of_word(j - 1, word2)
                else:
                    # trivial path: beta_0 sits at a, gamma_0 at b
                    which2 = 0 if empty_obj == "a" else 1
                if which2 is None:
                    return
                i = target_index.get((x2, which2, y2))
                if i is None:
                    return
                val = ops.one if sign > 0 else ops.neg(ops.one)
                new = ops.add(col.get(i, ops.zero), val)
                if new:
                    col[i] = new
                else:
                    col.pop(i, None)

            if j % 2 == 0:
                # split the last two letters right, middle pair, or first two left
                emit(x, word[:-2], self._mul3(word[-2], word[-1], y), +1)
                emit(_assoc_mul_A(x, word[0]), word[1:-1],
                     _assoc_mul_A(word[-1], y), +1)
                emit(self._mul3(x, word[0], word[1]), word[2:], y, +1)
            else:
                emit(_assoc_mul_A(x, word[0]), word[1:], y, +1,
                     empty_obj=A_GENERATORS[word[0]].source)
                emit(x, word[:-1], _assoc_mul_A(word[-1], y), -1,
                     empty_obj=A_GENERATORS[word[-1]].target)
            cols.append(col)
        return cols

    @staticmethod
    def _mul3(a, b, c):
        ab = _assoc_mul_A(a, b)
        return _assoc_mul_A(ab, c) if ab else None

    def _which_of_word(self, j, word):
        for which in (0, 1):
            if self._word_of(j, which) == word:
                return which
        return None

    def augmentation(self):
        """epsilon: P_0 -> A, x (x) y -> xy, as sparse columns over the
        A-basis enumerated in A_GENERATORS order."""
        a_index = {g: i for i, g in enumerate(A_GENERATORS)}
        ops = FieldOps(self.spec)
        cols = []
        for (x, which, y) in self.bases[0]:
            prod = _assoc_mul_A(x, y)
            cols.append({a_index[prod]: ops.one} if prod else {})
        return cols

    def verify_composites(self):
        """p_j o p_{j+1} = 0 for all computed steps, and epsilon o p_1 = 0."""
        ops = FieldOps(self.spec)
        def compose(left_cols, right_cols):
            out = []
            for col in right_cols:
                acc: dict[int, object] = {}
                for row, val in col.items():
                    for row2, val2 in left_cols[row].items():
                        new = ops.add(acc.get(row2, ops.zero), ops.mul(val, val2))
                        if new:
                            acc[row2] = new
                        else:
                            acc.pop(row2, None)
                out.append(acc)
            return out

        steps = [self.differential(j) for j in range(1, self.j_max + 1)]
        if any(c for c in compose(self.augmentation(), steps[0])):
            return False
        for j in range(1, self.j_max):
            if any(c for c in compose(steps[j - 1], steps[j])):
                return False
        return True


# ---------------------------------------------------------------------------
# Dual complex Hom(P_*, A) in closed form: the 4-step operator ladder
# ---------------------------------------------------------------------------

# Hom-pieces of A: label -> ordered basis with internal degrees
_PIECES = {
    "bb": (("f0", 0), ("f1", 1)),
    "aa": (("e0", 0), ("e1", 1)),
    "ba": (("v", 0),),
    "ab": (("u", 1),),
}


def _hom_term(j: int):
    """(piece labels, internal shifts) of Hom(P_j, A) = piece1[-s1] + piece2[-s2].

    Component i is theta |-> theta(basis_i of B_j); the shift is the word's
    internal degree (its count of u letters)."""
    k, rem = divmod(j, 4)
    if rem == 0:
        return ("bb", "aa"), (3 * k, 3 * k)
    if rem == 1:
        return ("ba", "ab"), (3 * k, 3 * k + 1)
    if rem == 2:
        return ("ba", "ab"), (3 * k + 1, 3 * k + 2)
    return ("bb", "aa"), (3 * k + 2, 3 * k + 2)


def _ladder_ops(j: int):
    """The 2x2 operator matrix of the dual differential out of Hom(P_j, A).

    Entries are lists of (sign_uses_eta, coeff, left, right) where the
    operator acts as x -> coeff * eta? * l(left) r(right) x; eta = (-1)^k.
    """
    rem = j % 4
    if rem == 0:
        return (
            ((False, 1, "v", None), ),            # row 1: l(v) x1
            ((False, -1, None, "v"), ),           #        - r(v) x2
            ((False, -1, None, "u"), ),           # row 2: - r(u) x1
            ((True, 1, "u", None), ),             #        + eta l(u) x2
        )
    if rem == 1:
        return (
            ((True, 1, "e1", None), (False, 1, None, "f1")),
            ((False, 1, "v", "v"), ),
            ((True, 1, "u", "u"), ),
            ((True, -1, "f1", None), (False, 1, None, "e1")),
        )
    if rem == 2:
        return (
            ((True, -1, "u", None), ),
            ((False, -1, None, "v"), ),
            ((False, -1, None, "u"), ),
            ((False, 1, "v", None), ),
        )
    return (
        ((True, 1, "f1", None), (False, 1, None, "f1")),
        ((True, 1, "u", "v"), ),
        ((False, 1, "v", "u"), ),
        ((True, 1, "e1", None), (False, 1, None, "e1")),
    )


def _apply_op(terms, eta, name):
    """Apply one matrix entry to basis name; yields (out_name, coeff)."""
    for uses_eta, coeff, left, right in terms:
        out = name
        if right is not None:
            out = _assoc_mul_A(out, right)
            if out is None:
                continue
        if left is not None:
            out = _assoc_mul_A(left, out)
            if out is None:
                continue
        c = coeff * (eta if uses_eta else 1)
        yield out, c


def skoldberg_dims(spec: FieldSpec, r_max: int):
    """Bigraded cohomology dimensions {(r, s): dim} of Hom(P_*, A[s]),
    computed blockwise with exact rank over the base field."""
    ops = FieldOps(spec)
    # basis of Hom(P_j, A) for fixed s: [(component, name)] with
    # internal degree of name == s + shift of the component
    def basis(j, s):
        pieces, shifts = _hom_term(j)
        out = []
        for comp in (0, 1):
            for name, deg in _PIECES[pieces[comp]]:
                if deg == s + shifts[comp]:
                    out.append((comp, name))
        return out

    def delta_cols(j, s):
        rows = {b: i for i, b in enumerate(basis(j + 1, s))}
        eta = -1 if (j // 4) % 2 else 1
        m = _ladder_ops(j)
        cols = []
        for comp, name in basis(j, s):
            col: dict[int, object] = {}
            entries = ((0, m[0]), (1, m[2])) if comp == 0 else ((0, m[1]), (1, m[3]))
            for out_comp, terms in entries:
                for out_name, coeff in _apply_op(terms, eta, name):
                    i = rows.get((out_comp, out_name))
                    if i is None:
                        continue
                    val = ops.one if coeff > 0 else ops.neg(ops.one)
                    cur = ops.add(col.get(i, ops.zero), val)
                    if cur:
                        col[i] = cur
                    else:
                        col.pop(i, None)
            cols.append(col)
        return cols

    dims = {}
    s_lo = -3 * (r_max + 8) // 4 - 4
    for r in range(0, r_max + 1):
        for s in range(s_lo, 2):
            n = len(basis(r, s))
            if n == 0:
                continue
            rank_out = rank(delta_cols(r, s), ops)
            rank_in = rank(delta_cols(r - 1, s), ops) if r > 0 else 0
            dim = n - rank_out - rank_in
            if dim:
                dims[(r, s)] = dim
    return dims


def skoldberg_check(spec: FieldSpec, j_max: int = 12) -> bool:
    """p o p = 0 and epsilon o p_1 = 0 on the primal resolution."""
    return SkoldbergComplex(spec, j_max).verify_composites()
