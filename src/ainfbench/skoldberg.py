"""Small periodic bimodule resolution of the 6-dimensional algebra.

The algebra A = K<u,v>/(paths of length 3) over the semisimple ring
S = K e0 + K f0 admits a rank-2 free resolution P_j = A (x)_S B_j (x)_S A,
where B_j is spanned by two paths (beta_j, gamma_j):

    B_0    = (e0, f0)                       length 0
    B_4k   = ((uv)^{3k}, (vu)^{3k})         length 6k   (k > 0)
    B_4k+1 = (v(uv)^{3k}, u(vu)^{3k})       length 6k+1
    B_4k+2 = (v(uv)^{3k+1}, u(vu)^{3k+1})   length 6k+3
    B_4k+3 = ((uv)^{3k+2}, (vu)^{3k+2})     length 6k+4

(path words written in composition order, rightmost letter first; the two
words of one B_j end at different objects).  One split rule, ``_split``,
describes the differential: p_j(1 (x) b (x) 1) = sum sign * left (x) b' (x)
right, where left b' right = b as paths.  For odd j it splits off the first
letter (+) or the last letter (-); for even j the last two letters, the
first and the last letter, or the first two letters, all with sign +.

The program builds only the dual complex from that rule.  The tests build
the primal one, p_j in the basis x (x) b (x) y of P_j, and check that it
is exact (tests/oracles.py).  The dual Hom_{A^e}(P_j, A) has basis
(b, a) for the elements a of A parallel to b, of internal degree
s = deg(a) - deg(b), and its differential sends (b, a) to
sum sign * (-1)^(deg(left) s) * left a right on b' for each split of b'
that leaves b: the Koszul sign of moving the cochain past left.

Periodicity is a property of the words: B_{j+4} is B_j with 6 more
letters, 3 of them u, and the split rule depends only on j mod 4, so the
dual at (j+4, s-3) is the one at (j, s) up to the Koszul signs, whose
parity flips with s.  Hence HH(r, s) = HH(r+8, s-6) for r > 0, and
HH(r, s) = HH(r+4, s-3) in characteristic 2.
"""

from __future__ import annotations

from .linalg import cohomology_dims, rank
from .quiver import A_GENERATORS, _assoc_mul_A
from .scalars import FieldSpec, canonical


def _word(j: int, which: int) -> tuple:
    """The path word beta_j (which=0) or gamma_j (which=1); () at j = 0."""
    k, rem = divmod(j, 4)
    letters = ("u", "v") if (which == 0) == (rem in (0, 3)) else ("v", "u")
    n = 6 * k + (0, 1, 3, 4)[rem]
    return (letters * (n // 2 + 1))[:n]


def _ends(j: int, which: int):
    """(source, target) objects of the word b_which of B_j."""
    if j == 0:
        return ("a", "a") if which == 0 else ("b", "b")
    word = _word(j, which)
    return A_GENERATORS[word[-1]].source, A_GENERATORS[word[0]].target


def _split(j: int, which: int):
    """p_j(1 (x) b_which (x) 1) as [(left, which2, right, sign)]: left and
    right are generators of A, or None for the idempotent."""
    w = _word(j, which)
    if j % 2:
        cuts = ((w[0], None, 1), (None, w[-1], -1))
    else:
        cuts = ((None, _assoc_mul_A(w[-2], w[-1]), 1), (w[0], w[-1], 1),
                (_assoc_mul_A(w[0], w[1]), None, 1))
    out = []
    for left, right, sign in cuts:
        # the middle word's target tells the two words of B_{j-1} apart
        tgt = A_GENERATORS[left].source if left else _ends(j, which)[1]
        out.append((left, 0 if _ends(j - 1, 0)[1] == tgt else 1, right, sign))
    return out


def _dual_basis(j: int):
    """{s: [(which, name)]}: the basis of Hom(P_j, A) by internal degree,
    name running over the generators parallel to the word b_which."""
    out: dict[int, list] = {}
    for which in (0, 1):
        src, tgt = _ends(j, which)
        shift = sum(A_GENERATORS[letter].degree for letter in _word(j, which))
        for name, g in A_GENERATORS.items():
            if (g.source, g.target) == (src, tgt):
                out.setdefault(g.degree - shift, []).append((which, name))
    return out


def _dual_differential(bases, j: int, s: int, p: int):
    """Columns of delta: Hom(P_j, A) -> Hom(P_{j+1}, A) at internal degree
    s, over bases[j][s] and bases[j+1][s], read from the split rule, over
    the field of characteristic p."""
    rows = {b: i for i, b in enumerate(bases[j + 1].get(s, ()))}
    splits = [(which1, *cut) for which1 in (0, 1) for cut in _split(j + 1, which1)]
    cols = []
    for which, name in bases[j].get(s, ()):
        col: dict[int, object] = {}
        for which1, left, which2, right, sign in splits:
            if which2 != which:
                continue
            out = _assoc_mul_A(left, name) if left else name
            if out and right:
                out = _assoc_mul_A(out, right)
            if out is None:
                continue
            if left and A_GENERATORS[left].degree * s % 2:
                sign = -sign
            i = rows[(which1, out)]
            col[i] = col.get(i, 0) + sign
        cols.append(canonical(col, p))
    return cols


def skoldberg_dims(spec: FieldSpec, r_max: int):
    """Bigraded cohomology dimensions {(r, s): dim} of Hom(P_*, A[s]),
    computed blockwise with exact rank over the base field."""
    p = spec.characteristic
    bases = [_dual_basis(j) for j in range(r_max + 2)]
    return cohomology_dims({(j, s): (len(basis), rank(_dual_differential(bases, j, s, p), p))
                            for j in range(r_max + 1) for s, basis in sorted(bases[j].items())})
