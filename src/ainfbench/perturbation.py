"""Homological perturbation: minimal model transfer across a dg splitting.

The ambient dg category splits as an acyclic part plus a harmonic subspace
isomorphic to its cohomology.  Because the homotopy here has rank one and
its image multiplies to zero, the transfer collapses to the two-term
recursion

    I^d(a_d..a_1)  = sum_{0<m<d} T mu2(I^{d-m}(a_d..a_{m+1}), I^m(a_m..a_1))
    mu^d(a_d..a_1) = sum_{0<m<d} p mu2(I^{d-m}(a_d..a_{m+1}), I^m(a_m..a_1))

with I^1 the inclusion; no higher-tree terms are needed (generality is a
non-goal, rejected user splittings get a diagnostic instead).
"""

from __future__ import annotations

from .quiver import (AInfStructure, Element, QuiverCategory, ZERO, accumulate, dump,
                     preset_A, preset_C, table_rows)
from .scalars import FieldSpec, tensor_terms


def _apply_linear(mapping: dict, el: Element) -> Element:
    return Element(accumulate({}, mapping, el.terms.items()), el.p)


class SplittingData:
    """Inclusion/projection/homotopy data for ambient = acyclic + harmonic."""

    def __init__(self, ambient: AInfStructure, harmonic: QuiverCategory,
                 incl: dict,        # harmonic generator -> ambient Element
                 proj: dict,        # ambient generator -> harmonic Element
                 homotopy: dict):   # ambient generator -> ambient Element, degree -1
        self.ambient, self.harmonic = ambient, harmonic
        self.incl, self.proj, self.homotopy = incl, proj, homotopy

    def check(self):
        """Homotopy identities, exact on the ambient basis:

        p o i = id,  i o p - id = mu1 T + T mu1,  T^2 = 0, T i = 0, p T = 0.
        """
        amb = self.ambient
        p = amb.spec.characteristic
        mu1 = {key[0]: el for key, el in amb.tables.get(1, {}).items()}
        for h in self.harmonic.generators:
            img = _apply_linear(self.proj, self.incl[h])
            if img != Element.single(h, 1, p):
                raise ValueError(f"p(i({h})) != {h}")
        for g in amb.cat.generators:
            el = Element.single(g, 1, p)
            ip = _apply_linear(self.incl, _apply_linear(self.proj, el))
            t_el = self.homotopy.get(g, ZERO)
            d_t = _apply_linear(mu1, t_el)
            t_d = _apply_linear(self.homotopy, _apply_linear(mu1, el))
            if ip - el != d_t + t_d:
                raise ValueError(f"i p - id != mu1 T + T mu1 on {g}")
            if not _apply_linear(self.homotopy, t_el).is_zero():
                raise ValueError(f"T^2 != 0 on {g}")
        for h, img in self.incl.items():
            if not _apply_linear(self.homotopy, img).is_zero():
                raise ValueError(f"T i != 0 on {h}")
        for g in amb.cat.generators:
            t_el = self.homotopy.get(g, ZERO)
            if not _apply_linear(self.proj, t_el).is_zero():
                raise ValueError(f"p T != 0 on {g}")


def preset_splitting_C(spec: FieldSpec) -> SplittingData:
    """The rank-one splitting of preset_C: harmonic basis e0, e1, f0, f1,
    u -> u01, v -> v0 + v1; acyclic complement spanned by v1, v01 with
    homotopy T(v01) = -v1 and T = 0 elsewhere."""
    ambient = preset_C(spec)
    harmonic = preset_A(spec).cat
    p = spec.characteristic
    incl = {
        "e0": Element.single("e0", 1, p),
        "e1": Element.single("e1", 1, p),
        "f0": Element.single("f0", 1, p),
        "f1": Element.single("f1", 1, p),
        "u": Element.single("u01", 1, p),
        "v": Element({"v0": 1, "v1": 1}, p),
    }
    proj = {
        "e0": Element.single("e0", 1, p),
        "e1": Element.single("e1", 1, p),
        "f0": Element.single("f0", 1, p),
        "f1": Element.single("f1", 1, p),
        "u01": Element.single("u", 1, p),
        "v0": Element.single("v", 1, p),
        # v1 and v01 project to zero
    }
    homotopy = {"v01": Element.single("v1", -1, p)}
    split = SplittingData(ambient, harmonic, incl, proj, homotopy)
    split.check()
    return split


class TransferResult:
    def __init__(self, minimal: AInfStructure,
                 iota: dict,  # arity -> {tuple: ambient Element}; arity 1 is the inclusion
                 ambient_cat: QuiverCategory):
        self.minimal, self.iota, self.ambient_cat = minimal, iota, ambient_cat

    def dump(self) -> str:
        sections = [(f"IOTA{d}", table_rows(self.iota[d], self.minimal.cat, self.ambient_cat))
                    for d in sorted(self.iota) if d > 1 and self.iota[d]]
        return dump(self.minimal, sections)


def transfer(split: SplittingData, order: int) -> TransferResult:
    """Run the recursion through the given arity, exactly.

    iota^d and mu^d at t are sums of mu2(iota^(d-m)(L), iota^m(R)) over
    t = L + R: each composable pair of stored iota keys is summed once,
    into t.  Keys are the composable tuples over all generators at d = 2
    and over the non-identity ones above, in the order of cat.tuples."""
    if order < 2:
        raise ValueError("transfer order must be >= 2")
    if sorted(split.ambient.present_arities()) not in ([1], [1, 2], [2]):
        raise ValueError("ambient structure must be dg (mu1, mu2 only)")
    amb = split.ambient
    spec = amb.spec
    cat = split.harmonic
    incl, proj, homotopy = split.incl, split.proj, split.homotopy

    iota: dict[int, dict] = {1: {}}
    for g in cat.generators:
        iota[1][(g,)] = incl[g]
    mu: dict[int, dict] = {}
    mu2 = amb.tables.get(2, {})

    for d in range(2, order + 1):
        iota[d] = {}
        mu[d] = {}
        acc = {}
        for m in range(1, d):
            for L, left in iota[d - m].items():
                for R, right in iota[m].items():
                    if cat.source(L[-1]) == cat.target(R[0]):
                        accumulate(acc.setdefault(L + R, {}), mu2, tensor_terms((left, right)))
        alphabet = None if d == 2 else cat.nonidentity_generators()
        for names in cat.tuples_among(acc, alphabet):
            total = Element(acc[names], spec.characteristic)
            if total.is_zero():
                continue
            t_img = _apply_linear(homotopy, total)
            if not t_img.is_zero():
                iota[d][names] = t_img
            p_img = _apply_linear(proj, total)
            if not p_img.is_zero():
                mu[d][names] = p_img

    minimal = AInfStructure(spec, cat, order, mu)
    return TransferResult(minimal, iota, amb.cat)


def lemma_check(result: TransferResult, up_to: int):
    """Confirm the closed form of the transferred products:

    for d > 2 the only nonzero tables are
        mu^d(u, e1^(d-3), v, f1) = (-1)^(d+1) f1
        mu^d(u, e1^(d-2), v)     = (-1)^d     f1
    Returns (ok, mismatches)."""
    p = result.minimal.spec.characteristic
    mismatches = []
    for d in range(3, up_to + 1):
        t1 = ("u",) + ("e1",) * (d - 3) + ("v", "f1")
        t2 = ("u",) + ("e1",) * (d - 2) + ("v",)
        expected = {t1: Element.single("f1", (-1) ** (d + 1), p),
                    t2: Element.single("f1", (-1) ** d, p)}
        actual = result.minimal.tables.get(d, {})
        for t in set(expected) | set(actual):
            if expected.get(t, ZERO) != actual.get(t, ZERO):
                mismatches.append((d, t, actual.get(t, ZERO), expected.get(t, ZERO)))
    return not mismatches, mismatches
