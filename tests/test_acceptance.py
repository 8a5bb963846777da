"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with -s to see them).  Tolerances are exact; the
stated wall-clock budgets are asserted."""

import random
import time

from ainfbench.cli import REFERENCE_MU4
from ainfbench.gauge import (extract_invariants, gauge_apply,
                             m6_certificate, mc_extend, random_gauge, rescale)
from ainfbench.hochschild import (coboundary, gerstenhaber, hh_bar,
                                  mu_cochain)
from ainfbench.perturbation import lemma_check
from ainfbench.polygons import (preset_scene, quad_witnesses,
                                triangle_criterion, triangle_witnesses)
from ainfbench.quiver import Element, preset_A
from ainfbench.scalars import FieldSpec
from ainfbench.skoldberg import skoldberg_dims
from ainfbench.useries import jacobi_check, partition_series
from oracles import partition_count


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if not exc[0]:
            assert self.elapsed < self.budget, (
                f"over time budget: {self.elapsed:.1f}s >= {self.budget}s"
            )
        return False


def report(n, label, timer=None):
    took = f" [{timer.elapsed:.1f}s]" if timer else ""
    print(f"ACCEPTANCE {n:>2} PASS: {label}{took}")


BASE_TABLE = {(0, 1): 2, (0, 0): 1, (1, 0): 1, (6, -4): 1, (7, -4): 1,
              (8, -6): 1}


def test_criterion_01_hh_table():
    with Timer(60) as t:
        for char, extra in (
            (0, {}),
            (2, {(2, -1): 1, (3, -1): 1, (4, -3): 1, (5, -3): 1}),
            (3, {(3, -2): 1, (4, -2): 1}),
        ):
            want = dict(BASE_TABLE)
            want.update(extra)
            assert hh_bar(FieldSpec(char), 8) == want, f"char {char}"
    report(1, "bigraded HH dimensions match the table over Q, F2, F3", t)


def test_criterion_02_periodicity():
    with Timer(30) as t:
        dims = skoldberg_dims(FieldSpec(0), 24)
        for r in range(1, 17):
            for s in range(-20, 2):
                assert dims.get((r + 8, s - 6), 0) == dims.get((r, s), 0)
        dims2 = skoldberg_dims(FieldSpec(2), 20)
        for r in range(1, 17):
            for s in range(-18, 2):
                assert dims2.get((r + 4, s - 3), 0) == dims2.get((r, s), 0)
    report(2, "8-periodicity over Q and 4-step periodicity over F2", t)


def test_criterion_03_cross_validation():
    with Timer(60) as t:
        for char in (0, 2, 3, 5):
            spec = FieldSpec(char)
            assert hh_bar(spec, 6) == skoldberg_dims(spec, 6), f"char {char}"
    report(3, "bar and small-resolution dimensions agree for r <= 6 "
              "over Q, F2, F3, F5", t)


def test_criterion_04_minimal_model(model12):
    with Timer(60) as t:
        ok, mismatches = lemma_check(model12, 12)
        assert ok, mismatches
        assert model12.minimal.ainf_check(10) == []
    report(4, "transfer reproduces the closed form through arity 12 and "
              "satisfies the relations through 10", t)


def test_criterion_05_gauge_G(Q, gh_models):
    with Timer(60) as t:
        _, b1, _ = gh_models
        assert 3 not in b1.tables
        want = {tup: Element.single(g, Q.scalar(*c))
                for tup, (g, c) in REFERENCE_MU4.items()}
        assert b1.tables[4] == want
    report(5, "gauge G kills mu^3 and lands on the 13-entry mu^4 table", t)


def test_criterion_06_gauge_H_and_certificate(Q, gh_models):
    with Timer(120) as t:
        _, _, b2 = gh_models
        assert 3 not in b2.tables and 4 not in b2.tables
        mu6 = mu_cochain(b2, 6)
        assert coboundary(mu6, b2).is_zero()
        scaled = mu6.scale(Q.scalar(144))
        for tup, (g, num) in (
            (("u", "v", "f1", "u", "e1", "v"), ("f0", -9)),
            (("f1", "u", "v", "u", "e1", "v"), ("f0", 5)),
            (("f1", "u", "e1", "v", "u", "v"), ("f0", 9)),
            (("f1", "f1", "u", "e1", "v", "f1"), ("f1", 11)),
        ):
            assert scaled.value(tup) == Element.single(g, Q.scalar(num)), tup
        cert = m6_certificate(mu6, b2)
        assert cert.nonzero
        assert cert.rank_system < cert.rank_augmented
    report(6, "gauge H yields the quoted 144*mu^6 values and the "
              "infeasibility certifies m6 != 0", t)


def test_criterion_07_jacobi():
    with Timer(5) as t:
        assert jacobi_check(50)
        u = partition_series(30)
        for n in range(31):
            assert u[n] == partition_count(n)
    report(7, "u^3 v = 1 mod U^51 and partition counts match brute force "
              "for n <= 30", t)


def test_criterion_08_polygon_products():
    with Timer(60) as t:
        scene = preset_scene()
        m2, m3, check = triangle_criterion(scene, 4)
        assert m2 == 0
        assert check.is_one()
        tris = triangle_witnesses(scene, 4)
        per_band = {}
        for w in tris:
            p = max(w.wraps)
            per_band[p] = per_band.get(p, 0) + 1
            assert w.z_count == p * (p + 1) // 2
        assert per_band == {p: 2 for p in range(5)}
        quads = quad_witnesses(scene, 4)
        quad_band = {}
        for w in quads:
            p = max(w.wraps)
            key = (p, w.arcs[1][4])
            quad_band[key] = quad_band.get(key, 0) + 1
            assert w.z_count == p * (p + 1) // 2
        for p in range(5):
            assert quad_band.get((p, True), 0) == p + 1
            assert quad_band.get((p, False), 0) == p
    report(8, "mu2 count vanishes, -u^3 mu3 = 1 through U^10, and band "
              "counts and z-multiplicities are as stated", t)


def test_criterion_09_classification(Q, model12):
    with Timer(300) as t:
        m6, m8 = Q.scalar(1), Q.scalar(1)
        built = mc_extend(Q, m6, m8, order=12)
        assert built.ainf_check(12) == []
        inv = extract_invariants(built)
        assert (inv.m6, inv.m8) == (m6, m8)

        base = extract_invariants(model12.minimal)
        rng = random.Random(2026)
        for trial in range(20):
            g = random_gauge(Q, model12.minimal.cat, rng)
            moved = gauge_apply(g, model12.minimal, 8)
            got = extract_invariants(moved)
            assert (got.m6, got.m8) == (base.m6, base.m8), trial

        for tval in (2, 3, 5):
            tsc = Q.scalar(tval)
            got = extract_invariants(rescale(model12.minimal, tsc))
            assert got.m6 == base.m6 * Q.scalar(tval**4)
            assert got.m8 == base.m8 * Q.scalar(tval**6)
    report(9, "mc realizes prescribed classes through order 12, the "
              "invariants are gauge-stable over 20 seeded orbits, and "
              "rescaling acts with weights (4, 6)", t)


def test_criterion_10_structural_properties(Q, model12):
    from test_hochschild import random_cochain

    with Timer(300) as t:
        A = preset_A(Q)
        rng = random.Random(424242)
        failures = 0
        # delta^2 = 0 across bidegrees
        for _ in range(12):
            r, s = rng.randint(1, 4), rng.randint(-3, 1)
            phi = random_cochain(A, r, s, rng)
            if not coboundary(coboundary(phi, A), A).is_zero():
                failures += 1
        # graded Jacobi on random triples
        for _ in range(6):
            degs = [(rng.randint(1, 3), rng.randint(-2, 0)) for _ in range(3)]
            a, b, c = (random_cochain(A, r, s, rng, density=0.4)
                       for r, s in degs)
            na, nb = (degs[0][0] + degs[0][1] - 1) % 2, (degs[1][0] + degs[1][1] - 1) % 2
            lhs = gerstenhaber(a, gerstenhaber(b, c, A), A)
            t1 = gerstenhaber(gerstenhaber(a, b, A), c, A)
            t2 = gerstenhaber(b, gerstenhaber(a, c, A), A)
            if na and nb:
                t2 = -t2
            if lhs != t1 + t2:
                failures += 1
        # gauge action preserves the relations
        for seed in range(3):
            g = random_gauge(Q, model12.minimal.cat, random.Random(seed))
            if gauge_apply(g, model12.minimal, 8).ainf_check(7) != []:
                failures += 1
        # degree bookkeeping is enforced on every stored table
        from ainfbench.quiver import AInfStructure

        try:
            bad = {2: dict(A.tables[2])}
            bad[2][("u", "v")] = Element.single("f0", 1)
            AInfStructure(Q, A.cat, 12, bad)
            failures += 1
        except ValueError:
            pass
        assert failures == 0
    report(10, "delta^2 = 0, graded Jacobi, gauge preservation and degree "
               "bookkeeping hold on seeded random data", t)
