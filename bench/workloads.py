"""The benchmark's four workloads: seeded inputs, the timed operation,
and the checks of its answers.

Each workload calls only the public API of ``ainfbench``.  The expected
answers are held here as data (``EXPECTED``) and are never imported from
the program or its tests, so one change cannot move both sides.

Operation sizes were scaled from the paper-sized runs so that one
operation takes about 1-5 s on a 2-core x86 VM with Python 3.11;
the layer mix of each workload is kept (see README.md).
"""

from __future__ import annotations

import random
from fractions import Fraction

from ainfbench import gauge, hochschild, perturbation, polygons, skoldberg
from ainfbench.quiver import Element
from ainfbench.scalars import FieldSpec

WORKLOADS = ("hh-dims", "certify", "classify", "triangle")

# size knobs
HH_R_MAX = 7
SKOLDBERG_R_MAX = {0: 24, 2: 20}
CERTIFY_TRANSFER_ORDER = 12
CERTIFY_CHECK_ORDER = 9
CERTIFY_GAUGE_ORDER = 8
CLASSIFY_MC_ORDER = 10
CLASSIFY_ORBITS = 1
TRIANGLE_WRAP = 3

# primes >= 5 that hh-dims draws from; every one gives the Q table
HH_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
             67, 71, 73, 79, 83, 89, 97, 101, 257, 65537, 2147483647)
# small nonzero rationals for the classify draws
SMALL_RATIONALS = tuple(Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3)
                        for d in (1, 2, 3, 4) if Fraction(n, d).denominator == d)
GAUGE_ORDERS = (2, 3, 4)
GAUGE_DENSITY = 0.35

Q = FieldSpec(0)

EXPECTED = {
    # Bigraded HH^{r+s}(A,A)^s cells for r <= 8 (PAPER.md), continued by
    # the periodicity step; F_p for p >= 5 uses the characteristic-0 table.
    "hh-dims": {
        "cells": {
            0: {(0, 1): 2, (0, 0): 1, (1, 0): 1, (6, -4): 1, (7, -4): 1, (8, -6): 1},
            2: {(2, -1): 1, (3, -1): 1, (4, -3): 1, (5, -3): 1},
            3: {(3, -2): 1, (4, -2): 1},
        },
        "period": {0: (8, -6), 2: (4, -3)},
    },
    # mu4 after gauge G (13 entries) and 144*mu6 after gauge H on the
    # paper's four witness tuples; values as "num/den" per generator.
    "certify": {
        "mu4": {
            ("e1", "v", "f1", "u"): {"e1": "1/4"},
            ("e1", "v", "u", "e1"): {"e1": "1/4"},
            ("v", "f1", "f1", "u"): {"e1": "-1/4"},
            ("v", "f1", "u", "e1"): {"e1": "-1/4"},
            ("f1", "u", "e1", "v"): {"f1": "1/4"},
            ("f1", "u", "v", "f1"): {"f1": "-1/4"},
            ("u", "e1", "v", "f1"): {"f1": "-1/4"},
            ("u", "v", "f1", "f1"): {"f1": "-1/2"},
            ("u", "e1", "e1", "v"): {"f1": "3/4"},
            ("v", "u", "e1", "v"): {"v": "-1/2"},
            ("v", "u", "v", "f1"): {"v": "1/2"},
            ("u", "e1", "v", "u"): {"u": "1/2"},
            ("u", "v", "f1", "u"): {"u": "-1/2"},
        },
        "mu6x144": {
            ("u", "v", "f1", "u", "e1", "v"): {"f0": "-9"},
            ("f1", "u", "v", "u", "e1", "v"): {"f0": "5"},
            ("f1", "u", "e1", "v", "u", "v"): {"f0": "9"},
            ("f1", "f1", "u", "e1", "v", "f1"): {"f1": "11"},
        },
    },
    # (m6, m8) of the transferred model, read at every point of its gauge
    # orbit
    "classify": {"model_invariants": ("-1/48", "1/864")},
    # two triangles per wrap band; band p holds 2p+1 quadrilaterals
    "triangle": {"triangles_per_band": 2, "quads_per_band": lambda p: 2 * p + 1},
}


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _element(el) -> dict:
    """Element as {generator: "num/den"}."""
    return {g: str(c) for g, c in el.terms.items()}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _draw_gauge(spec, cat, rng):
    """Sparse gauge with small rational entries: a fixed share of the
    admissible slots (tuple, output generator) of g^2, g^3 and g^4, so
    every draw does about the same amount of work."""
    components = {}
    gens = cat.nonidentity_generators()
    for k in GAUGE_ORDERS:
        slots = []
        for t in cat.tuples(k, gens):
            want = sum(cat.deg(n) for n in t) + 1 - k
            for g in cat.gens_from(cat.source(t[-1])):
                gen = cat.generators[g]
                if gen.target == cat.target(t[0]) and gen.degree == want:
                    slots.append((t, g))
        table = {}
        for t, g in rng.sample(slots, round(GAUGE_DENSITY * len(slots))):
            q = rng.choice(SMALL_RATIONALS)
            table.setdefault(t, {})[g] = spec.scalar(q.numerator, q.denominator)
        components[k] = {t: Element(terms) for t, terms in table.items()}
    return gauge.GaugeTransformation(spec, cat, components)


def make_inputs(workload: str, seed: int, index: int) -> dict:
    """Inputs of operation ``index`` of a run with ``seed``.  hh-dims
    draws its prime and classify its (m6, m8) and gauges; certify and
    triangle use the paper's fixed inputs."""
    rng = _rng(workload, seed, index)
    if workload == "hh-dims":
        p = rng.choice(HH_PRIMES)
        return {"fields": [Q, FieldSpec(2), FieldSpec(3), FieldSpec(p)]}
    if workload == "certify":
        split = perturbation.preset_splitting_C(Q)
        cat = split.harmonic
        return {"split": split, "G": gauge.preset_gauge_G(Q, cat),
                "H": gauge.preset_gauge_H(Q, cat)}
    if workload == "classify":
        split = perturbation.preset_splitting_C(Q)
        m6, m8 = rng.choice(SMALL_RATIONALS), rng.choice(SMALL_RATIONALS)
        return {
            "split": split,
            "m6": m6, "m8": m8,
            "gauges": [_draw_gauge(Q, split.harmonic, rng) for _ in range(CLASSIFY_ORBITS)],
        }
    if workload == "triangle":
        return {"scene": polygons.preset_scene()}
    raise ValueError(f"unknown workload {workload!r}")


def describe_inputs(workload: str, inputs: dict) -> dict:
    """The drawn part of the inputs, for the record."""
    if workload == "hh-dims":
        return {"p": inputs["fields"][-1].characteristic}
    if workload == "classify":
        return {"m6": _fmt(inputs["m6"]), "m8": _fmt(inputs["m8"]),
                "gauge_entries": [sum(len(t) for t in g.components.values())
                                  for g in inputs["gauges"]]}
    return {}


# ---------------------------------------------------------------------------
# operations: each returns its answers as plain data; turning results
# into that data is a small part of the timed work.  ``tick()`` marks the
# end of a phase: the worker times a reference loop there, outside the
# operation's time, to follow the machine's speed within long operations.
# ---------------------------------------------------------------------------

def _op_hh_dims(inp, tick):
    bar = {}
    for spec in inp["fields"]:
        bar[str(spec)] = hochschild.hh_bar(spec, HH_R_MAX)
        tick()
    sk = {p: skoldberg.skoldberg_dims(FieldSpec(p), r) for p, r in SKOLDBERG_R_MAX.items()}
    answers = {f"bar {k}": sorted(v.items()) for k, v in bar.items()}
    for p, dims in sk.items():
        answers[f"skoldberg {FieldSpec(p)}"] = sorted(dims.items())
    return answers


def _op_certify(inp, tick):
    res = perturbation.transfer(inp["split"], CERTIFY_TRANSFER_ORDER)
    lemma_ok, _ = perturbation.lemma_check(res, CERTIFY_TRANSFER_ORDER)
    violations = res.minimal.ainf_check(CERTIFY_CHECK_ORDER)
    tick()
    b1 = gauge.gauge_apply(inp["G"], res.minimal, CERTIFY_GAUGE_ORDER)
    b2 = gauge.gauge_apply(inp["H"], b1, CERTIFY_GAUGE_ORDER)
    mu6 = hochschild.mu_cochain(b2, 6)
    cert = gauge.m6_certificate(mu6, b2)
    scaled = mu6.scale(Q.scalar(144))
    return {
        "lemma_ok": lemma_ok,
        "violations": len(violations),
        "arities_after_G": b1.present_arities(),
        "arities_after_H": b2.present_arities(),
        "mu4": {t: _element(el) for t, el in b1.tables.get(4, {}).items()},
        "mu6x144": {t: _element(scaled.value(t)) for t in EXPECTED["certify"]["mu6x144"]},
        "nonzero": cert.nonzero,
        "ranks": (cert.rank_system, cert.rank_augmented),
    }


def _op_classify(inp, tick):
    m6 = Q.scalar(inp["m6"].numerator, inp["m6"].denominator)
    m8 = Q.scalar(inp["m8"].numerator, inp["m8"].denominator)
    built = gauge.mc_extend(Q, m6, m8, CLASSIFY_MC_ORDER)
    tick()
    round_trip = gauge.extract_invariants(built).pair()
    tick()
    model = perturbation.transfer(inp["split"], 8).minimal
    orbit = []
    for g in inp["gauges"]:
        moved = gauge.gauge_apply(g, model, 8)
        tick()
        orbit.append(gauge.extract_invariants(moved).pair())
    return {
        "round_trip": tuple(map(str, round_trip)),
        "orbit": [tuple(map(str, pair)) for pair in orbit],
    }


def _op_triangle(inp, tick):
    scene = inp["scene"]
    m2, m3, check = polygons.triangle_criterion(scene, TRIANGLE_WRAP)
    tick()
    tris = polygons.triangle_witnesses(scene, TRIANGLE_WRAP)
    quads = polygons.quad_witnesses(scene, TRIANGLE_WRAP)
    per_band = {"triangles": {}, "quads": {}}
    for kind, ws in (("triangles", tris), ("quads", quads)):
        for w in ws:
            band = max(w.wraps)
            per_band[kind][band] = per_band[kind].get(band, 0) + 1
    return {
        "mu2": [m2[n] for n in range(m2.order + 1)],
        "minus_u3_mu3": [check[n] for n in range(check.order + 1)],
        "triangles_per_band": sorted(per_band["triangles"].items()),
        "quads_per_band": sorted(per_band["quads"].items()),
    }


OPERATIONS = {
    "hh-dims": _op_hh_dims,
    "certify": _op_certify,
    "classify": _op_classify,
    "triangle": _op_triangle,
}


def run_operation(workload: str, inputs: dict, tick=lambda: None) -> dict:
    return OPERATIONS[workload](inputs, tick)


# ---------------------------------------------------------------------------
# checks: each returns a list of (check name, passed)
# ---------------------------------------------------------------------------

def expected_hh(exp, char: int, r_max: int) -> dict:
    """HH cells for r <= r_max in characteristic ``char`` (0 for Q)."""
    base = dict(exp["cells"][0])
    if char in (2, 3):
        base.update(exp["cells"][char])
    step = exp["period"].get(char, exp["period"][0])
    out = {}
    for (r, s), dim in base.items():
        while r <= r_max:
            out[(r, s)] = dim
            if r == 0:
                break
            r, s = r + step[0], s + step[1]
    return out


def _check_hh_dims(inputs, ans, exp):
    out = []
    for spec in inputs["fields"]:
        char = spec.characteristic
        table_char = char if char in (2, 3) else 0
        want = expected_hh(exp, table_char, HH_R_MAX)
        out.append((f"hh_bar {spec}", dict(ans[f"bar {spec}"]) == want))
    for char, r_max in SKOLDBERG_R_MAX.items():
        want = expected_hh(exp, char, r_max)
        out.append((f"skoldberg {FieldSpec(char)}",
                    dict(ans[f"skoldberg {FieldSpec(char)}"]) == want))
    return out


def _check_certify(inputs, ans, exp):
    rank_a, rank_ab = ans["ranks"]
    out = [
        ("closed form of the transferred products", ans["lemma_ok"] is True),
        ("relations hold", ans["violations"] == 0),
        ("gauge G kills mu3", 3 not in ans["arities_after_G"]),
        ("mu4 after G is the 13-entry table", ans["mu4"] == exp["mu4"]),
        ("gauge H kills mu3 and mu4",
         3 not in ans["arities_after_H"] and 4 not in ans["arities_after_H"]),
        ("certificate nonzero with rank_system < rank_augmented",
         ans["nonzero"] is True and rank_a < rank_ab),
    ]
    for t, want in exp["mu6x144"].items():
        out.append((f"144*mu6{t}", ans["mu6x144"].get(t) == want))
    return out


def _check_classify(inputs, ans, exp):
    drawn = (_fmt(inputs["m6"]), _fmt(inputs["m8"]))
    want = tuple(exp["model_invariants"])
    out = [
        ("mc_extend round-trips the drawn (m6, m8)", tuple(ans["round_trip"]) == drawn),
    ]
    for i, pair in enumerate(ans["orbit"]):
        out.append((f"invariants of orbit point {i}", tuple(pair) == want))
    out.append(("one answer per orbit point", len(ans["orbit"]) == len(inputs["gauges"])))
    return out


def _check_triangle(inputs, ans, exp):
    tris = dict(ans["triangles_per_band"])
    quads = dict(ans["quads_per_band"])
    bands = range(1, TRIANGLE_WRAP + 1)
    return [
        ("mu2 = 0", not any(ans["mu2"])),
        ("-u^3 * mu3 = 1", ans["minus_u3_mu3"][0] == 1 and not any(ans["minus_u3_mu3"][1:])),
        ("triangles per band",
         bool(tris) and all(n == exp["triangles_per_band"] for n in tris.values())),
        ("quadrilaterals per band",
         all(quads.get(p, 0) == exp["quads_per_band"](p) for p in bands)),
    ]


CHECKS = {
    "hh-dims": _check_hh_dims,
    "certify": _check_certify,
    "classify": _check_classify,
    "triangle": _check_triangle,
}


def check_answers(workload: str, inputs: dict, answers: dict, expected=None):
    """[(check name, passed)] for one operation's answers."""
    exp = EXPECTED[workload] if expected is None else expected
    return CHECKS[workload](inputs, answers, exp)
