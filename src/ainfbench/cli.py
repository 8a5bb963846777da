"""Command-line front end: reproducible experiments with golden gating.

Exit codes: 0 success / golden match, 1 mathematical mismatch or negative
(such as an order that cannot be gauged away), 2 usage or input error.
All output is deterministic byte-for-byte."""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

from .hochschild import hh_bar, mu_cochain
from .perturbation import lemma_check, preset_splitting_C, transfer
from .polygons import (criterion_series, preset_scene, quad_witnesses,
                       scene_load, triangle_witnesses, witness_svg)
from .quiver import Element, dump, format_element, load
from .scalars import FieldSpec, parse_number, parse_scalar
from .skoldberg import skoldberg_dims
from .useries import jacobi_check, partition_series, theta_v
from . import gauge as gauge_mod


class Usage(Exception):
    pass


def _field(text: str) -> FieldSpec:
    try:
        return FieldSpec.parse(text)
    except ValueError as exc:
        raise Usage(str(exc)) from None


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# hh-table
# ---------------------------------------------------------------------------

BASE_HH = {(0, 1): 2, (0, 0): 1, (1, 0): 1, (6, -4): 1, (7, -4): 1, (8, -6): 1}
CHAR2_EXTRA = {(2, -1): 1, (3, -1): 1, (4, -3): 1, (5, -3): 1}
CHAR3_EXTRA = {(3, -2): 1, (4, -2): 1}


def expected_hh(char: int, r_max: int):
    """Reference bigraded dimensions: the r <= 8 table continued by the
    periodicity step (8, -6), or (4, -3) in characteristic 2."""
    base = dict(BASE_HH)
    if char == 2:
        base.update(CHAR2_EXTRA)
    if char == 3:
        base.update(CHAR3_EXTRA)
    step = (4, -3) if char == 2 else (8, -6)
    out = {}
    for (r, s), dim in base.items():
        rr, ss = r, s
        while rr <= r_max:
            out[(rr, ss)] = dim
            if rr == 0:
                break
            rr, ss = rr + step[0], ss + step[1]
    return out


def format_hh_table(dims, r_max: int):
    rows = []
    s_values = sorted({s for (_, s) in dims}, reverse=True) or [0]
    s_lo = min(s_values)
    header = " s\\r |" + "".join(f"{r:>5}" for r in range(r_max + 1))
    rows.append(header)
    rows.append("-" * len(header))
    for s in range(max(s_values), s_lo - 1, -1):
        cells = []
        for r in range(r_max + 1):
            d = dims.get((r, s), 0)
            cells.append("." if d == 0 else ("K" if d == 1 else f"K^{d}"))
        rows.append(f"{s:>4} |" + "".join(f"{c:>5}" for c in cells))
    return rows


def cmd_hh_table(args) -> int:
    spec = _field(args.field)
    if args.method == "bar":
        dims = hh_bar(spec, args.rmax)
    else:
        dims = skoldberg_dims(spec, args.rmax)
    want = expected_hh(spec.characteristic, args.rmax)
    lines = [f"# HH table over {spec}, 0 <= r <= {args.rmax}, method={args.method}"]
    if args.format == "table":
        lines += format_hh_table(dims, args.rmax)
    for (r, s) in sorted(dims):
        lines.append(f"({r}, {s}, {dims[(r, s)]})")
    match = dims == want
    lines.append(f"MATCH {'ok' if match else 'FAIL'}")
    if not match:
        for key in sorted(set(dims) | set(want)):
            if dims.get(key, 0) != want.get(key, 0):
                lines.append(f"DIFF {key}: got {dims.get(key, 0)} "
                             f"want {want.get(key, 0)}")
    _emit(lines, args.out)
    return 0 if match else 1


# ---------------------------------------------------------------------------
# m6
# ---------------------------------------------------------------------------

REFERENCE_MU4 = {
    ("e1", "v", "f1", "u"): ("e1", (1, 4)),
    ("e1", "v", "u", "e1"): ("e1", (1, 4)),
    ("v", "f1", "f1", "u"): ("e1", (-1, 4)),
    ("v", "f1", "u", "e1"): ("e1", (-1, 4)),
    ("f1", "u", "e1", "v"): ("f1", (1, 4)),
    ("f1", "u", "v", "f1"): ("f1", (-1, 4)),
    ("u", "e1", "v", "f1"): ("f1", (-1, 4)),
    ("u", "v", "f1", "f1"): ("f1", (-1, 2)),
    ("u", "e1", "e1", "v"): ("f1", (3, 4)),
    ("v", "u", "e1", "v"): ("v", (-1, 2)),
    ("v", "u", "v", "f1"): ("v", (1, 2)),
    ("u", "e1", "v", "u"): ("u", (1, 2)),
    ("u", "v", "f1", "u"): ("u", (-1, 2)),
}

REFERENCE_MU6 = {
    ("u", "v", "f1", "u", "e1", "v"): ("f0", -9),
    ("f1", "u", "v", "u", "e1", "v"): ("f0", 5),
    ("f1", "u", "e1", "v", "u", "v"): ("f0", 9),
    ("f1", "f1", "u", "e1", "v", "f1"): ("f1", 11),
}


def gh_pipeline(spec: FieldSpec, order: int = 9):
    """transfer -> gauge G -> gauge H; returns (B, G_*B, H_*G_*B)."""
    res = transfer(preset_splitting_C(spec), order)
    b = res.minimal
    g = gauge_mod.preset_gauge_G(spec, b.cat)
    b1 = gauge_mod.gauge_apply(g, b, order)
    h = gauge_mod.preset_gauge_H(spec, b.cat)
    b2 = gauge_mod.gauge_apply(h, b1, order)
    return b, b1, b2


def cmd_m6(args) -> int:
    spec = _field(args.field)
    if spec.characteristic in (2, 3):
        raise Usage(f"6 is not invertible over {spec}")
    golden = spec.characteristic == 0
    lines = [f"# order-6 invariant over {spec}"
             + ("" if golden else " (exploratory: golden gate applies over Q)")]
    ok = True
    b, b1, b2 = gh_pipeline(spec)

    mu3_zero = 3 not in b1.tables
    lines.append(f"gauge G kills mu3: {'ok' if mu3_zero else 'FAIL'}")
    ok &= mu3_zero

    got4 = b1.tables.get(4, {})
    want4 = {}
    for t, (g, frac) in REFERENCE_MU4.items():
        want4[t] = Element.single(g, spec.scalar(*frac), spec.characteristic)
    mu4_ok = got4 == want4
    lines.append(f"mu4 after G matches the 13-entry table: "
                 f"{'ok' if mu4_ok else 'FAIL'}")
    ok &= mu4_ok

    final_ok = 3 not in b2.tables and 4 not in b2.tables
    lines.append(f"gauge H kills mu4 (and keeps mu3 = 0): "
                 f"{'ok' if final_ok else 'FAIL'}")
    ok &= final_ok

    mu6 = mu_cochain(b2, 6)
    cert = gauge_mod.m6_certificate(mu6, b2)  # ValueError unless delta(mu6) = 0
    lines.append("delta(mu6) = 0: ok")
    scaled = mu6.scale(spec.scalar(144))
    for t, (g, num) in REFERENCE_MU6.items():
        got = scaled.value(t)
        want = Element.single(g, spec.scalar(num), spec.characteristic)
        good = got == want
        lines.append(
            f"144*mu6({','.join(t)}) = {format_element(got, b2.cat)}"
            f" [{'ok' if good else 'FAIL'}]"
        )
        ok &= good
    lines.append(cert.summary())
    ok &= cert.nonzero
    lines.append(f"RESULT {'ok' if ok else 'FAIL'}")
    _emit(lines, args.out)
    if not golden:
        return 0
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# minimal-model / gauge-fix / mc / check
# ---------------------------------------------------------------------------

def cmd_minimal_model(args) -> int:
    spec = _field(args.field)
    res = transfer(preset_splitting_C(spec), args.order)
    ok, _ = lemma_check(res, args.order)
    check_order = min(args.order, args.check_order)
    violations = res.minimal.ainf_check(check_order)
    text = res.dump()
    report = [
        f"closed form holds through order {args.order}: {'ok' if ok else 'FAIL'}",
        f"relations hold through order {check_order}: "
        f"{'ok' if not violations else 'FAIL'}",
    ]
    if args.out:
        Path(args.out).write_text(text)
        _emit(report, None)
    else:
        _emit([text.rstrip("\n")] + report, None)
    return 0 if ok and not violations else 1


def cmd_gauge_fix(args) -> int:
    spec = _field(args.field)
    if spec.characteristic in (2, 3):
        raise Usage(f"gauge normalization needs 6 invertible, not {spec}")
    try:
        orders = tuple(parse_number(int, "order", x) for x in args.orders.split(","))
        gauge_mod.check_orders(orders, args.order)
    except ValueError as exc:
        raise Usage(f"--orders: {exc}") from None
    res = transfer(preset_splitting_C(spec), args.order)
    steps, fixed = gauge_mod.kill_orders(res.minimal, orders)
    # (m6, m8) are gauge invariants and the references read mu^2 alone, so
    # the fixed structure gives the input's invariants without regauging it
    inv = gauge_mod.extract_invariants(fixed)
    lines = [
        f"# gauge-fix over {spec}, killed orders {','.join(map(str, orders))}",
        f"remaining arities: {fixed.present_arities()}",
        f"m6 = {inv.m6}",
        f"m8 = {inv.m8}",
    ]
    lines += inv.describe()
    ok = all(d not in fixed.tables for d in orders)
    if args.verify_orbit:
        rng = random.Random(args.seed)
        stable = True
        for _ in range(args.verify_orbit):
            g = gauge_mod.random_gauge(spec, res.minimal.cat, rng)
            moved = gauge_mod.gauge_apply(g, res.minimal, res.minimal.truncation)
            inv2 = gauge_mod.extract_invariants(moved)
            if (inv2.m6, inv2.m8) != (inv.m6, inv.m8):
                stable = False
        lines.append(
            f"invariants stable under {args.verify_orbit} seeded gauges "
            f"(seed {args.seed}): {'ok' if stable else 'FAIL'}"
        )
        ok &= stable
    lines.append(f"RESULT {'ok' if ok else 'FAIL'}")
    if args.out:
        Path(args.out).write_text(dump(fixed))
    _emit(lines, None)
    return 0 if ok else 1


def cmd_mc(args) -> int:
    spec = _field(args.field)
    if spec.characteristic in (2, 3):
        raise Usage(f"classification needs 6 invertible, not {spec}")
    try:
        m6 = parse_scalar(args.m6, spec)
        m8 = parse_scalar(args.m8, spec)
    except ZeroDivisionError as exc:  # 1/0, or 1/5 over F5
        raise Usage(str(exc)) from None
    try:
        struct = gauge_mod.mc_extend(spec, m6, m8, args.order)
    except ValueError as exc:  # an invariant above --order
        raise Usage(str(exc)) from None
    check_order = min(args.order, args.check_order)
    violations = struct.ainf_check(check_order)
    text = dump(struct)
    if args.out:
        Path(args.out).write_text(text)
        lines = []
    else:
        lines = [text.rstrip("\n")]
    lines.append(f"relations hold through order {check_order}: "
                 f"{'ok' if not violations else 'FAIL'}")
    _emit(lines, None)
    return 0 if not violations else 1


def cmd_check(args) -> int:
    struct = load(Path(args.file).read_text())
    order = min(args.order or struct.truncation, struct.truncation)
    violations = struct.ainf_check(order)
    lines = [f"# relation check of {args.file} through order {order}"]
    for d, t in violations[:50]:
        lines.append(f"VIOLATION arity {d} at ({', '.join(t)})")
    lines.append(f"RESULT {'ok' if not violations else 'FAIL'}")
    _emit(lines, args.out)
    return 0 if not violations else 1


# ---------------------------------------------------------------------------
# jacobi / triangle
# ---------------------------------------------------------------------------

def cmd_jacobi(args) -> int:
    ok = jacobi_check(args.order)
    u = partition_series(min(args.order, 10))
    lines = [
        f"# triple-product identity through U^{args.order}",
        f"partition series starts: {u}",
        f"theta series starts: {theta_v(min(args.order, 10))}",
        f"u^3 * v == 1: {'PASS' if ok else 'FAIL'}",
    ]
    _emit(lines, args.out)
    return 0 if ok else 1


def cmd_triangle(args) -> int:
    scene = scene_load(Path(args.scene).read_text()) if args.scene else preset_scene()
    try:
        tris = triangle_witnesses(scene, args.wrap)
        quads = quad_witnesses(scene, args.wrap)
    except AssertionError as exc:  # a degenerate scene file is bad input, not a negative
        if not args.scene:
            raise
        raise ValueError(f"scene {args.scene}: {exc}") from None
    m2, m3, check = criterion_series(tris, quads, args.wrap)
    per_band_t = Counter(max(w.wraps) for w in tris)
    per_band_q = Counter(max(w.wraps) for w in quads)
    lines = [
        f"# surgery-triangle products, wrap bound {args.wrap}",
        f"pairings (g0.g1, g1.g2, g2.g0) = {scene.homology_pairings()}",
        f"z in hexagonal face: {scene.z_in_hexagon()}",
        f"triangles per band: {sorted(per_band_t.items())}",
        f"quadrilaterals per band: {sorted(per_band_q.items())}",
        f"mu2 series = {m2}",
        f"mu3 series = {m3}",
        f"-u^3 * mu3 = {check}",
    ]
    ok = (
        m2 == 0
        and check.is_one()
        and all(n == 2 for n in per_band_t.values())
        and all(per_band_q.get(p, 0) == 2 * p + 1 for p in range(1, args.wrap + 1))
    )
    if args.svg:
        outdir = Path(args.svg)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, w in enumerate(tris):
            (outdir / f"triangle_{i:02d}.svg").write_text(witness_svg(scene, w))
        for i, w in enumerate(quads):
            (outdir / f"quad_{i:02d}.svg").write_text(witness_svg(scene, w))
        lines.append(f"wrote {len(tris) + len(quads)} SVG figures to {outdir}")
    lines.append(f"RESULT {'ok' if ok else 'FAIL'}")
    _emit(lines, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ainfbench",
        description="exact workbench for A-infinity structures on the "
                    "6-dimensional two-object quiver category",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hh-table", help="bigraded Hochschild cohomology table")
    p.add_argument("--field", default="Q")
    p.add_argument("--rmax", type=int, default=8)
    p.add_argument("--method", choices=("bar", "skoldberg"), default="bar")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hh_table)

    p = sub.add_parser("m6", help="certify the order-6 invariant is nonzero")
    p.add_argument("--field", default="Q")
    p.add_argument("--out")
    p.set_defaults(func=cmd_m6)

    p = sub.add_parser("minimal-model", help="transfer the dg model and dump it")
    p.add_argument("--field", default="Q")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--check-order", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_minimal_model)

    p = sub.add_parser("gauge-fix", help="kill gaugeable orders, report invariants")
    p.add_argument("--field", default="Q")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--orders", default="3,4,5")
    p.add_argument("--verify-orbit", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gauge_fix)

    p = sub.add_parser("mc", help="realize prescribed (m6, m8) order by order")
    p.add_argument("--field", default="Q")
    p.add_argument("--m6", default="0")
    p.add_argument("--m8", default="0")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--check-order", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("jacobi", help="triple-product identity u^3 v = 1")
    p.add_argument("--order", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("triangle", help="polygon products behind the exact triangle")
    p.add_argument("--wrap", type=int, default=4)
    p.add_argument("--scene", help="scene file (format in README) instead of the preset")
    p.add_argument("--svg", help="directory for witness figures")
    p.add_argument("--out")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("check", help="A-infinity relation checker on a file")
    p.add_argument("file")
    p.add_argument("--order", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    return ap


# least value of each numeric option; below it a command checks nothing
LEAST = {"rmax": 0, "wrap": 1, "order": 1, "check_order": 1, "verify_orbit": 0}
# where a command needs more: the transfer and mc start from mu^2, and
# gauge-fix reads the invariants at arity 8
LEAST_BY_COMMAND = {"minimal-model": {"order": 2}, "mc": {"order": 2},
                    "gauge-fix": {"order": 8}}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for name, least in {**LEAST, **LEAST_BY_COMMAND.get(args.command, {})}.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise Usage(f"--{name.replace('_', '-')} must be at least "
                            f"{least}, got {value}")
        return args.func(args)
    except Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except gauge_mod.ObstructionError as exc:
        print(f"obstruction: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
