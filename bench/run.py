"""The ainfbench benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (or all four, one after another) closed loop: one
caller, one operation at a time, each operation in a fresh single-threaded
interpreter started by this script.  Operations start until --seconds
have passed.  Every answer is checked against the expected values held in
bench/workloads.py.

--trace 0 reports the end-to-end metrics: wall_s (median operation time
after set-up), setup_s (median time from process start to inputs built),
peak_rss_mb (median peak resident set of an operation's process) and
fail_frac (failed checks over checks made; in the result line it is
``failed``/``attempted``).  --trace 1 alternates plain and traced runs of
the same inputs and reports the per-layer metrics of the traced ones plus
trace.overhead_frac.

Every time in the metrics is scaled to reference machine speed: each
worker times a fixed reference loop before, between and after the phases
of its operation, and a phase taking t becomes t * REFERENCE_LOOP_S /
(mean loop time around it).  On a
shared VM the speed of the machine drifts by 30% within a minute; the
loop sees the same drift as the program (correlation 0.88 over 240
operations), so the scaled times spread by 3-4% where the times as
measured spread by 19-28% (30 s windows).  The times as measured are
printed beside the scaled ones.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import REFERENCE_LOOP_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("hh-dims", "certify", "classify", "triangle")
RUN_SECONDS = 30
# A run must end within 180 s: no operation may start or continue past this.
HARD_LIMIT_S = 160.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _layer_units():
    out = []
    for name in ("linalg.rref",):
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    out += [(f"linalg.{f}.s", "s") for f in ("rank", "solve", "nullspace")]
    out += [(f"linalg.{k}", "count") for k in ("nnz_in", "max_cols", "max_rows", "pivots")]
    out += [("linalg.repeat_ratio", "ratio"),
            ("hochschild.delta_matrix.calls", "count"),
            ("hochschild.delta_matrix.s", "s"),
            ("hochschild.delta_matrix.repeat_ratio", "ratio")]
    out += [(f"hochschild.{f}.s", "s") for f in (
        "coboundary", "gerst_compose", "is_coboundary", "reference_cocycle",
        "class_coordinate", "hh_bar")]
    out += [("skoldberg.skoldberg_dims.s", "s"),
            ("quiver.ainf_check.s", "s"),
            ("quiver.relation_defect.calls", "count"),
            ("quiver.support", "count"),
            ("quiver.visited_per_entry", "tuples/entry"),
            ("quiver.tuples.yielded", "count"),
            ("perturbation.transfer.s", "s"),
            ("perturbation.lemma_check.s", "s")]
    for f in ("gauge_apply", "extract_invariants"):
        out += [(f"gauge.{f}.calls", "count"), (f"gauge.{f}.s", "s")]
    out += [(f"gauge.{f}.s", "s") for f in ("kill_orders", "mc_extend", "m6_certificate")]
    out += [(f"polygons.{f}.s", "s") for f in (
        "triangle_criterion", "mu3_series", "triangle_witnesses", "quad_witnesses")]
    out += [("polygons.witnesses", "count"), ("trace.overhead_frac", "ratio")]
    return tuple(out)


PER_LAYER = _layer_units()


class SetupFailed(RuntimeError):
    pass


def run_operation(workload, seed, index, trace, limit_at):
    """Run one operation in a fresh interpreter; return its result dict
    with the parent-measured ``setup_s`` added.  Raises SetupFailed when
    the program cannot be imported or the inputs cannot be built."""
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), workload,
           str(seed), str(index), "1" if trace else "0", str(trace_path)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, limit_at - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            proc.wait()
            raise SetupFailed(f"{workload}: set-up failed (exit code {proc.returncode})")
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # crashed or killed after set-up: one failed check
        return {"setup_s": setup_s, "op_s": None, "rss_mb": None, "checks": 1,
                "failed": [f"worker exit code {proc.returncode}"], "inputs": {},
                "crashed": True}
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    loops = result["loop_s"]
    result["ref_setup_s"] = setup_s * REFERENCE_LOOP_S / loops[0]
    phases = result["phases_s"]
    if phases is None:
        result["op_s"] = None
        return result
    result["op_s"] = sum(phases)
    result["ref_op_s"] = sum(t * REFERENCE_LOOP_S / ((a + b) / 2)
                             for t, a, b in zip(phases, loops, loops[1:]))
    result["speed"] = result["ref_op_s"] / result["op_s"]
    return result


def run_workload(workload, seed, seconds, trace):
    """Closed loop of operations for ``seconds``; returns a summary."""
    start = time.perf_counter()
    limit_at = start + HARD_LIMIT_S
    plain, traced = [], []
    index = 0
    while True:
        plain.append(run_operation(workload, seed, index, False, limit_at))
        if trace:
            traced.append(run_operation(workload, seed, index, True, limit_at))
        index += 1
        now = time.perf_counter()
        if now - start >= seconds or now >= limit_at:
            break
        if plain[-1].get("crashed") or (trace and traced[-1].get("crashed")):
            break  # a crashed or killed worker ends the loop
    results = plain + traced
    return {
        "workload": workload,
        "seed": seed,
        "plain": plain,
        "traced": traced,
        "attempted": sum(r["checks"] for r in results),
        "failed": sum(len(r["failed"]) for r in results),
    }


def _values(results, key):
    return [r[key] for r in results if r.get(key) is not None]


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(summary):
    plain = summary["plain"]
    return {
        "wall_s": _median(_values(plain, "ref_op_s")),
        "setup_s": _median(_values(plain, "ref_setup_s")),
        "peak_rss_mb": _median(_values(plain, "rss_mb")),
    }


def per_layer_metrics(summary):
    traced = [r for r in summary["traced"] if "layers" in r and r.get("speed")]
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        out[name] = _median([r["layers"][name] * (r["speed"] if unit == "s" else 1)
                             for r in traced])
    ratios = [t["ref_op_s"] / p["ref_op_s"]
              for p, t in zip(summary["plain"], summary["traced"])
              if p.get("ref_op_s") and t.get("ref_op_s")]
    out["trace.overhead_frac"] = _median(ratios) - 1.0 if ratios else 0.0
    return out


def report(summary, trace):
    """Human-readable lines for one workload, then its metrics."""
    plain = summary["plain"]
    units = dict(END_TO_END + PER_LAYER)
    attempted, failed = summary["attempted"], summary["failed"]
    lines = [f"# workload={summary['workload']} seed={summary['seed']} "
             f"trace={int(trace)} operations={len(plain)}"
             + (f"+{len(summary['traced'])} traced" if trace else "")]
    for key, raw, name in (("ref_op_s", "op_s", "wall_s"),
                           ("ref_setup_s", "setup_s", "setup_s"),
                           ("rss_mb", None, "peak_rss_mb"),
                           ("speed", None, "speed")):
        vals = _values(plain, key)
        if not vals:
            continue
        line = (f"{name:<14} median {statistics.median(vals):.4f} {units.get(name, 'x')}"
                f"  min {min(vals):.4f}  max {max(vals):.4f}  n={len(vals)}")
        if raw:
            line += f"  (as measured: median {statistics.median(_values(plain, raw)):.4f} s)"
        lines.append(line)
    lines.append(f"{'fail_frac':<14} {failed}/{attempted} = "
                 f"{failed / attempted if attempted else 1.0:.4f}")
    for r in plain + summary["traced"]:
        for name in r["failed"]:
            lines.append(f"FAILED {name}  inputs={json.dumps(r['inputs'])}")
    metrics = per_layer_metrics(summary) if trace else end_to_end_metrics(summary)
    if trace:
        for name, value in metrics.items():
            lines.append(f"{name:<40} {value:.6g} {units[name]}")
    return lines, metrics


def src_line_count():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "ainfbench").glob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ainfbench" / "__init__.py").is_file():
        print(f"error: no ainfbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"# ainfbench benchmark seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} src_loc={src_line_count()}", flush=True)
    attempted = failed = 0
    metrics = {}
    units = dict(END_TO_END + PER_LAYER)
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        lines, values = report(summary, bool(args.trace))
        print("\n".join(lines), flush=True)
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
