"""One benchmark operation in a fresh interpreter.

    python3 bench/worker.py ROOT WORKLOAD SEED INDEX TRACE TRACE_PATH

Imports ``ainfbench`` from ROOT/src and builds the operation's inputs,
then prints ``READY`` (the parent times set-up up to that line), runs and
times the operation phase by phase, with a timing of a fixed reference
loop before, between and after the phases, checks its answers, and prints
one JSON result line.
With TRACE = 1 the operation runs under the tracer, whose spans are
written to TRACE_PATH.  Exit code 3 means set-up failed; an operation
that raises is reported in the result as one failed check.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# Time of reference_loop() at reference machine speed, about the fastest it
# ran on a 2-core x86 VM with Python 3.11.  Reported times are scaled by
# REFERENCE_LOOP_S / (measured loop time), see run.py.
REFERENCE_LOOP_S = 0.04


def reference_loop() -> float:
    """Seconds taken by a fixed loop of the program's staple operations
    (Fraction arithmetic, dict and tuple work); it calls no program code,
    so it measures only how fast the machine runs Python right now."""
    start = time.perf_counter()
    counts: dict = {}
    total = Fraction(0)
    for i in range(1, 12000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 5)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def main(argv) -> int:
    root, workload, seed, index, trace, trace_path = argv
    seed, index, trace = int(seed), int(index), trace == "1"
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    try:
        import ainfbench
        if Path(ainfbench.__file__).resolve().parent != (src / "ainfbench").resolve():
            raise ImportError(f"ainfbench imported from {ainfbench.__file__}, not {src}")
        import workloads
        inputs = workloads.make_inputs(workload, seed, index)
    except Exception:  # set-up failure ends the whole run
        traceback.print_exc()
        return 3
    print("READY", flush=True)
    loops = [reference_loop()]
    phases = []

    def tick():
        nonlocal start
        phases.append(time.perf_counter() - start)
        loops.append(reference_loop())
        start = time.perf_counter()

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    error = None
    answers = None
    start = time.perf_counter()
    try:
        answers = workloads.run_operation(workload, inputs, tick)
    except Exception:  # a failed operation is counted, and the run goes on
        error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
        tick()

    if answers is None:
        phases = None  # no timing for an operation that did not finish
        checks = [("operation raised", False)]
    else:
        try:
            checks = workloads.check_answers(workload, inputs, answers)
        except Exception:  # malformed answers are one failed check
            error = traceback.format_exc()
            checks = [("answers malformed", False)]
    if error:
        sys.stderr.write(error)
    result = {
        "phases_s": phases,
        "loop_s": loops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": len(checks),
        "failed": [name for name, ok in checks if not ok],
        "inputs": workloads.describe_inputs(workload, inputs),
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        tracer.write(trace_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
