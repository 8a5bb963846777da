"""Self-tests of the benchmark: tracer arithmetic and hygiene, answer
checks, and the command's contract.  Run with

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_on_nested_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1],   # 0: root
        ["b", 1.0, 4.0, 0],     # 1
        ["c", 2.0, 3.0, 1],     # 2
        ["b", 5.0, 9.0, 0],     # 3
        ["a", 6.0, 7.0, 3],     # 4: a nested in itself, under b
        ["d", 8.5, 9.5, 3],     # 5: overruns its parent; clipped at 9
    ]
    got = {name: (calls, incl, self_s)
           for name, calls, incl, self_s in tracer.span_totals(spans)}
    # a: outer call only for inclusive time; self = (10 - 3 - 4) + 1
    assert got["a"] == (2, 10.0, 4.0)
    # b: 3 + 4 inclusive; self = (3 - 1) + (4 - 1 - 0.5)
    assert got["b"] == (2, 7.0, 4.5)
    assert got["c"] == (1, 1.0, 1.0)
    assert got["d"] == (1, 1.0, 1.0)


def _bindings():
    """Every function or method object the tracer may replace, by owner."""
    import ainfbench  # noqa: F401
    from ainfbench.quiver import AInfStructure, QuiverCategory

    owners = [m for name, m in sys.modules.items()
              if m is not None and name.split(".")[0] == "ainfbench"]
    owners += [AInfStructure, QuiverCategory]
    return {(id(o), attr): value for o in owners
            for attr, value in list(vars(o).items()) if callable(value)}


def test_wrappers_installed_at_every_binding_and_removed_after():
    from ainfbench import gauge, hochschild, linalg, skoldberg
    from ainfbench.quiver import AInfStructure

    before = _bindings()
    rank, is_cob = linalg.rank, hochschild.is_coboundary
    with tracer.Tracer() as tr:
        assert linalg.rank is not rank
        assert hochschild.rank is linalg.rank and skoldberg.rank is linalg.rank
        assert gauge.is_coboundary is hochschild.is_coboundary is not is_cob
        hochschild.hh_bar(workloads.Q, 3)
        structure = workloads.perturbation.transfer(
            workloads.perturbation.preset_splitting_C(workloads.Q), 4).minimal
        structure.ainf_check(4)
    assert _bindings() == before
    assert AInfStructure.ainf_check.__module__ == "ainfbench.quiver"
    totals = tr.totals()
    # rank reaches rref through the linalg globals
    assert totals["linalg.rref.calls"] == totals["linalg.rank.calls"] > 0
    assert totals["hochschild.hh_bar.calls"] == 1
    assert totals["quiver.ainf_check.calls"] == 1
    assert totals["quiver.relation_defect.calls"] > 0
    assert totals["quiver.tuples.yielded"] > 0
    assert tr.tuples_by_span["quiver.ainf_check"] > 0


def test_wrappers_removed_when_the_operation_raises():
    from ainfbench import linalg

    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert linalg.rank is not before[(id(linalg), "rank")]
            raise ZeroDivisionError
    assert _bindings() == before


# ---------------------------------------------------------------------------
# workloads and their checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def runs():
    """Inputs and untraced answers of operation 0 of each workload."""
    out = {}
    for name in workloads.WORKLOADS:
        inputs = workloads.make_inputs(name, SEED, 0)
        out[name] = (inputs, workloads.run_operation(name, inputs))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_answers_pass_their_checks(runs, name):
    inputs, answers = runs[name]
    checks = workloads.check_answers(name, inputs, answers)
    assert checks and all(ok for _, ok in checks), checks


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_answers_equal_untraced(runs, name):
    inputs, answers = runs[name]
    again = workloads.make_inputs(name, SEED, 0)
    assert workloads.describe_inputs(name, again) == workloads.describe_inputs(name, inputs)
    with tracer.Tracer() as tr:
        traced = workloads.run_operation(name, again)
    assert traced == answers
    assert tr.spans


def _break_hh(exp):
    exp["cells"][0][(6, -4)] = 2


def _break_mu4(exp):
    exp["mu4"][("u", "e1", "e1", "v")] = {"f1": "1/4"}


def _break_mu6(exp):
    exp["mu6x144"][("f1", "f1", "u", "e1", "v", "f1")] = {"f1": "-11"}


def _break_classify(exp):
    exp["model_invariants"] = ("-1/48", "1/865")


def _break_triangles(exp):
    exp["triangles_per_band"] = 3


def _break_quads(exp):
    exp["quads_per_band"] = lambda p: 2 * p


@pytest.mark.parametrize("name, breaker", [
    ("hh-dims", _break_hh),
    ("certify", _break_mu4),
    ("certify", _break_mu6),
    ("classify", _break_classify),
    ("triangle", _break_triangles),
    ("triangle", _break_quads),
])
def test_checks_reject_a_wrong_expected_value(runs, name, breaker):
    inputs, answers = runs[name]
    expected = copy.deepcopy(workloads.EXPECTED[name])
    breaker(expected)
    checks = workloads.check_answers(name, inputs, answers, expected)
    assert not all(ok for _, ok in checks)


def test_inputs_follow_the_seed():
    def drawn(seed):
        inputs = workloads.make_inputs("classify", seed, 0)
        assert inputs["m6"] and inputs["m8"]
        return json.dumps(workloads.describe_inputs("classify", inputs))

    assert drawn(1) == drawn(1)
    assert len({drawn(seed) for seed in range(10)}) > 1


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_times_are_scaled_to_reference_speed():
    result = run.run_operation("hh-dims", 3, 0, False, time.perf_counter() + 120)
    phases, loops = result["phases_s"], result["loop_s"]
    assert len(phases) == 5 and len(loops) == 6  # four hh_bar calls, then the rest
    ref = run.REFERENCE_LOOP_S
    assert result["ref_op_s"] == pytest.approx(
        sum(t * ref / ((loops[i] + loops[i + 1]) / 2) for i, t in enumerate(phases)))
    assert result["op_s"] == pytest.approx(sum(phases))
    assert result["ref_setup_s"] == pytest.approx(result["setup_s"] * ref / loops[0])
    summary = {"plain": [result, dict(result, ref_op_s=3.0, ref_setup_s=1.0, rss_mb=1.0)]}
    metrics = run.end_to_end_metrics(summary)
    assert metrics["wall_s"] == pytest.approx((result["ref_op_s"] + 3.0) / 2)


def test_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "hh-dims",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hh-dims", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
