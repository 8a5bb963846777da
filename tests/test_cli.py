import io
import contextlib
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ainfbench.cli import main
from ainfbench.polygons import preset_scene
from ainfbench.quiver import dump, load

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
def test_hh_table_golden(field, tmp_path):
    out = tmp_path / "hh.txt"
    code, _ = run(["hh-table", "--field", field, "--rmax", "8",
                   "--out", str(out)])
    assert code == 0
    assert out.read_text() == (GOLDEN / f"hh_table_{field}.txt").read_text()


def test_hh_table_skoldberg_periodic_continuation():
    code, text = run(["hh-table", "--field", "Q", "--rmax", "24",
                      "--method", "skoldberg", "--format", "records"])
    assert code == 0
    assert "(14, -10, 1)" in text  # (6,-4) pushed one period up
    assert "MATCH ok" in text


def test_hh_table_f2_skoldberg():
    code, text = run(["hh-table", "--field", "F2", "--rmax", "16",
                      "--method", "skoldberg", "--format", "records"])
    assert code == 0


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_m6_golden(field, tmp_path):
    out = tmp_path / "m6.txt"
    code, _ = run(["m6", "--field", field, "--out", str(out)])
    assert code == 0
    assert out.read_text() == (GOLDEN / f"m6_{field}.txt").read_text()


def test_m6_refuses_char_2():
    # as gauge-fix and mc refuse a field where 6 is not invertible
    for argv, message in (
            (["m6", "--field", "F2"], "6 is not invertible over F2"),
            (["gauge-fix", "--field", "F3"], "gauge normalization needs 6 invertible, not F3"),
            (["mc", "--field", "F2"], "classification needs 6 invertible, not F2")):
        code, out, err = _run_err(argv)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_m6_exploratory_f5():
    code, text = run(["m6", "--field", "F5"])
    assert code == 0
    assert "exploratory" in text
    assert "m6 NONZERO" in text


def test_triangle_golden(tmp_path):
    out = tmp_path / "tri.txt"
    code, _ = run(["triangle", "--wrap", "4", "--out", str(out)])
    assert code == 0
    assert out.read_text() == (GOLDEN / "triangle_wrap4.txt").read_text()


def test_triangle_scene_file(tmp_path):
    # the preset scene read from a file gives the preset's output; a scene
    # without a maslov row or with a curve of the wrong kind is bad input
    text = oracles.scene_dump(preset_scene())
    path = tmp_path / "scene.txt"
    path.write_text(text)
    assert run(["triangle", "--wrap", "2", "--scene", str(path)]) == run(
        ["triangle", "--wrap", "2"])
    for bad in (text.replace("maslov e21 0\n", ""),
                text.replace("curve gamma0 h", "curve gamma0 v")):
        path.write_text(bad)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["triangle", "--wrap", "2", "--scene", str(path)])
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("error: ")


def test_degenerate_scene_file_is_bad_input(tmp_path):
    # a marked point on a curve (the first named: gamma0, gamma1, gamma2,
    # then the pushoff), a star at an arc end and a broken degree relation
    # each make the census refuse the scene: bad input, exit 2, not a
    # traceback with exit 1, which means a mathematical negative
    text = oracles.scene_dump(preset_scene())
    path = tmp_path / "scene.txt"
    for old, new, message in (
            ("z 3/4 3/4", "z 1/2 0", "marked point (1/2, 0) on gamma0\n"),
            ("z 3/4 3/4", "z 3/4 0", "marked point (3/4, 0) on gamma0\n"),
            ("z 3/4 3/4", "z 0 1/4", "marked point (0, 1/4) on gamma1\n"),
            ("z 3/4 3/4", "z 3/4 1/4", "marked point (3/4, 1/4) on gamma2\n"),
            ("z 3/4 3/4", "z 1/100 3/8", "marked point (1/100, 3/8) on pushoff\n"),
            ("curve gamma0 h +1 star 2/3", "curve gamma0 h +1 star 0", "star sits on an arc"),
            ("maslov e12 1", "maslov e12 0", "degree relation fails")):
        assert old in text
        path.write_text(text.replace(old, new))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run(["triangle", "--wrap", "2", "--scene", str(path)])
        assert (code, out) == (2, "")
        assert err.getvalue().startswith(f"error: scene {path}: {message}")


_KNOTS_AND_TWELFTHS = st.one_of(
    st.sampled_from([Fr(0), Fr(1, 8), Fr(3, 8), Fr(5, 8), Fr(7, 8), Fr(1, 100), Fr(99, 100)]),
    st.integers(2, 12).flatmap(lambda d: st.integers(1, d - 1).map(lambda k: Fr(k, d))))


@st.composite
def _basepoints(draw):
    """z from the knots and twelfths, or put on gamma1, gamma2 or the
    pushoff (gamma0 is y = 0, a knot), each coordinate moved by an integer."""
    y = draw(_KNOTS_AND_TWELFTHS)
    x = draw(st.one_of(_KNOTS_AND_TWELFTHS, st.just(Fr(0)), st.just(y + Fr(1, 2)),
                       st.just(oracles._w(y))))
    return x + draw(st.integers(-1, 1)), y + draw(st.integers(-1, 1))


@settings(max_examples=100)
@given(z=_basepoints())
def test_triangle_scene_exits_2_exactly_on_a_curve(tmp_path_factory, z):
    # triangle --scene in-process on a drawn basepoint: no exception
    # escapes, and the exit is 2, naming the first curve z lies on, exactly
    # when the Fraction test puts z on one
    path = tmp_path_factory.mktemp("scene") / "scene.txt"
    path.write_text(oracles.scene_dump(preset_scene()).replace("z 3/4 3/4", f"z {z[0]} {z[1]}"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(["triangle", "--wrap", "2", "--scene", str(path)])
    curves = oracles.curves_through(z)
    if curves:
        assert (code, out) == (2, "")
        assert err.getvalue() == \
            f"error: scene {path}: marked point ({z[0]}, {z[1]}) on {curves[0]}\n"
    else:
        assert code in (0, 1) and out.endswith(("RESULT ok\n", "RESULT FAIL\n"))


def test_triangle_svg(tmp_path):
    svg_dir = tmp_path / "figs"
    code, text = run(["triangle", "--wrap", "1", "--svg", str(svg_dir)])
    assert code == 0
    assert len(list(svg_dir.glob("*.svg"))) == 4 + 4


def test_jacobi_golden(tmp_path):
    out = tmp_path / "jac.txt"
    code, _ = run(["jacobi", "--order", "50", "--out", str(out)])
    assert code == 0
    assert out.read_text() == (GOLDEN / "jacobi_50.txt").read_text()


def test_minimal_model_roundtrip(tmp_path):
    out = tmp_path / "model.alg"
    argv = ["minimal-model", "--order", "8", "--check-order", "6"]
    code, _ = run(argv + ["--out", str(out)])
    assert code == 0
    # without --out the structure file's text comes first on stdout, then
    # the two report lines
    assert run(argv) == (0, out.read_text() + "closed form holds through order 8: ok\n"
                         "relations hold through order 6: ok\n")
    code2, text = run(["check", str(out), "--order", "6"])
    assert code2 == 0 and "RESULT ok" in text


def test_hh_table_reports_each_cell_that_differs(monkeypatch):
    # a table missing the class at (6, -4) is a mathematical negative
    from ainfbench import cli
    hh_bar = cli.hh_bar

    def without_class(spec, rmax):
        dims = dict(hh_bar(spec, rmax))
        del dims[(6, -4)]
        return dims

    monkeypatch.setattr(cli, "hh_bar", without_class)
    code, text = run(["hh-table", "--rmax", "8"])
    assert code == 1
    assert text.endswith("MATCH FAIL\nDIFF (6, -4): got 0 want 1\n")


def test_check_flags_violations(tmp_path):
    bad = tmp_path / "bad.alg"
    text = (GOLDEN / "preset_C.alg").read_text()
    bad.write_text(text.replace("v0 u01 -> -1*e1", "v0 u01 -> 1*e1"))
    code, out = run(["check", str(bad), "--order", "4"])
    assert code == 1
    assert "VIOLATION" in out


def _run_err(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(argv)
    return code, out, err.getvalue()


@pytest.mark.parametrize("old,new,field", [
    ("e0 e0 -> 1*e0", "e0 e0 -> 1/0*e0", "Q"),   # MU2 row
    ("a 1*e0", "a 1/0*e0", "Q"),                 # IDENTITIES row
    ("e0 e0 -> 1*e0", "e0 e0 -> 1/5*e0", "F5"),  # 5 is not invertible mod 5
])
def test_check_zero_denominator_is_bad_input(tmp_path, old, new, field):
    lines = (GOLDEN / "preset_C.alg").read_text().splitlines()
    lines[0] = f"FIELD {field}"
    i = lines.index(old)
    lines[i] = new
    bad = tmp_path / "bad.alg"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = _run_err(["check", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {i + 1}: ")


def test_field_f0_is_usage():
    # F0 names no field; it was read as Q
    code, out, err = _run_err(["hh-table", "--field", "F0", "--rmax", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


def test_check_rejects_field_f0_at_its_line(tmp_path):
    lines = (GOLDEN / "preset_C.alg").read_text().splitlines()
    assert lines[0] == "FIELD Q"
    lines[0] = "FIELD F0"
    bad = tmp_path / "bad.alg"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = _run_err(["check", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1: ")


def test_mc_zero_denominator_is_usage():
    for argv in (["mc", "--m6", "1/0"], ["mc", "--m8=-2/0"],
                 ["mc", "--field", "F5", "--m6", "1/5"]):
        code, out, err = _run_err(argv + ["--order", "6"])
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ")


def test_mc_structure_file(tmp_path):
    out = tmp_path / "mc.alg"
    code, _ = run(["mc", "--m6", "1", "--m8", "0", "--order", "8",
                   "--check-order", "8", "--out", str(out)])
    assert code == 0
    code2, _ = run(["check", str(out)])
    assert code2 == 0


def test_gauge_fix_with_orbit(tmp_path):
    out = tmp_path / "fixed.alg"
    code, text = run(["gauge-fix", "--order", "8", "--verify-orbit", "2",
                      "--seed", "5", "--out", str(out)])
    assert code == 0
    assert "m6 = -1/48" in text and "m8 = 1/864" in text
    assert "stable" in text and "RESULT ok" in text
    assert text == (GOLDEN / "gauge_fix_Q.txt").read_text()


def test_mc_golden_over_a_prime_field():
    # the residues of (m6, m8) = (3, 2/5) in F7 and of every table entry
    code, text = run(["mc", "--order", "10", "--field", "F7", "--m6", "3", "--m8", "2/5"])
    assert code == 0
    assert text == (GOLDEN / "mc_F7.txt").read_text()


def test_gauge_fix_gauges_each_structure_once(monkeypatch):
    # kill_orders normalizes the transferred model B once; the invariants
    # of the fixed structure are read in one pass, with no gauge_apply.
    # Extraction used to kill_orders twice more: [(B', (3, 4, 5)), (B', (7,))]
    from ainfbench import gauge
    from ainfbench.perturbation import preset_splitting_C, transfer
    from ainfbench.scalars import FieldSpec

    calls, applied, during_extraction = [], [], []
    kill, apply, extract = gauge.kill_orders, gauge.gauge_apply, gauge.extract_invariants

    def counted(mu, orders):
        calls.append((dump(mu), tuple(orders)))
        return kill(mu, orders)

    def extracting(mu):
        before = len(applied)
        inv = extract(mu)
        during_extraction.append(len(applied) - before)
        return inv

    monkeypatch.setattr(gauge, "kill_orders", counted)
    monkeypatch.setattr(gauge, "gauge_apply", lambda *a: applied.append(a) or apply(*a))
    monkeypatch.setattr(gauge, "extract_invariants", extracting)
    code, text = run(["gauge-fix", "--order", "8"])
    assert code == 0 and "m6 = -1/48" in text
    B = transfer(preset_splitting_C(FieldSpec(0)), 8).minimal
    assert calls == [(dump(B), (3, 4, 5))]
    assert len(applied) == 3 and during_extraction == [0]


def test_gauge_fix_obstruction_is_a_negative_not_usage(capsys):
    # mu^6 carries the nonzero order-6 class: a mathematical negative
    code, _ = run(["gauge-fix", "--orders", "3,4,5,6"])
    assert code == 1
    assert "mu^6 represents a nonzero class" in capsys.readouterr().err


@pytest.mark.parametrize("orders, reason", [
    ("3,,4", "order (empty) is not an integer"),
    ("3,x", "order x is not an integer"),
    ("1", "order 1: orders run from 3 to 8"),
    ("2", "order 2: orders run from 3 to 8"),
    ("9", "order 9: orders run from 3 to 8"),
])
def test_gauge_fix_orders_out_of_range_is_usage(orders, reason):
    # an empty item, an arity no gauge changes, an arity above --order
    code, out, err = _run_err(["gauge-fix", "--orders", orders])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --orders: ") and reason in err


def test_python_m_runs_the_cli(tmp_path):
    # from a checkout that is not installed: only src/ on the path
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ainfbench", "triangle", "--wrap", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(["triangle", "--wrap", "1"])[1]


def test_determinism_across_runs():
    a = run(["triangle", "--wrap", "2"])
    b = run(["triangle", "--wrap", "2"])
    assert a == b
    c = run(["hh-table", "--field", "Q", "--rmax", "6"])
    d = run(["hh-table", "--field", "Q", "--rmax", "6"])
    assert c == d


def test_stdout_does_not_depend_on_the_hash_seed(tmp_path):
    # str hashes, and so the iteration order of sets and dicts of names,
    # change with PYTHONHASHSEED; the printed bytes must not.  Each command
    # runs in a fresh interpreter under seeds 0 and 1, all at once.
    src = Path(__file__).parent.parent / "src"
    commands = (("m6",), ("triangle", "--wrap", "6"),
                ("hh-table", "--rmax", "8", "--field", "F2"), ("minimal-model", "--order", "10"))
    procs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        for argv in commands:
            procs[seed, argv] = subprocess.Popen(
                [sys.executable, "-m", "ainfbench", *argv], cwd=tmp_path, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stderr) == (0, ""), key
        out[key] = stdout
    for argv in commands:
        assert out["0", argv] == out["1", argv], argv


@pytest.mark.parametrize("argv", [
    ["hh-table", "--rmax", "-1"],
    ["triangle", "--wrap", "0"],
    ["triangle", "--wrap", "-2"],
    ["check", str(GOLDEN / "preset_C.alg"), "--order", "-3"],
    ["check", str(GOLDEN / "preset_C.alg"), "--order", "0"],
    ["mc", "--check-order", "-1"],
    ["minimal-model", "--check-order", "0"],
    ["gauge-fix", "--verify-orbit", "-3"],
    ["mc", "--order", "7", "--m8", "1"],  # an invariant above --order
    ["mc", "--order", "5", "--m6", "1"],
])
def test_out_of_range_bound_is_usage(argv):
    # a bound below its least value would print a vacuous "ok"
    code, out, err = _run_err(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv, least", [
    (["mc", "--order", "1"], 2),              # mc starts from mu^2
    (["minimal-model", "--order", "1"], 2),   # so does the transfer
    (["gauge-fix", "--order", "7"], 8),       # the invariants sit at arity 8
])
def test_order_below_what_the_command_needs_is_usage(argv, least, monkeypatch):
    # refused before any work, naming the option
    monkeypatch.setattr("ainfbench.cli.transfer", None)
    code, out, err = _run_err(argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: --order must be at least {least}, got {argv[-1]}\n"


@pytest.mark.parametrize("header,bad", [("FIELD", "F6"), ("TRUNCATION", "x"),
                                        ("TRUNCATION", "0"), ("TRUNCATION", "-3")])
def test_check_bad_header_names_its_line(tmp_path, header, bad):
    lines = (GOLDEN / "preset_C.alg").read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith(header))
    lines[i] = f"{header} {bad}"
    path = tmp_path / "bad.alg"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run_err(["check", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {i + 1}: ")


def test_gauge_fix_noncocycle_order_is_bad_input():
    # mu^4 while mu^3 is still present is no cocycle
    code, out, err = _run_err(["gauge-fix", "--orders", "4"])
    assert (code, out) == (2, "")
    assert err == "error: mu^4 is not a cocycle; lower orders unkilled?\n"


def test_check_reports_a_noncocycle_order(tmp_path):
    # one mu^6 entry of an mc structure rescaled: delta(mu^6) != 0 is the
    # arity-7 relation, which check reports, leaving arities <= 6 clean
    out = tmp_path / "mc.alg"
    assert run(["mc", "--m6", "1", "--order", "8", "--out", str(out)])[0] == 0
    struct = load(out.read_text())
    key = next(iter(struct.tables[6]))
    struct.tables[6][key] = struct.tables[6][key].scale(struct.spec.scalar(2))
    out.write_text(dump(struct))
    code, text, err = _run_err(["check", str(out)])
    assert (code, err) == (1, "")
    assert "VIOLATION" in text and "RESULT FAIL" in text
    violated = {int(line.split()[2]) for line in text.splitlines()
                if line.startswith("VIOLATION")}
    assert min(violated) == 7


@pytest.mark.parametrize("where, added", [
    ("e0 e0 -> 1*e0", "e0 e0 -> 1*e0"),   # a repeated MU2 row
    ("MU1", "OBJECTS"),                   # a repeated section
])
def test_check_repeated_row_or_section_is_bad_input(tmp_path, where, added):
    lines = (GOLDEN / "preset_C.alg").read_text().splitlines()
    i = lines.index(where) + 1
    lines.insert(i, added)
    bad = tmp_path / "bad.alg"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = _run_err(["check", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {i + 1}: ") and "given twice" in err
