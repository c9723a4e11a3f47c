"""The benchmark's checks accept what cvconc outputs today and reject a
perturbed output; the known faults fail the way the benchmark counts them.

    python3 -m pytest bench/test_checks.py
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import program
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cv():
    return program.import_modules(ROOT)


@pytest.fixture
def runner(cv, tmp_path):
    return run.Runner(cv, tmp_path)


def small_grid_op(command, tmp_path, shape, members, product=False, extra=()):
    rng = np.random.default_rng(7)
    axes = inputs.box_axes(shape)
    amp = (inputs.product_amplitudes(rng, shape, members) if product
           else inputs.random_amplitudes(rng, shape))
    amp = inputs.normalized(amp, axes)
    inputs.write_files({"state.json": inputs.grid_document(axes, amp)}, tmp_path)
    return inputs.grid_op(command, "state.json", amp, axes, members, "test", extra=extra)


def cli_output(runner, op):
    argv = [str(runner.workdir / a) if a.endswith(".json") else a for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = runner.cv.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_concurrence_check(runner, tmp_path):
    op = small_grid_op("concurrence", tmp_path, (12, 12), (0,),
                       extra=("--routes", "A,B,C,Lambda,D,E"))
    rc, stdout, stderr = cli_output(runner, op)
    assert checks.check_concurrence(rc, stdout, stderr, op.ref) == []
    out = json.loads(stdout)
    for key, value in (("route_E_pt_fourth", out["route_E_pt_fourth"] + 1e-8),
                       ("route_A_wedge", float("nan")), ("verdict", "separable")):
        bad = dict(out, **{key: value})
        assert checks.check_concurrence(rc, json.dumps(bad), stderr, op.ref), key
    assert checks.check_concurrence(1, "", "error: x", op.ref)


def test_closed_form_check(runner, tmp_path):
    A = np.array([[1.0, 0.3], [0.3, 1.2]])
    inputs.write_files({"g.json": inputs.gaussian_document(A)}, tmp_path)
    op = inputs.gaussian_op("concurrence", "g.json", A, 32, (0,))
    rc, stdout, stderr = cli_output(runner, op)
    assert checks.check_concurrence(rc, stdout, stderr, op.ref) == []
    moved = copy.deepcopy(op.ref)
    moved.closed_form += 1e-5
    assert any("closed form" in p for p in checks.check_concurrence(rc, stdout, stderr, moved))


def test_verify_check(runner, tmp_path):
    op = small_grid_op("verify", tmp_path, (10, 10), (0,))
    rc, stdout, stderr = cli_output(runner, op)
    assert checks.check_verify(rc, stdout, stderr, op.ref) == []
    out = json.loads(stdout)
    ppt = [c for c in out["checks"] if c["name"].startswith("ppt_")]
    assert ppt, "an entangled random state gets the PPT check"
    ppt[0]["measured"] += 1e-8
    assert checks.check_verify(rc, json.dumps(out), stderr, op.ref)
    assert checks.check_verify(rc, json.dumps(dict(json.loads(stdout), overall="fail")), stderr,
                               op.ref)


def test_factor_check(runner, tmp_path):
    op = small_grid_op("factor", tmp_path, (12, 12), (0,), product=True,
                       extra=("--out-m", "m.json", "--out-rest", "r.json"))
    rc, stdout, stderr = cli_output(runner, op)
    m_path, r_path = tmp_path / "m.json", tmp_path / "r.json"
    assert checks.check_factor(rc, stdout, stderr, op.ref, m_path, r_path) == []
    doc = json.loads(m_path.read_text())
    doc["amplitudes_real"][3] *= 1.0 + 1e-6
    m_path.write_text(json.dumps(doc))
    assert checks.check_factor(rc, stdout, stderr, op.ref, m_path, r_path)


def test_lib_corpus_checks(runner):
    workload = inputs.build("lib-corpus", 5)
    for op in workload.ops:
        seconds, problems = runner.run(op, runner.prepare(op))
        assert problems == [], (op.label, problems)
    op = next(o for o in workload.ops if o.lib.gh_points)
    moved = copy.deepcopy(op.ref)
    moved.family[1] *= 1.0 + 1e-6
    moved_op = copy.copy(op)
    moved_op.ref = moved
    _, problems = runner.run(moved_op, runner.prepare(op))
    assert any(p.startswith("family_p1") for p in problems)


def test_known_faults_fail_as_counted(runner, tmp_path):
    tally = run.Tally()
    for name in ("cli-concurrence", "cli-verify"):
        workload = inputs.build(name, 1)
        inputs.write_files(workload.files, tmp_path)
        (op,) = [o for o in workload.ops if o.known_fault]
        seconds, problems = runner.run(op, None)
        assert problems and all(p.startswith(op.fault_sign) for p in problems), problems
        tally.record(op, seconds, problems)
    assert tally.unexpected == []
    assert [failed for _, _, failed in tally.samples] == [True, True]


def test_tracer_accounts_for_the_operation_time(runner, cv):
    op = inputs.build("lib-corpus", 2).ops[-1]
    prepared = runner.prepare(op)
    original = cv.concurrence.concurrence_report
    t = tracer.Tracer()
    t.install()
    try:
        seconds, problems = runner.run(op, prepared)
    finally:
        t.uninstall()
    assert cv.concurrence.concurrence_report is original
    metrics, self_sum, spans = t.take_pass()
    assert problems == []
    assert set(metrics) == set(tracer.SELF_METRICS) | set(tracer.COUNT_METRICS)
    assert 0.0 < self_sum <= seconds
    assert seconds - self_sum < 0.01 * seconds + 1e-3
    assert metrics["concurrence.concurrence_gaussian_numeric.s"] > 0.0
    assert metrics["quadrature.gauss_hermite_rule.s"] > 0.0
    assert metrics["concurrence.wedge_quadruples"] == 2 * 16**4 + 24**4
    assert all(parent < index for index, (*_, parent, _) in enumerate(spans))


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "lib-corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
