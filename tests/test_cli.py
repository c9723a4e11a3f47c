"""Command-line interface, file formats, and exit-code contract."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cvconc as cv
from cvconc import Bipartition, GaussianPureState, GridAxis, GridState
from cvconc.cli import build_parser, main
from cvconc.errors import InputError
from cvconc.serialization import (
    gaussian_from_dict,
    gaussian_to_dict,
    grid_state_from_dict,
    grid_state_to_dict,
    load_state,
    save_grid_state,
)

import oracles
from conftest import random_grid_state, random_product_state


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def gaussian_file(tmp_path, c, name="state.json"):
    state = GaussianPureState(np.array([[1.0, c / 2.0], [c / 2.0, 1.0]], dtype=complex))
    return write_json(tmp_path / name, gaussian_to_dict(state))


def test_grid_state_round_trip(tmp_path):
    state = random_grid_state(np.random.default_rng(3))
    path = tmp_path / "grid.json"
    save_grid_state(state, path)
    loaded = load_state(path)
    assert isinstance(loaded, GridState)
    assert loaded.axes == state.axes
    assert np.array_equal(loaded.amplitudes, state.amplitudes)


@pytest.mark.parametrize("state", [
    random_grid_state(np.random.default_rng(5)),
    cv.discretize(GaussianPureState(np.array([[1.0, 0.4], [0.4, 1.2]])), [GridAxis(-6, 6, 12)] * 2),
], ids=["complex", "real"])
def test_a_grid_file_is_one_json_document(tmp_path, state):
    path = tmp_path / "grid.json"
    save_grid_state(state, path)
    assert path.read_bytes() == (json.dumps(grid_state_to_dict(state)) + "\n").encode()
    loaded = load_state(path)
    assert loaded.axes == state.axes
    assert np.array_equal(loaded.amplitudes, state.amplitudes)
    # The reader hands its array over read-only, as the state keeps it.
    assert not loaded.amplitudes.flags.writeable


def test_gaussian_round_trip():
    state = GaussianPureState(np.array([[1.0, 0.3j], [0.3j, 2.0]]))
    again = gaussian_from_dict(gaussian_to_dict(state))
    assert np.array_equal(again.A, state.A)


def test_malformed_files_rejected(tmp_path):
    with pytest.raises(InputError):
        grid_state_from_dict({"axes": []})
    with pytest.raises(InputError):
        gaussian_from_dict({"n": 2, "A_real": [[1.0]], "A_imag": [[0.0]]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_state(bad)
    with pytest.raises(InputError):
        load_state(write_json(tmp_path / "odd.json", {"foo": 1}))


GRID_AXES = [{"min": -1.0, "max": 1.0, "points": 2}] * 2


@pytest.mark.parametrize("payload", [
    5,
    None,
    [1, 2],
    "axes",
    {"axes": GRID_AXES, "amplitudes_real": [1.0] * 4, "amplitudes_imag": "ab"},
    {"axes": GRID_AXES, "amplitudes_real": ["x"] * 4, "amplitudes_imag": [0.0] * 4},
    {"axes": [{"min": "a", "max": 1.0, "points": 2}] * 2,
     "amplitudes_real": [1.0] * 4, "amplitudes_imag": [0.0] * 4},
    {"n": 2, "A_real": [["a", 0.0], [0.0, 1.0]], "A_imag": [[0.0, 0.0], [0.0, 0.0]]},
    {"n": "two", "A_real": [[1.0, 0.0], [0.0, 1.0]], "A_imag": [[0.0, 0.0], [0.0, 0.0]]},
], ids=["number", "null", "list", "string", "imag-text", "real-text", "min-text",
        "A-text", "n-text"])
def test_malformed_state_file_is_an_input_error(tmp_path, capsys, payload):
    # A top level that is not an object raised TypeError at `"axes" in data`,
    # and text where a number belongs leaked numpy's ValueError.
    path = write_json(tmp_path / "bad.json", payload)
    with pytest.raises(InputError):
        load_state(path)
    assert main(["concurrence", path, "--M", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_object_state_file_prints_no_traceback(tmp_path):
    path = write_json(tmp_path / "five.json", 5)
    package_root = os.path.dirname(os.path.dirname(cv.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "cvconc.cli", "concurrence", path, "--M", "0"],
        capture_output=True, text=True,
        env={"PATH": "", "OMP_NUM_THREADS": "1", "PYTHONPATH": package_root},
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_cmd_gaussian_separable(capsys):
    assert main(["gaussian", "--a", "1", "--b", "1", "--c", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["E2"] == 0.0
    assert out["verdict"] == "separable"


def test_cmd_gaussian_entangled(capsys):
    assert main(["gaussian", "--a", "1", "--b", "1", "--c", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["E2"] - (2.0 - np.sqrt(3.0))) < 1e-15
    assert out["verdict"] == "entangled"


@pytest.mark.parametrize("branch", ["real", "imag"])
def test_cmd_gaussian_weak_coupling_is_entangled(capsys, branch):
    # E^2 = 2.5e-19 read 0.0, and the verdict "separable".
    assert main(["gaussian", "--a", "1", "--b", "1", "--c", "1e-9", "--branch", branch]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["E2"] - 2.5e-19) <= 1e-15 * 2.5e-19
    assert out["verdict"] == "entangled"


@pytest.mark.parametrize("branch", ["real", "imag"])
@pytest.mark.parametrize("c, verdict", [("1e-13", "separable"), ("1.9e-12", "separable"),
                                        ("2.1e-12", "entangled"), ("1e-11", "entangled")])
def test_cmd_gaussian_verdict_is_the_cross_block_criterion(capsys, branch, c, verdict):
    # The cross entry c/2 against CROSS_BLOCK_TOL = 1e-12: the verdict was
    # "entangled" whenever E2 > 0, and the library's criterion "separable".
    assert main(["gaussian", "--a", "1", "--b", "1", "--c", c, "--branch", branch]) == 0
    out = json.loads(capsys.readouterr().out)
    half = float(c) / 2 * (1j if branch == "imag" else 1)
    A = [[1.0, half], [half, 1.0]]
    assert out["verdict"] == verdict == cv.gaussian_separability(A, Bipartition(2, (0,))).verdict
    assert abs(out["E2"] - float(c) ** 2 / 4) <= 1e-15 * out["E2"]


def test_cmd_gaussian_accepts_a_and_b_far_from_1(capsys):
    # a = b = 1e200 was refused as non-finite, since 4ab overflows.
    for a, expected in [("1e200", 1e100), ("1e-300", 1e-150)]:
        assert main(["gaussian", "--a", a, "--b", a, "--c", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["E2"] == 0.0 and out["verdict"] == "separable"
        assert abs(out["norm"] - expected / math.sqrt(math.pi)) <= 1e-15 * out["norm"]


def test_cmd_gaussian_verdict_does_not_depend_on_units(capsys):
    # r = |c| / (2 sqrt(ab)) = 0.05 at every scale; the verdict read
    # "separable" at a = b = 1e-300.
    for a, c in [("1e-300", "1e-301"), ("1", "0.1"), ("1e300", "1e299")]:
        assert main(["gaussian", "--a", a, "--b", a, "--c", c]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["E2"] - 0.0025) < 1e-3 and out["verdict"] == "entangled"


def test_cmd_gaussian_unphysical_exit_code(capsys):
    assert main(["gaussian", "--a", "1", "--b", "1", "--c", "2"]) == 1
    assert "normalizable" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--a", "inf", "--b", "1", "--c", "0"],
    ["--a", "1", "--b", "nan", "--c", "0"],
    ["--a", "1", "--b", "1", "--c", "inf", "--branch", "imag"],
])
def test_cmd_gaussian_rejects_non_finite_input(capsys, argv):
    assert main(["gaussian", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("bounds", [
    ["--c-min", "nan", "--c-max", "1"],
    ["--c-min", "0", "--c-max", "inf"],
    ["--c-min=-inf", "--c-max", "0"],
    ["--a", "inf", "--c-min", "0", "--c-max", "1"],
])
@pytest.mark.parametrize("steps", ["1", "5"])
def test_cmd_sweep_rejects_non_finite_input(tmp_path, capsys, bounds, steps):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--a", "1", "--b", "1", "--steps", steps, "--out", str(out), *bounds]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err
    assert not out.exists()


def test_cmd_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--a", "1", "--b", "1", "--branch", "real",
            "--c-min", "-1.99", "--c-max", "1.99", "--steps", "399",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    lines = first.decode().strip().splitlines()
    assert lines[0] == "c,E2,norm"
    assert len(lines) == 400
    # 17 significant digits: re-parsing reproduces the closed form exactly.
    for line in lines[1:][::40]:
        c, e2, norm = (float(tok) for tok in line.split(","))
        spec = cv.TwoModeGaussianSpec(1.0, 1.0, c)
        assert e2 == cv.closed_form_concurrence(spec)
        assert norm == cv.closed_form_normalization(spec)
    # Deterministic byte-identical reruns.
    assert main(args) == 0
    assert out.read_bytes() == first


def test_cmd_sweep_single_step(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["sweep", "--a", "1", "--b", "1", "--branch", "imag",
                 "--c-min", "3", "--c-max", "9", "--steps", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("3,")


def test_cmd_sweep_rejects_bad_steps(tmp_path, capsys):
    assert main(["sweep", "--a", "1", "--b", "1", "--branch", "real",
                 "--c-min", "0", "--c-max", "1", "--steps", "0",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_cmd_concurrence_product_state(tmp_path, capsys):
    state = random_product_state(np.random.default_rng(5))
    path = tmp_path / "prod.json"
    save_grid_state(state, path)
    assert main(["concurrence", str(path), "--M", "0", "--routes", "A,B,C,Lambda"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "separable"
    for key in ("route_A_wedge", "route_B_overlap", "route_C_purity", "route_Lambda"):
        assert abs(out[key]) < 1e-10


DEFAULT_CONCURRENCE_KEYS = {
    "route_B_overlap", "route_C_purity", "route_Lambda", "E2", "entropy", "schmidt_rank",
    "max_pairwise_gap", "verdict", "mass_defect",
}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def default_concurrence(capsys, path, members, state):
    """The default `cvconc concurrence` output, parsed with NaN and Infinity
    refused, after checking E2 against route B and the SVD oracle."""
    assert main(["concurrence", str(path), "--M", members]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert set(out) == DEFAULT_CONCURRENCE_KEYS
    bipartition = Bipartition.parse(members, state.n)
    assert abs(out["E2"] - out["route_B_overlap"]) < 1e-12
    assert abs(out["E2"] - oracles.schmidt_e2(state, bipartition)) < 1e-12
    assert (out["verdict"] == "entangled") == (out["schmidt_rank"] >= 2)
    return out


def one_node_state():
    # All amplitude on one node: the Schmidt weights are 1 and exact zeros,
    # which must not reach the logarithm of the entropy.
    amp = np.zeros((6, 5), dtype=complex)
    amp[2, 3] = 1.0
    return GridState.from_amplitudes((GridAxis(-3.0, 3.0, 6), GridAxis(-3.0, 3.0, 5)), amp)


@pytest.mark.parametrize("make", [lambda: random_product_state(np.random.default_rng(5)),
                                  one_node_state], ids=["random", "one_node"])
def test_cmd_concurrence_default_output_product_state(tmp_path, capsys, make):
    state = make()
    path = tmp_path / "prod.json"
    save_grid_state(state, path)
    out = default_concurrence(capsys, path, "0", state)
    assert abs(out["entropy"]) < 1e-12
    assert out["schmidt_rank"] == 1
    assert out["verdict"] == "separable"


def test_cmd_concurrence_entropy_of_product_states_is_never_negative(tmp_path, capsys):
    # On most of these states the largest Schmidt weight rounds above 1, which
    # makes -sum w ln w come out as -0.0 or -4e-16 unless it is clamped.
    rng = np.random.default_rng(2024)
    path = tmp_path / "prod.json"
    for _ in range(40):
        save_grid_state(random_product_state(rng), path)
        assert main(["concurrence", str(path), "--M", "0"]) == 0
        entropy = json.loads(capsys.readouterr().out)["entropy"]
        assert entropy >= 0.0 and math.copysign(1.0, entropy) == 1.0


def test_cmd_concurrence_default_output_weakly_entangled_gaussian(tmp_path, capsys):
    # a = b = 1, c = 0.01: E^2 is about 2.5e-5, sigma_2^2 about 6e-6.
    path = gaussian_file(tmp_path, 0.01)
    state = cv.discretize(load_state(path), [GridAxis(-8.0, 8.0, 64)] * 2)
    out = default_concurrence(capsys, path, "0", state)
    assert out["verdict"] == "entangled"
    assert out["schmidt_rank"] >= 2
    assert out["entropy"] > 0.0


@pytest.mark.parametrize("members", ["0", "0,2"])
def test_cmd_concurrence_default_output_three_modes(tmp_path, capsys, members):
    rng = np.random.default_rng(29)
    axes = (GridAxis(-8.0, 8.0, 16),) * 3
    state = GridState.from_amplitudes(axes, rng.normal(size=(16,) * 3)
                                      + 1j * rng.normal(size=(16,) * 3))
    path = tmp_path / "tri.json"
    save_grid_state(state, path)
    out = default_concurrence(capsys, path, members, state)
    assert out["schmidt_rank"] == 16


@pytest.mark.parametrize("members", ["0", "1"])
def test_cmd_concurrence_default_output_thin_splits(tmp_path, capsys, members):
    # An axis has at least two points, so 2 x 64 and 64 x 2 are the thinnest
    # splits a state file can give.
    rng = np.random.default_rng(31)
    axes = (GridAxis(-2.0, 2.0, 2), GridAxis(-4.0, 4.0, 64))
    state = GridState.from_amplitudes(axes, rng.normal(size=(2, 64))
                                      + 1j * rng.normal(size=(2, 64)))
    path = tmp_path / "thin.json"
    save_grid_state(state, path)
    out = default_concurrence(capsys, path, members, state)
    assert out["schmidt_rank"] == 2


def test_cmd_concurrence_gaussian_file(tmp_path, capsys):
    path = gaussian_file(tmp_path, 1.0)
    assert main(["concurrence", path, "--M", "0", "--grid", "48", "--box", "6",
                 "--routes", "A,B,C,Lambda,D,E"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["route_B_overlap"] - (2.0 - np.sqrt(3.0))) < 2e-3
    assert out["max_pairwise_gap"] < 1e-6
    assert out["verdict"] == "entangled"


def test_cmd_concurrence_noncontiguous_bipartition(tmp_path, capsys):
    rng = np.random.default_rng(7)
    axes = (GridAxis(-2.0, 2.0, 4), GridAxis(-2.0, 2.0, 5), GridAxis(-2.0, 2.0, 4))
    amp = rng.normal(size=(4, 5, 4)) + 1j * rng.normal(size=(4, 5, 4))
    state = GridState.from_amplitudes(axes, amp)
    path = tmp_path / "tri.json"
    save_grid_state(state, path)
    assert main(["concurrence", str(path), "--M", "0,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    expected = cv.concurrence_route_B(state, Bipartition(3, (0, 2)))
    assert abs(out["route_B_overlap"] - expected) < 1e-12


def test_cmd_concurrence_unknown_route(tmp_path, capsys):
    path = gaussian_file(tmp_path, 0.0)
    assert main(["concurrence", path, "--M", "0", "--routes", "Z"]) == 1


def test_cmd_concurrence_routes_checked_before_loading(tmp_path, capsys, monkeypatch):
    # A bad route name fails before the state file is read or any route runs.
    assert main(["concurrence", "/nonexistent/state.json", "--M", "0",
                 "--routes", "A,Z"]) == 1
    assert "unknown route 'Z'" in capsys.readouterr().err
    calls = []
    monkeypatch.setattr(cv.concurrence, "concurrence_route_A", lambda *a: calls.append(a))
    path = gaussian_file(tmp_path, 0.0)
    assert main(["concurrence", path, "--M", "0", "--routes", "A,Z"]) == 1
    assert calls == []


def test_cmd_concurrence_runs_a_route_named_twice_once(tmp_path, capsys, monkeypatch):
    calls, original = [], cv.concurrence.concurrence_route_A

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cv.concurrence, "concurrence_route_A", counting)
    path = gaussian_file(tmp_path, 0.5)
    assert main(["concurrence", path, "--M", "0", "--grid", "16", "--routes", "A,A,B"]) == 0
    assert len(calls) == 1
    keys = list(json.loads(capsys.readouterr().out))
    assert keys[:2] == ["route_A_wedge", "route_B_overlap"] and "route_C_purity" not in keys


@pytest.mark.parametrize("routes", ["", ",", " , "])
def test_cmd_concurrence_empty_route_list(tmp_path, capsys, monkeypatch, routes):
    # No route to run is an input error, raised before the state is loaded.
    loads = []
    monkeypatch.setattr(cv.serialization, "load_state", lambda *a: loads.append(a))
    path = gaussian_file(tmp_path, 0.0)
    assert main(["concurrence", path, "--M", "0", "--routes", routes]) == 1
    captured = capsys.readouterr()
    assert "no route given" in captured.err
    assert captured.out == ""
    assert loads == []


def test_cmd_concurrence_non_finite_input(tmp_path, capsys):
    payload = {
        "axes": [{"min": -2.0, "max": 2.0, "points": 8}] * 2,
        "amplitudes_real": [float("nan")] * 64,
        "amplitudes_imag": [0.0] * 64,
    }
    path = write_json(tmp_path / "nan.json", payload)
    assert main(["concurrence", path, "--M", "0", "--routes", "A,B"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err
    gaussian = {"n": 2, "A_real": [[1.0, float("inf")], [float("inf"), 1.0]],
                "A_imag": [[0.0, 0.0], [0.0, 0.0]]}
    path = write_json(tmp_path / "inf.json", gaussian)
    assert main(["concurrence", path, "--M", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_cmd_concurrence_every_route_beyond_the_verify_cap(tmp_path, capsys):
    # 70 x 70 = 4900 exceeds the dense-operator cap of 4096 that only
    # build_rho_pt keeps; no route builds a dense operator, so all six run.
    rng = np.random.default_rng(53)
    axes = (GridAxis(-4.0, 4.0, 70),) * 2
    amp = rng.normal(size=(70, 70)) + 1j * rng.normal(size=(70, 70))
    path = tmp_path / "grid70.json"
    save_grid_state(GridState.from_amplitudes(axes, amp), path)
    argv = ["concurrence", str(path), "--M", "0", "--routes", "A,B,C,Lambda,D,E"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_pairwise_gap"] < 1e-9
    assert {key for key, _ in cv.concurrence.ROUTES.values()} <= set(out)


def test_cmd_concurrence_missing_file(capsys):
    assert main(["concurrence", "/nonexistent/state.json", "--M", "0"]) == 1


def test_cmd_verify_random_state(tmp_path, capsys):
    state = random_grid_state(np.random.default_rng(11))
    path = tmp_path / "rand.json"
    save_grid_state(state, path)
    assert main(["verify", str(path), "--M", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "pass"
    assert all(check["passed"] for check in report["checks"])


def test_cmd_verify_separable_consistency(tmp_path, capsys):
    state = random_product_state(np.random.default_rng(13))
    path = tmp_path / "prod.json"
    save_grid_state(state, path)
    assert main(["verify", str(path), "--M", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {check["name"] for check in report["checks"]}
    assert "ppt_positive_for_separable" in names
    assert "lambda_invariance_for_separable" in names
    assert "entropy_vanishes_when_separable" in names


def test_cmd_verify_corrupted_norm_exit_2(tmp_path, capsys):
    state = random_grid_state(np.random.default_rng(17))
    payload = grid_state_to_dict(state)
    payload["amplitudes_real"] = [0.9 * v for v in payload["amplitudes_real"]]
    payload["amplitudes_imag"] = [0.9 * v for v in payload["amplitudes_imag"]]
    path = write_json(tmp_path / "corrupt.json", payload)
    assert main(["verify", path, "--M", "0"]) == 2
    assert "norm" in capsys.readouterr().err


def test_cmd_factor_product_gaussian(tmp_path, capsys):
    path = gaussian_file(tmp_path, 0.0)
    out_m = tmp_path / "m.json"
    out_rest = tmp_path / "rest.json"
    assert main(["factor", path, "--M", "0", "--grid", "32", "--box", "6",
                 "--out-m", str(out_m), "--out-rest", str(out_rest)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["reconstruction_error"] < 1e-9
    fm = load_state(out_m)
    fr = load_state(out_rest)
    assert fm.n == 1 and fr.n == 1
    # The factors are single-mode Gaussians: constant log-amplitude curvature.
    mags = np.abs(fm.amplitudes)
    ratio = np.log(mags[1:-1] ** 2 / (mags[:-2] * mags[2:]))
    assert np.max(np.abs(ratio - ratio[0])) < 1e-6


def test_cmd_factor_entangled_exit_1(tmp_path, capsys):
    path = gaussian_file(tmp_path, 1.0)
    assert main(["factor", path, "--M", "0", "--grid", "32", "--box", "6",
                 "--out-m", str(tmp_path / "m.json"),
                 "--out-rest", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "entangled" in err and "witness" in err


def test_cmd_factor_output_not_factorable_again(tmp_path, capsys):
    # Factor outputs are single-axis states; asking to bipartition one is
    # rejected as an input error.
    path = gaussian_file(tmp_path, 0.0)
    out_m = tmp_path / "m.json"
    out_rest = tmp_path / "rest.json"
    assert main(["factor", path, "--M", "0", "--grid", "32", "--box", "6",
                 "--out-m", str(out_m), "--out-rest", str(out_rest)]) == 0
    capsys.readouterr()
    assert main(["factor", str(out_m), "--M", "0",
                 "--out-m", str(tmp_path / "a.json"),
                 "--out-rest", str(tmp_path / "b.json")]) == 1


def _strip_seconds(out):
    # verify's per-check "seconds" are wall times, the one field that differs
    # between two runs of the same command.
    report = json.loads(out)
    for check in report.get("checks", ()):
        check.pop("seconds")
    return report


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    from cvconc.cli import build_parser

    assert build_parser() is build_parser()
    grid = tmp_path / "grid.json"
    save_grid_state(random_grid_state(np.random.default_rng(19)), grid)
    product = tmp_path / "prod.json"
    save_grid_state(random_product_state(np.random.default_rng(23)), product)
    calls = [
        ["concurrence", str(grid), "--M", "0"],
        ["concurrence", str(grid), "--M", "0", "--no-such-option"],
        ["verify", str(grid), "--M", "0"],
        ["factor", str(product), "--M", "0", "--out-m", str(tmp_path / "m.json"),
         "--out-rest", str(tmp_path / "r.json")],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = _strip_seconds(captured.out) if captured.out else None
        return code, out, captured.err

    one_process = [run(argv) for argv in calls]
    assert [code for code, _, _ in one_process] == [0, 2, 0, 0]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert one_process == fresh


def test_console_entry_point():
    # The child gets a bare environment, plus the path of the cvconc this
    # process imported, so it runs the same code installed or not.
    package_root = os.path.dirname(os.path.dirname(cv.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "cvconc.cli", "gaussian", "--a", "1", "--b", "1", "--c", "0"],
        capture_output=True, text=True,
        env={"PATH": "", "OMP_NUM_THREADS": "1", "PYTHONPATH": package_root},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["verdict"] == "separable"


# Each command's options: dest -> (option strings, required, default).
STATE_OPTIONS = {"state": ([], True, None), "M": (["--M"], True, None),
                 "box": (["--box"], False, 8.0)}
COUPLING = {"a": (["--a"], True, None), "b": (["--b"], True, None),
            "branch": (["--branch"], False, "real")}
COMMAND_OPTIONS = {
    "gaussian": {**COUPLING, "c": (["--c"], True, None)},
    "sweep": {**COUPLING, "c_min": (["--c-min"], True, None), "c_max": (["--c-max"], True, None),
              "steps": (["--steps"], True, None), "out": (["--out"], True, None)},
    "concurrence": {**STATE_OPTIONS, "grid": (["--grid"], False, 64),
                    "routes": (["--routes"], False, "B,C,Lambda")},
    "verify": {**STATE_OPTIONS, "grid": (["--grid"], False, 32)},
    "factor": {**STATE_OPTIONS, "grid": (["--grid"], False, 64),
               "out_m": (["--out-m"], True, None), "out_rest": (["--out-rest"], True, None)},
}


def test_each_command_declares_its_options():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == set(COMMAND_OPTIONS)
    for name, expected in COMMAND_OPTIONS.items():
        declared = {action.dest: (action.option_strings, action.required, action.default)
                    for action in commands[name]._actions if action.dest != "help"}
        assert declared == expected, name


@pytest.mark.parametrize("command, extra, grid", [
    ("concurrence", [], 64),
    ("verify", [], 32),
    ("factor", ["--out-m", "m.json", "--out-rest", "r.json"], 64),
])
def test_state_commands_parse_their_own_grid_default(command, extra, grid):
    # The three commands share one declaration of these options; a default
    # set on one command's copy must not reach the others.
    args = build_parser().parse_args([command, "s.json", "--M", "0,2", *extra])
    assert (args.state, args.M, args.grid, args.box) == ("s.json", "0,2", grid, 8.0)
    args = build_parser().parse_args([command, "s.json", "--M", "1", "--grid", "12",
                                      "--box", "5.5", *extra])
    assert (args.grid, args.box) == (12, 5.5)


@pytest.mark.parametrize("command, extra", [
    ("concurrence", []),
    ("verify", []),
    ("factor", ["--out-m", "m.json", "--out-rest", "r.json"]),
])
def test_bad_split_of_a_gaussian_fails_before_sampling(tmp_path, capsys, monkeypatch,
                                                       command, extra):
    calls = []
    sample = cv.states.discretize
    monkeypatch.setattr(cv.states, "discretize", lambda *a: calls.append(a) or sample(*a))
    A = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])
    path = write_json(tmp_path / "g3.json", gaussian_to_dict(GaussianPureState(A)))
    extra = [str(tmp_path / name) if name.endswith(".json") else name for name in extra]
    assert main([command, path, "--M", "3", "--grid", "12", "--box", "5", *extra]) == 1
    assert "members must lie in 0..2" in capsys.readouterr().err
    assert calls == []
    # The same file with a valid split is sampled once.
    assert main([command, path, "--M", "2", "--grid", "12", "--box", "5", *extra]) == 0
    assert len(calls) == 1
