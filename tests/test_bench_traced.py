"""Each benchmark workload, run for one traced pass, checks out correct.

A traced run reads the arguments of the functions it counts
(`concurrence._wedge_sum_and_max`, `transpose._pt_matrix`, `load_state`,
`save_grid_state`) and checks that each pass's self times add up, so it can
fail where an untraced run passes. Such a failure can show at one seed and
not another, so each workload runs at three; seed 11 keeps the bare workload
id. Its trace file goes to the git-ignored bench/_out/. A traced `cli-verify`
pass must also show a span for the routes and checks it runs, so that no
private twin of a public function hides one from the trace.
"""

import json
import pathlib
import subprocess
import sys

import pytest

BENCH_RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"
WORKLOADS = ("cli-concurrence", "cli-verify", "lib-corpus")
# The routes and checks `cvconc verify` runs through concurrence.ROUTES and
# run_verification; each public function's span must show in the trace.
VERIFY_SPANS = ("concurrence.route_A.s", "transpose.route_D.s", "transpose.route_E.s",
                "spectral.hs_identity_gap.s", "transpose.pt_square_factorization_gap.s")


def traced_pass(workload, seed):
    argv = [sys.executable, str(BENCH_RUN), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not BENCH_RUN.is_file(), reason="no bench/ in this checkout")
@pytest.mark.parametrize("workload, seed", [
    pytest.param(workload, seed, id=workload if seed == 11 else f"{workload}-seed{seed}")
    for seed in (11, 97, 523) for workload in WORKLOADS
])
def test_traced_pass_is_correct(workload, seed):
    done, result = traced_pass(workload, seed)
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0


@pytest.mark.skipif(not BENCH_RUN.is_file(), reason="no bench/ in this checkout")
def test_traced_verify_pass_shows_every_route_and_check():
    _, result = traced_pass("cli-verify", 11)
    silent = [name for name in VERIFY_SPANS if not result["metrics"][name]["value"] > 0.0]
    assert silent == []
