"""Each benchmark workload, run for one traced pass, checks out correct.

A traced run reads the arguments of the functions it counts
(`concurrence._wedge_sum_and_max`, `transpose._pt_matrix`, `load_state`,
`save_grid_state`) and checks that each pass's self times add up, so it can
fail where an untraced run passes. Its trace file goes to the git-ignored
bench/_out/.
"""

import json
import pathlib
import subprocess
import sys

import pytest

BENCH_RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.skipif(not BENCH_RUN.is_file(), reason="no bench/ in this checkout")
@pytest.mark.parametrize("workload", ["cli-concurrence", "cli-verify", "lib-corpus"])
def test_traced_pass_is_correct(workload):
    argv = [sys.executable, str(BENCH_RUN), "--workload", workload,
            "--seed", "11", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
