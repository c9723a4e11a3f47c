#!/usr/bin/env python3
"""Benchmark of cvconc: the CLI commands `concurrence`, `factor` and `verify`
called in process through cvconc.cli.main, and the library on a corpus of
small states.

    python3 bench/run.py --workload cli-concurrence --seed 1 --seconds 20 --trace 0

The run builds its inputs from the seed, runs the first operation of each
command once untimed, then repeats whole passes over the workload's fixed
list of operations until --seconds have passed, checks every output against
references computed without cvconc, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of bench/tracer.py.  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported: once numpy is
# loaded, neither this process nor cvconc's CVCONC_THREADS can change it.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CVCONC_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import program  # noqa: E402
import tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

# Set-up (import cvconc, build the CLI parser) is timed in this many fresh
# interpreters; numpy is already loaded here, so this process cannot time it.
SETUP_SAMPLES = 7
CHILD_SETUP = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cvconc.cli\n"
    "cvconc.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
# A traced pass's self times must add up to its measured operation time
# within the tracing overhead, or within this share of it when the overhead
# measures smaller.
TRACE_SUM_FLOOR = 0.01


def setup_in_children(n: int) -> list:
    src = program.source_dir(ROOT)
    samples = []
    for _ in range(n):
        done = subprocess.run([sys.executable, "-c", CHILD_SETUP, src], capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def blas_threads():
    """Thread count in force in the loaded OpenBLAS or MKL, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "/" in line and ("openblas" in line.lower() or "mkl_rt" in line)})
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


class Runner:
    """Runs the operations of one workload and checks their outputs."""

    def __init__(self, cvconc_modules, workdir: Path):
        self.cv = cvconc_modules
        self.workdir = workdir

    def prepare(self, op):
        """cvconc objects a library operation starts from, built once."""
        if op.lib is None:
            return None
        st = self.cv.states
        case = op.lib
        axes = tuple(st.GridAxis(lo, hi, p) for lo, hi, p in case.axes)
        bp = st.Bipartition(len(axes), case.members)
        if case.precision is not None:
            return None, st.GaussianPureState(np.asarray(case.precision, dtype=complex)), axes, bp
        return st.GridState(axes, case.amplitudes), None, axes, bp

    def run(self, op, prepared) -> tuple:
        """(seconds, problems) of one operation; an exception is a problem."""
        t0 = time.perf_counter()
        try:
            if op.lib is not None:
                return self._run_lib(op, prepared)
            return self._run_cli(op)
        except Exception as exc:  # the run goes on and reports the operation as failed
            return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]

    def _run_cli(self, op) -> tuple:
        argv = [str(self.workdir / a) if a.endswith(".json") else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cv.cli.main(argv)
        seconds = time.perf_counter() - t0
        stdout, stderr = out.getvalue(), err.getvalue()
        if op.command == "concurrence":
            problems = checks.check_concurrence(rc, stdout, stderr, op.ref)
        elif op.command == "verify":
            problems = checks.check_verify(rc, stdout, stderr, op.ref)
        else:
            problems = checks.check_factor(rc, stdout, stderr, op.ref,
                                           self.workdir / "factor-m.json",
                                           self.workdir / "factor-rest.json")
        return seconds, problems

    def _run_lib(self, op, prepared) -> tuple:
        cv, inf = self.cv, np.inf
        state, spec, axes, bp = prepared
        t0 = time.perf_counter()
        if spec is not None:
            state = cv.states.discretize(spec, axes)
        report = cv.concurrence.concurrence_report(state, bp)
        cert = cv.concurrence.decide_separability(state, bp)
        routes = {"C": cv.spectral.concurrence_route_C(state, bp),
                  "D": cv.transpose.concurrence_route_D(state, bp),
                  "E": cv.transpose.concurrence_route_E(state, bp)}
        family = {1: cv.concurrence.family_measure(state, bp, "identity", 1, 1),
                  2: cv.concurrence.family_measure(state, bp, "two_x_squared", 2, 1),
                  "inf": cv.concurrence.family_measure(state, bp, "identity", inf, 1)}
        numeric = None
        if op.lib.gh_points:
            rule = cv.quadrature.gauss_hermite_rule(op.lib.gh_points, 1.0, 2)
            numeric = cv.concurrence.concurrence_gaussian_numeric(spec, bp, rule)
        seconds = time.perf_counter() - t0
        result = {
            "report": report.values(), "report_verdict": report.verdict,
            "verdict": cert.verdict, "routes": routes, "family": family,
            "factors": (None if cert.factor_m is None
                        else (cert.factor_m.amplitudes, cert.factor_rest.amplitudes)),
        }
        if numeric is not None:
            result["numeric"] = numeric.values()
            result["numeric_verdict"] = numeric.verdict
        return seconds, checks.check_lib(result, op.ref, op.lib.gh_reference)


class Tally:
    """Operation times and outcomes of the counted passes."""

    def __init__(self):
        self.samples = []          # (size class, seconds, failed)
        self.unexpected = []       # (label, problems) of failures no known fault explains

    def record(self, op, seconds, problems, counted=True):
        if problems and not (op.known_fault
                             and all(p.startswith(op.fault_sign) for p in problems)):
            self.unexpected.append((op.label, problems))
        if counted:
            self.samples.append((op.size_class, seconds, bool(problems)))


def run_pass(runner, ops, prepared, tally, counted=True) -> float:
    """Run every operation once; return the summed operation seconds."""
    total = 0.0
    for op, prep in zip(ops, prepared):
        seconds, problems = runner.run(op, prep)
        tally.record(op, seconds, problems, counted)
        total += seconds
    return total


def warm_up(ops, prepared) -> tuple:
    """The first operation of each command, run once before timing so that
    lazy imports and first-call costs stay out of the measurement."""
    seen, chosen = set(), []
    for op, prep in zip(ops, prepared):
        kind = op.command or "lib"
        if kind not in seen:
            seen.add(kind)
            chosen.append((op, prep))
    return [op for op, _ in chosen], [prep for _, prep in chosen]


def end_to_end(tally, largest: str, setup_samples: list) -> dict:
    times = [s for _, s, _ in tally.samples]
    ok = sum(1 for _, _, failed in tally.samples if not failed)
    largest_times = [s for c, s, _ in tally.samples if c == largest]
    return {
        "states_per_s": {"value": ok / sum(times), "unit": "1/s"},
        "op_s.p50": {"value": statistics.median(times), "unit": "s"},
        "largest_s.p50": {"value": statistics.median(largest_times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def traced_run(runner, ops, prepared, tally, seconds, trace_path, env) -> dict:
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    recorder = tracer.Tracer()
    untraced, traced, sums, layer_totals, first_spans = [], [], [], {}, None
    start = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - start < seconds:
        for traced_now in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_now:
                recorder.install()
                try:
                    op_time = run_pass(runner, ops, prepared, tally)
                finally:
                    recorder.uninstall()
                metrics, self_sum, spans = recorder.take_pass()
                traced.append(op_time)
                sums.append((op_time, self_sum))
                for name, value in metrics.items():
                    layer_totals[name] = layer_totals.get(name, 0.0) + value
                if first_spans is None:
                    first_spans = spans
            else:
                untraced.append(run_pass(runner, ops, prepared, tally))
        pair += 1
    overhead = statistics.median(traced) - statistics.median(untraced)
    for op_time, self_sum in sums:
        allowed = max(abs(overhead), TRACE_SUM_FLOOR * op_time)
        if abs(op_time - self_sum) > allowed:
            tally.unexpected.append(("trace", [
                f"self times sum to {self_sum:.6f} s against {op_time:.6f} s measured "
                f"(allowed {allowed:.6f} s)"]))
    n = len(traced)
    metrics = {}
    for name in tracer.SELF_METRICS:
        metrics[name] = {"value": layer_totals[name] / n, "unit": "s"}
    for name, unit in tracer.COUNT_METRICS.items():
        metrics[name] = {"value": layer_totals[name] / n, "unit": unit}
    metrics[tracer.OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
    OUT_DIR.mkdir(exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"env": env, "traced_passes": n, "untraced_pass_s": untraced,
                   "traced_pass_s": traced, "metrics": metrics,
                   "counts_are_computed": sorted(tracer.COUNT_METRICS),
                   "span_fields": ["layer", "name", "start", "end", "parent", "child_s"],
                   "first_traced_pass_spans": first_spans}, fh)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cv = program.import_modules(ROOT)
    except program.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    workload = inputs.build(args.workload, args.seed)
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs.write_files(workload.files, workdir)
        runner = Runner(cv, workdir)
        ops = workload.ops
        prepared = [runner.prepare(op) for op in ops]
        tally = Tally()
        run_pass(runner, *warm_up(ops, prepared), tally, counted=False)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = traced_run(runner, ops, prepared, tally, args.seconds, trace_path, env)
        else:
            start = time.perf_counter()
            while not tally.samples or time.perf_counter() - start < args.seconds:
                run_pass(runner, ops, prepared, tally)
            setup = setup_in_children(SETUP_SAMPLES)
            metrics = end_to_end(tally, inputs.LARGEST_CLASS[args.workload], setup)
            by_class = {}
            for c, s, _ in tally.samples:
                by_class.setdefault(c, []).append(s)
            print(json.dumps({"class_median_s": {c: statistics.median(v)
                                                 for c, v in sorted(by_class.items())},
                              "passes": len(tally.samples) // len(ops),
                              "setup_samples_s": setup}), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, problems in tally.unexpected:
        print(f"unexpected failure: {label}: {'; '.join(problems)}", file=sys.stderr)
    failed = sum(1 for _, _, f in tally.samples if f)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not tally.unexpected, "attempted": len(tally.samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
