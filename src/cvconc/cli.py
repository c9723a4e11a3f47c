"""Command-line interface: closed-form evaluation, parameter sweeps,
concurrence reports, identity verification, and factorization of separable
states.

Exit codes: 0 success, 1 input or physical-parameter error, 2 state-validity
error, 3 internal-consistency or verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STATE = 2
EXIT_VERIFY = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main()
    call: parsing leaves it unchanged."""
    from .concurrence import DEFAULT_ROUTES

    parser = argparse.ArgumentParser(
        prog="cvconc",
        description="Generalized concurrence for pure continuous-variable states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gaussian", help="closed-form two-mode concurrence")
    g.add_argument("--a", type=float, required=True)
    g.add_argument("--b", type=float, required=True)
    g.add_argument("--c", type=float, required=True)
    g.add_argument("--branch", choices=["real", "imag"], default="real")

    s = sub.add_parser("sweep", help="closed-form sweep over the coupling, CSV output")
    s.add_argument("--a", type=float, required=True)
    s.add_argument("--b", type=float, required=True)
    s.add_argument("--branch", choices=["real", "imag"], default="real")
    s.add_argument("--c-min", type=float, required=True)
    s.add_argument("--c-max", type=float, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--out", required=True)

    c = sub.add_parser("concurrence", help="multi-route concurrence report for a state file")
    c.add_argument("state")
    c.add_argument("--M", required=True, help="comma-separated member axis indices")
    c.add_argument("--routes", default=",".join(DEFAULT_ROUTES))
    c.add_argument("--grid", type=int, default=64, help="points per axis for Gaussian input")
    c.add_argument("--box", type=float, default=8.0, help="half-width of the Gaussian grid")

    v = sub.add_parser("verify", help="run every identity check on a state file")
    v.add_argument("state")
    v.add_argument("--M", required=True)
    v.add_argument("--grid", type=int, default=32)
    v.add_argument("--box", type=float, default=8.0)

    f = sub.add_parser("factor", help="factor a separable state into sub-states")
    f.add_argument("state")
    f.add_argument("--M", required=True)
    f.add_argument("--out-m", required=True)
    f.add_argument("--out-rest", required=True)
    f.add_argument("--grid", type=int, default=64)
    f.add_argument("--box", type=float, default=8.0)

    return parser


def _load_grid(args):
    from .serialization import load_state
    from .states import Bipartition, GaussianPureState, GridAxis, discretize

    state = load_state(args.state)
    if isinstance(state, GaussianPureState):
        axes = [GridAxis(-args.box, args.box, args.grid)] * state.n
        state = discretize(state, axes)
    bipartition = Bipartition.parse(args.M, state.n)
    return state, bipartition


def cmd_gaussian(args) -> int:
    from .gaussian import (
        TwoModeGaussianSpec,
        closed_form_concurrence,
        closed_form_normalization,
    )

    c = 1j * args.c if args.branch == "imag" else args.c
    spec = TwoModeGaussianSpec(args.a, args.b, c)
    e2 = closed_form_concurrence(spec)
    result = {
        "E2": e2,
        "norm": closed_form_normalization(spec),
        "verdict": "separable" if e2 == 0.0 else "entangled",
    }
    print(json.dumps(result))
    return EXIT_OK


def cmd_sweep(args) -> int:
    import numpy as np

    from .gaussian import sweep_concurrence

    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.all(np.isfinite([args.c_min, args.c_max])):
        raise ValueError("--c-min and --c-max must be finite")
    if args.steps == 1:
        values = [args.c_min]
    else:
        values = np.linspace(args.c_min, args.c_max, args.steps).tolist()
    rows = sweep_concurrence(args.a, args.b, args.branch, values)
    with open(args.out, "w") as fh:
        fh.write("c,E2,norm\n")
        for c, e2, norm in rows:
            fh.write(f"{c:.17g},{e2:.17g},{norm:.17g}\n")
    return EXIT_OK


def cmd_concurrence(args) -> int:
    from . import concurrence as conc

    wanted = [tok.strip() for tok in args.routes.split(",") if tok.strip()]
    if not wanted:
        raise ValueError("no route given; --routes takes a subset of " + ",".join(conc.ROUTES))
    conc._check_routes(wanted)
    state, bipartition = _load_grid(args)
    report = conc.concurrence_report(state, bipartition, routes=wanted)
    # The route keys first, then the report's fields but the threshold.
    out = {**report.routes, **vars(report)}
    del out["routes"], out["threshold"]
    print(json.dumps(out))
    if report.max_pairwise_gap > 1e-6:
        print("route disagreement beyond 1e-6", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verification import run_verification

    state, bipartition = _load_grid(args)
    report = run_verification(state, bipartition)
    print(json.dumps(report.to_dict()))
    return EXIT_OK if report.overall else EXIT_VERIFY


def cmd_factor(args) -> int:
    from .concurrence import decide_separability
    from .serialization import save_grid_state

    state, bipartition = _load_grid(args)
    cert = decide_separability(state, bipartition)
    if cert.verdict != "separable":
        w = cert.witness
        print(
            "state is entangled; witness slices "
            f"{w.slice_pair} at basis pair {w.basis_pair} "
            f"with weighted magnitude^2 {w.magnitude_sq:.6g}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    save_grid_state(cert.factor_m, args.out_m)
    save_grid_state(cert.factor_rest, args.out_rest)
    print(json.dumps({"reconstruction_error": cert.reconstruction_error}))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .errors import InputError, NumericError, StateValidityError

    handlers = {
        "gaussian": cmd_gaussian,
        "sweep": cmd_sweep,
        "concurrence": cmd_concurrence,
        "verify": cmd_verify,
        "factor": cmd_factor,
    }
    try:
        return handlers[args.command](args)
    except StateValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
