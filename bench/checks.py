"""Checks of cvconc outputs against the independent references of inputs.py.

Each check returns a list of problems; an empty list means the output is
correct.  Nothing here imports cvconc: outputs are read as the JSON the CLI
prints, the files `factor` writes, or the plain numbers and arrays the
library returns.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Every route value must match the SVD reference to this (absolute).
ROUTE_TOL = 1e-9
# A reported PPT minimum eigenvalue must match -s1 s2 to this (absolute).
PPT_TOL = 1e-9
# Factors must rebuild the input to this, relative to its largest amplitude.
REBUILD_TOL = 1e-9
# family_measure for p = 1 and p = inf, relative to max(|reference|, 1):
# product states give values at round-off, where a relative test means nothing.
FAMILY_TOL = 1e-9

ROUTE_KEYS = ("route_A_wedge", "route_B_overlap", "route_C_purity", "route_Lambda",
              "route_D_hilbert_schmidt", "route_E_pt_fourth")


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def parse_json(text: str):
    """Strict JSON: NaN and Infinity are refused, as any JSON reader would."""
    return json.loads(text, parse_constant=_reject_constant)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_e2(name: str, value, ref) -> list:
    if not _is_number(value):
        return [f"{name}: {value!r} is not a finite number"]
    problems = []
    if abs(value - ref.e2) > ROUTE_TOL:
        problems.append(f"{name}: {value!r} differs from E2_ref {ref.e2!r} "
                        f"by more than {ROUTE_TOL}")
    if ref.closed_form is not None and abs(value - ref.closed_form) > ref.closed_form_tol:
        problems.append(f"{name}: {value!r} differs from the closed form {ref.closed_form!r} "
                        f"by more than {ref.closed_form_tol}")
    return problems


def check_verdict(verdict, ref) -> list:
    if verdict != ref.verdict:
        return [f"verdict {verdict!r}, expected {ref.verdict!r} "
                f"(second Schmidt weight {ref.schmidt2:.3g})"]
    return []


def _exit_code(rc, stderr: str) -> list:
    if rc != 0:
        first = stderr.strip().splitlines()[:1]
        return [f"exit code {rc}: {first[0] if first else 'no message'}"]
    return []


def check_concurrence(rc, stdout: str, stderr: str, ref) -> list:
    problems = _exit_code(rc, stderr)
    if problems:
        return problems
    try:
        out = parse_json(stdout)
    except ValueError as exc:
        return [f"output is not valid JSON: {exc}"]
    routes = [key for key in ROUTE_KEYS if key in out]
    if not routes:
        problems.append("no route values in the output")
    for key in routes:
        problems += check_e2(key, out[key], ref)
    problems += check_verdict(out.get("verdict"), ref)
    return problems


def check_verify(rc, stdout: str, stderr: str, ref) -> list:
    problems = _exit_code(rc, stderr)
    if problems:
        return problems
    try:
        out = parse_json(stdout)
    except ValueError as exc:
        return [f"output is not valid JSON: {exc}"]
    if out.get("overall") != "pass":
        failed = [c.get("name") for c in out.get("checks", []) if not c.get("passed")]
        problems.append(f"overall {out.get('overall')!r}; failed checks {failed}")
    for check in out.get("checks", []):
        if check.get("name", "").startswith("ppt_"):
            value = check.get("measured")
            if not _is_number(value) or abs(value - ref.ppt_min) > PPT_TOL:
                problems.append(f"{check['name']}: {value!r}, expected -s1 s2 = {ref.ppt_min!r}")
    return problems


def check_rebuild(factor_m, factor_rest, ref) -> list:
    """The outer product of the two factors must rebuild the member x
    complement amplitude block."""
    rebuilt = np.multiply.outer(np.ravel(factor_m), np.ravel(factor_rest))
    if rebuilt.shape != ref.block.shape:
        return [f"factor shapes give {rebuilt.shape}, expected {ref.block.shape}"]
    err = float(np.max(np.abs(rebuilt - ref.block)))
    scale = float(np.max(np.abs(ref.block)))
    if not err <= REBUILD_TOL * scale:
        return [f"factors rebuild the input with max error {err:.3g} (scale {scale:.3g})"]
    return []


def read_grid_amplitudes(path) -> np.ndarray:
    with open(path) as fh:
        doc = parse_json(fh.read())
    shape = tuple(int(ax["points"]) for ax in doc["axes"])
    re = np.asarray(doc["amplitudes_real"], dtype=float)
    im = np.asarray(doc["amplitudes_imag"], dtype=float)
    return (re + 1j * im).reshape(shape)


def check_factor(rc, stdout: str, stderr: str, ref, m_path, rest_path) -> list:
    problems = _exit_code(rc, stderr)
    if problems:
        return problems
    if ref.verdict != "separable":
        return ["factor succeeded on an entangled state"]
    try:
        return check_rebuild(read_grid_amplitudes(m_path), read_grid_amplitudes(rest_path), ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read the factor files: {exc}"]


def check_report(prefix: str, report: dict, verdict, ref) -> list:
    problems = []
    for key, value in report.items():
        problems += check_e2(f"{prefix}{key}", value, ref)
    return problems + check_verdict(verdict, ref)


def check_lib(result: dict, ref, gh_ref=None) -> list:
    """result holds what one lib-corpus pass returned for one state:
    report (route name -> value), report_verdict, verdict, factors (or None),
    routes (C, D, E), family (p -> value) and, for Gaussians, numeric (route
    name -> value) with numeric_verdict."""
    problems = check_report("report.", result["report"], result["report_verdict"], ref)
    problems += check_verdict(result["verdict"], ref)
    if result["verdict"] == "separable" and ref.verdict == "separable":
        problems += check_rebuild(*result["factors"], ref)
    for name, value in result["routes"].items():
        problems += check_e2(f"route_{name}", value, ref)
    problems += check_e2("family_p2", result["family"][2], ref)
    for p in (1, "inf"):
        value, expected = result["family"][p], ref.family[p]
        if not _is_number(value) or abs(value - expected) > FAMILY_TOL * max(abs(expected), 1.0):
            problems.append(f"family_p{p}: {value!r}, expected {expected!r}")
    if gh_ref is not None:
        problems += check_report("numeric.", result["numeric"], result["numeric_verdict"], gh_ref)
    return problems
