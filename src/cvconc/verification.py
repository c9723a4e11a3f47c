"""Machine-readable verification of every identity the framework guarantees."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import concurrence as conc
from . import spectral, transpose
from .states import Bipartition, GridState, split
from .wedge import lagrange_identity_gap

SEPARABLE_E2 = 1e-10
ENTANGLED_E2 = 1e-3


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, name: str, measured: float, tolerance: float, passed=None):
        if passed is None:
            passed = abs(measured) <= tolerance
        self.checks.append(
            {"name": name, "measured": float(measured), "tolerance": float(tolerance),
             "passed": bool(passed)}
        )

    @property
    def overall(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {"checks": self.checks, "overall": "pass" if self.overall else "fail"}


def run_verification(state: GridState, bipartition: Bipartition) -> VerificationReport:
    sp = split(state, bipartition)
    # The partial-transpose checks build dense operators; an over-size split
    # fails here, before any route runs.
    transpose._check_operator_size(*sp.G.shape)
    report = VerificationReport()

    report.add("normalization", state.norm_squared - 1.0, 1e-9)

    # Lagrange identity on the two largest member-block slices.
    F, wrest = sp.F, sp.wrest
    norms = (np.abs(F) ** 2) @ wrest
    top = np.argsort(norms)[-2:]
    scale = max(norms[top[0]] * norms[top[1]], 1e-300)
    gap = lagrange_identity_gap(F[top[0]], F[top[1]], wrest) / scale
    report.add("lagrange_identity", gap, 1e-12)

    routes, route_gap = conc._route_values(sp, conc.ROUTES)
    report.add("route_agreement", route_gap, 1e-9)
    e2 = routes["route_B_overlap"]

    # The one dense partial transpose of the run, shared by the checks below.
    pt = transpose._pt_matrix(sp.G)
    report.add("trace_rho_pt", np.trace(pt).real - 1.0, 1e-10)
    report.add("trace_rho_pt_squared", float(np.sum(pt * pt.T).real) - 1.0, 1e-10)
    report.add("pt_square_factorization", transpose._pt_square_gap(sp.G, pt), 1e-10)

    rd = spectral._reduce(sp)
    hs_gap = spectral._hs_gap(routes["route_D_hilbert_schmidt"], spectral.purity(rd))
    report.add("hs_identity", hs_gap, 1e-10)

    entropy = spectral.von_neumann_entropy(rd)
    report.add("entropy_bound", max(0.0, e2 / 2.0 - entropy), 1e-9)
    if e2 < SEPARABLE_E2:
        report.add("entropy_vanishes_when_separable", entropy, 1e-9)

    # Between the two thresholds no PPT check is reported, so none is solved.
    if e2 < SEPARABLE_E2:
        min_eig = transpose._ppt_min(pt)
        report.add("ppt_positive_for_separable", min_eig, 1e-8, passed=min_eig >= -1e-8)
        report.add("lambda_invariance_for_separable", transpose._lambda_gap(sp.F), 1e-9)
    elif e2 > ENTANGLED_E2:
        min_eig = transpose._ppt_min(pt)
        report.add("ppt_negative_for_entangled", min_eig, 1e-6, passed=min_eig < -1e-6)

    return report
