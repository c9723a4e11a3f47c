"""Machine-readable verification of every identity the framework guarantees."""

from __future__ import annotations

import time
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
    """Named checks in the order they ran; each records the wall time since
    the previous check was added, or since the report was created."""

    checks: list = field(default_factory=list)
    _mark: float = field(default_factory=time.perf_counter, init=False, repr=False,
                         compare=False)

    def add(self, name: str, measured: float, tolerance: float, passed=None):
        now = time.perf_counter()
        if passed is None:
            passed = abs(measured) <= tolerance
        self.checks.append(
            {"name": name, "measured": float(measured), "tolerance": float(tolerance),
             "passed": bool(passed), "seconds": now - self._mark}
        )
        self._mark = now

    @property
    def overall(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {"checks": self.checks, "overall": "pass" if self.overall else "fail"}


def run_verification(state: GridState, bipartition: Bipartition) -> VerificationReport:
    sp = split(state, bipartition)
    report = VerificationReport()

    report.add("normalization", state.norm_squared - 1.0, 1e-9)

    # Lagrange identity on the two largest member-block slices.
    F, wrest = sp.F, sp.wrest
    norms = (np.abs(F) ** 2) @ wrest
    top = np.argsort(norms)[-2:]
    scale = max(norms[top[0]] * norms[top[1]], 1e-300)
    gap = lagrange_identity_gap(F[top[0]], F[top[1]], wrest) / scale
    report.add("lagrange_identity", gap, 1e-12)

    # E2 from one SVD, checked against all six routes.
    answer = conc._report(sp, conc.DEFAULT_THRESHOLD, routes=conc.ROUTES)
    report.add("route_agreement", answer.max_pairwise_gap, 1e-9)
    e2 = answer.E2

    # The partial-transpose checks are matrix-free: Tr rho_PT = sum |G|^2 and
    # Tr rho_PT^2 = (sum |G|^2)^2.
    trace_pt = float(np.vdot(sp.G, sp.G).real)
    report.add("trace_rho_pt", trace_pt - 1.0, 1e-10)
    report.add("trace_rho_pt_squared", trace_pt**2 - 1.0, 1e-10)
    report.add("pt_square_factorization",
               transpose.pt_square_factorization_gap(sp, bipartition), 1e-10)
    report.add("hs_identity", spectral.hs_identity_gap(sp, bipartition), 1e-10)

    entropy = spectral.von_neumann_entropy(spectral._reduce(sp))
    report.add("entropy_bound", max(0.0, e2 / 2.0 - entropy), 1e-9)
    if e2 < SEPARABLE_E2:
        report.add("entropy_vanishes_when_separable", entropy, 1e-9)

    # Between the two thresholds no PPT check is reported, so none is solved.
    # The separable side reports the proven lower bound on the PPT minimum,
    # the entangled side the certificate's upper bound.
    if e2 < SEPARABLE_E2:
        lower, _ = transpose._ppt_bounds(sp.G)
        report.add("ppt_positive_for_separable", lower, 1e-8, passed=lower >= -1e-8)
        report.add("lambda_invariance_for_separable",
                   transpose.lambda_invariance_gap(sp, bipartition), 1e-9)
    elif e2 > ENTANGLED_E2:
        _, upper = transpose._ppt_bounds(sp.G)
        report.add("ppt_negative_for_entangled", upper, 1e-6, passed=upper < -1e-6)

    return report
