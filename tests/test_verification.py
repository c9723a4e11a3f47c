"""Aggregated identity verification reports."""

import numpy as np

from cvconc import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    concurrence_route_B,
    discretize,
    run_verification,
    transpose,
)
from cvconc.verification import ENTANGLED_E2, SEPARABLE_E2, VerificationReport

from conftest import random_grid_state, random_product_state

BP = Bipartition(2, (0,))


def test_report_overall_logic():
    report = VerificationReport()
    report.add("a", 0.0, 1e-9)
    assert report.overall
    report.add("b", 1.0, 1e-9)
    assert not report.overall
    assert report.to_dict()["overall"] == "fail"


def test_random_states_pass_every_check():
    rng = np.random.default_rng(101)
    for _ in range(5):
        report = run_verification(random_grid_state(rng), BP)
        failed = [c for c in report.checks if not c["passed"]]
        assert report.overall, failed


def test_separable_state_gets_extra_checks():
    report = run_verification(random_product_state(np.random.default_rng(103)), BP)
    names = [c["name"] for c in report.checks]
    assert report.overall
    assert "entropy_vanishes_when_separable" in names
    assert "ppt_positive_for_separable" in names
    assert "lambda_invariance_for_separable" in names
    assert "ppt_negative_for_entangled" not in names


def test_entangled_state_gets_ppt_negativity_check():
    report = run_verification(random_grid_state(np.random.default_rng(107)), BP)
    names = [c["name"] for c in report.checks]
    assert "ppt_negative_for_entangled" in names
    assert "entropy_vanishes_when_separable" not in names



def test_ppt_minimum_solved_only_when_reported(monkeypatch):
    # Precision off-diagonal 0.03 on 32^2 points: E^2 is about 9e-4, between
    # the separable and entangled thresholds, where no PPT check is reported.
    spec = GaussianPureState(np.array([[1.0, 0.03], [0.03, 1.0]], dtype=complex))
    state = discretize(spec, [GridAxis(-8.0, 8.0, 32)] * 2)
    assert SEPARABLE_E2 < concurrence_route_B(state, BP) < ENTANGLED_E2

    def refuse(pt):
        raise AssertionError("the PPT minimum was solved but is not reported")

    monkeypatch.setattr(transpose, "_ppt_min", refuse)
    report = run_verification(state, BP)
    assert report.overall
    assert not any(c["name"].startswith("ppt_") for c in report.checks)
