"""Aggregated identity verification reports."""

import sys
from collections import Counter

import numpy as np

import pytest

from cvconc import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    GridState,
    concurrence_route_B,
    discretize,
    purity,
    reduce,
    run_verification,
    spectral,
    split,
    transpose,
    von_neumann_entropy,
)
from cvconc.verification import ENTANGLED_E2, SEPARABLE_E2, VerificationReport

from conftest import random_grid_state, random_product_state, shaped_state

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
    state = random_product_state(np.random.default_rng(103))
    report = run_verification(state, BP)
    names = [c["name"] for c in report.checks]
    assert report.overall
    # The PPT lower bound is read from the split's Schmidt weights sigma_i^2
    # (test_matrix_free.py checks it against the dense minimum).
    ppt = next(c for c in report.checks if c["name"] == "ppt_positive_for_separable")
    assert ppt["measured"] == -2.0 * float(np.sqrt(np.sum(split(state, BP).schmidt[1:])))
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

    def refuse(*args):
        raise AssertionError("the PPT minimum was solved but is not reported")

    monkeypatch.setattr(transpose, "ppt_min_eigenvalue", refuse)
    report = run_verification(state, BP)
    assert report.overall
    assert not any(c["name"].startswith("ppt_") for c in report.checks)


def lopsided_state(shape, seed):
    rng = np.random.default_rng(seed)
    axes = tuple(GridAxis(-4.0, 4.0, p) for p in shape)
    return GridState.from_amplitudes(axes, rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.mark.parametrize("shape", [(48, 6), (6, 48)])
def test_verify_solves_the_eigenproblem_of_the_smaller_block(monkeypatch, shape):
    edges = []
    original = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        edges.append(a.shape[-1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    report = run_verification(lopsided_state(shape, 109), BP)
    assert report.overall
    assert edges and set(edges) == {min(shape)}


@pytest.mark.parametrize("shape", [(512, 16), (16, 512)])
def test_smaller_block_entropy_and_purity_match_the_member_block(shape):
    state = lopsided_state(shape, 113)
    member, smaller = reduce(state, BP), spectral._reduce(split(state, BP))
    assert smaller.matrix.shape == (16, 16)
    assert abs(purity(smaller) - purity(member)) < 1e-12
    assert abs(von_neumann_entropy(smaller) - von_neumann_entropy(member)) < 1e-12


def _record_wedge_shapes(monkeypatch) -> list:
    """Wrap _wedge_blocks in every cvconc module that holds it; the returned
    list collects the shape of each matrix it is called on."""
    shapes = []
    original = sys.modules["cvconc.wedge"]._wedge_blocks

    def recording(M):
        shapes.append(np.shape(M))
        return original(M)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "cvconc" and vars(mod).get("_wedge_blocks") is original:
            monkeypatch.setattr(mod, "_wedge_blocks", recording)
    return shapes


@pytest.mark.parametrize("members", [(0,), (1, 2)])
@pytest.mark.parametrize("product", [False, True])
def test_verify_forms_the_minors_of_G_once(monkeypatch, members, product):
    # Route A is the one pass over the minors of G, on the side with fewer
    # rows as the minors are few; the Lagrange check runs the kernel on its
    # two slices, and on a separable split the Lambda gap runs it on F, which
    # has the shape of G.
    state = shaped_state(np.random.default_rng(127), (4, 5, 6), product)
    bp = Bipartition(3, members)
    gm, gmbar = split(state, bp).G.shape
    shapes = _record_wedge_shapes(monkeypatch)
    report = run_verification(state, bp)
    assert report.overall
    expected = Counter({(min(gm, gmbar), max(gm, gmbar)): 1, (2, gmbar): 1})
    if product:
        expected[(gm, gmbar)] += 1
    assert Counter(shapes) == expected


# Wrong partial-transpose actions: each changes rho~^Gamma conj(G), the one
# matrix-free application route D reads, on complex states.
WRONG_MATVECS = {
    "conjugates V": lambda A, V, B: (A @ V.conj().swapaxes(-1, -2)) @ B,
    "conjugates A": lambda A, V, B: (A.conj() @ V.swapaxes(-1, -2)) @ B,
}


@pytest.mark.parametrize("variant", sorted(WRONG_MATVECS))
def test_broken_pt_matvec_fails_route_agreement(monkeypatch, variant):
    state = random_grid_state(np.random.default_rng(131))
    assert run_verification(state, BP).overall
    monkeypatch.setattr(transpose, "_pt_matvec", WRONG_MATVECS[variant])
    checks = {c["name"]: c["passed"] for c in run_verification(state, BP).checks}
    assert not checks["route_agreement"]
    assert not checks["hs_identity"]
