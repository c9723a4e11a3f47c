"""Exact references from the invariances of E^2: it is a function of the
Schmidt weights alone, so it is unchanged by local unitaries and by product
factors, and the purity 1 - E^2/2 multiplies over tensor products. Every
route reads the same G, so these catch sampler, split and axis faults that
route agreement cannot see."""

import numpy as np
import pytest

import cvconc as cv
from cvconc import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    GridState,
    Split,
    TwoModeGaussianSpec,
    closed_form_concurrence,
    concurrence_report,
    concurrence_route_A,
    discretize,
)

from conftest import shaped_state


def test_product_of_two_mode_gaussians_matches_the_product_of_purities():
    # Block-diagonal A: modes (0, 1) and (2, 3) are two independent two-mode
    # Gaussians, and the split {0, 2} cuts both pairs. With e_i = E_i^2 / 2,
    # the purity is (1 - e_1)(1 - e_2), so E^2 = 2 (e_1 + e_2 - e_1 e_2).
    specs = (TwoModeGaussianSpec(1, 1.2, 0.8), TwoModeGaussianSpec(0.9, 1.1, 0.5 + 0.7j))
    A = np.zeros((4, 4), dtype=complex)
    A[:2, :2] = specs[0].to_precision_matrix().A
    A[2:, 2:] = specs[1].to_precision_matrix().A
    e1, e2 = (closed_form_concurrence(s) / 2.0 for s in specs)
    exact = 2.0 * (e1 + e2 - e1 * e2)
    assert abs(exact - 0.2999449226811494) < 1e-15
    # The grid error at 24^4 over [-8, 8] is about 2.7e-8 (1.0e-5 at 20^4).
    state = discretize(GaussianPureState(A), [GridAxis(-8.0, 8.0, 24)] * 4)
    report = concurrence_report(state, Bipartition(4, (0, 2)))
    assert abs(report.E2 - exact) < 1e-7
    assert report.max_pairwise_gap <= 1e-12


def _unitary(rng, n):
    """A random unitary: Q of the QR of a complex normal matrix, with the
    phases of R's diagonal moved into Q so the draw is unique."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(R)
    return Q * (d / np.abs(d))


@pytest.mark.parametrize("shape, complex_", [((6, 8), True), ((18, 40), False)])
def test_route_A_is_invariant_under_local_unitaries(shape, complex_):
    # By Cauchy-Binet the 2 x 2 minors of U G V^T are those of G mapped by
    # the unitaries Lambda^2 U and Lambda^2 V, so their squared sum, route A,
    # is unchanged; this checks the wedge kernel without the Gram routes.
    rng = np.random.default_rng(59)
    G = rng.normal(size=shape)
    if complex_:
        G = G + 1j * rng.normal(size=shape)
    U, V = _unitary(rng, shape[0]), _unitary(rng, shape[1])
    bp = Bipartition(2, (0,))

    def route_a(M):
        return concurrence_route_A(
            Split.from_blocks(bp, M, np.ones(shape[0]), np.ones(shape[1])), bp)

    before = route_a(G)
    assert abs(route_a(U @ G @ V.T) - before) <= 1e-13 * before


@pytest.mark.parametrize("members", [(0,), (0, 2)], ids=["complement", "member"])
def test_an_ancilla_mode_leaves_every_route_unchanged(members):
    # A 1-D factor on a new axis 2 joins the complement with the split (0,)
    # and the member block with (0, 2); either way the Schmidt weights, and
    # so E^2 and every route, stay those of the two-axis state.
    rng = np.random.default_rng(61)
    state = shaped_state(rng, (8, 8))
    factor = rng.normal(size=5) + 1j * rng.normal(size=5)
    extended = GridState.from_amplitudes(
        (*state.axes, GridAxis(-2.0, 2.0, 5)), np.multiply.outer(state.amplitudes, factor))
    routes = tuple(cv.concurrence.ROUTES)
    expected = concurrence_report(state, Bipartition(2, (0,)), routes=routes).values()
    got = concurrence_report(extended, Bipartition(3, members), routes=routes).values()
    assert got.keys() == expected.keys() and len(got) == 7
    for key, value in expected.items():
        assert abs(got[key] - value) <= 1e-12, key
