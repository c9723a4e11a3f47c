"""State representations: grid axes, grid states, Gaussian states and
bipartitions."""

import numpy as np
import pytest

import cvconc as cv
from cvconc import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    GridState,
    discretize,
    evaluate_gaussian,
    evaluate_grid,
)
from cvconc.errors import InputError, StateValidityError, TruncationWarning

from conftest import random_grid_state


def test_axis_nodes_and_weights():
    ax = GridAxis(-2.0, 2.0, 8)
    assert ax.delta == 0.5
    assert np.allclose(ax.nodes, -2.0 + (np.arange(8) + 0.5) * 0.5)
    assert np.allclose(ax.weights, 0.5)
    assert abs(ax.weights.sum() - (ax.max - ax.min)) < 1e-15


def test_axis_validation():
    with pytest.raises(InputError):
        GridAxis(1.0, 1.0, 4)
    with pytest.raises(InputError):
        GridAxis(0.0, 1.0, 1)


def test_grid_state_norm_enforced():
    axes = (GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 2))
    amp = np.full((2, 2), 0.9)
    with pytest.raises(StateValidityError):
        GridState(axes, amp)
    state = GridState.from_amplitudes(axes, amp)
    assert abs(state.norm_squared - 1.0) < 1e-12


def test_grid_state_rejects_non_finite():
    axes = (GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 2))
    for bad in (np.nan, np.inf, complex(0.5, np.nan)):
        amp = np.full((2, 2), 1.0, dtype=complex)
        amp[1, 0] = bad
        with pytest.raises(InputError, match="finite"):
            GridState(axes, amp)
        with pytest.raises(InputError, match="finite"):
            GridState.from_amplitudes(axes, amp)
    with pytest.raises(InputError, match="finite"):
        GridAxis(-np.inf, 1.0, 4)
    with pytest.raises(InputError, match="finite"):
        GridAxis(0.0, np.nan, 4)


def test_grid_state_shape_mismatch():
    axes = (GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 3))
    with pytest.raises(InputError):
        GridState(axes, np.ones(5))


def test_evaluate_grid_single_point_mass():
    # All probability at one node: normalization forces 1/sqrt(d1 d2).
    ax1 = GridAxis(0.0, 1.0, 2)
    ax2 = GridAxis(0.0, 2.0, 4)
    amp = np.zeros((2, 4))
    amp[1, 2] = 1.0
    state = GridState.from_amplitudes((ax1, ax2), amp)
    expected = 1.0 / np.sqrt(ax1.delta * ax2.delta)
    assert abs(evaluate_grid(state, (1, 2)) - expected) < 1e-12
    assert evaluate_grid(state, (0, 0)) == 0.0


def test_evaluate_grid_product_layout():
    rng = np.random.default_rng(5)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    axes = (GridAxis(-1.0, 1.0, 4), GridAxis(-1.0, 1.0, 6))
    state = GridState.from_amplitudes(axes, np.outer(f, g))
    scale = evaluate_grid(state, (0, 0)) / (f[0] * g[0])
    for i, j in [(1, 2), (3, 5), (2, 0)]:
        assert abs(evaluate_grid(state, (i, j)) - scale * f[i] * g[j]) < 1e-12


def test_evaluate_grid_index_errors():
    state = random_grid_state(np.random.default_rng(0))
    with pytest.raises(InputError):
        evaluate_grid(state, (0,))
    with pytest.raises(InputError):
        evaluate_grid(state, (state.axes[0].points, 0))


def test_evaluate_gaussian_origin_values():
    uncoupled = GaussianPureState(np.eye(2, dtype=complex))
    assert abs(evaluate_gaussian(uncoupled, [0.0, 0.0]) - np.pi**-0.5) < 1e-12
    coupled = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    expected = (2.0 * np.pi / np.sqrt(3.0)) ** -0.5
    assert abs(evaluate_gaussian(coupled, [0.0, 0.0]) - expected) < 1e-12


def test_evaluate_gaussian_even_and_decaying():
    state = GaussianPureState(np.array([[1.0, 0.3j], [0.3j, 2.0]]))
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=2)
        assert abs(evaluate_gaussian(state, x) - evaluate_gaussian(state, -x)) < 1e-14
    ray = np.array([1.0, 1.0])
    mags = [abs(evaluate_gaussian(state, t * ray)) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(m1 > m2 for m1, m2 in zip(mags, mags[1:]))


def test_gaussian_validation():
    with pytest.raises(InputError):
        GaussianPureState(np.array([[1.0, 0.2], [0.3, 1.0]]))   # not symmetric
    with pytest.raises(InputError):
        GaussianPureState(np.array([[-1.0, 0.0], [0.0, 1.0]]))  # Re not PD


def test_gaussian_rejects_non_finite():
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        A = np.eye(2, dtype=complex)
        A[0, 1] = A[1, 0] = bad
        with pytest.raises(InputError, match="non-finite"):
            GaussianPureState(A)


def test_discretize_node_at_origin():
    # 65 points on [-6, 6] puts a node exactly at the origin.
    state = GaussianPureState(np.eye(2, dtype=complex))
    grid = discretize(state, [GridAxis(-6.0, 6.0, 65)] * 2)
    assert abs(grid.axes[0].nodes[32]) < 1e-12
    assert abs(evaluate_grid(grid, (32, 32)) - np.pi**-0.5) < 1e-9


def test_discretize_mass_defect_small():
    state = GaussianPureState(np.eye(2, dtype=complex))
    grid = discretize(state, [GridAxis(-6.0, 6.0, 64)] * 2)
    assert grid.diagnostics["mass_defect"] < 1e-12
    assert not grid.diagnostics["ill_conditioned"]


def test_discretize_near_singular_ridge_flagged():
    # c = 1.99: the soft ridge direction has standard deviation 10, far wider
    # than the box, so a large mass defect and the condition flag both fire.
    state = GaussianPureState(np.array([[1.0, 0.995], [0.995, 1.0]], dtype=complex))
    with pytest.warns(TruncationWarning):
        grid = discretize(state, [GridAxis(-6.0, 6.0, 64)] * 2)
    assert grid.diagnostics["mass_defect"] > 1e-3
    assert grid.diagnostics["ill_conditioned"]
    assert abs(grid.norm_squared - 1.0) < 1e-12


def test_discretize_warns_on_truncation():
    state = GaussianPureState(np.eye(2, dtype=complex))
    with pytest.warns(TruncationWarning):
        discretize(state, [GridAxis(-0.5, 0.5, 4)] * 2)


def test_discretize_degenerate_axes_still_normalized():
    state = GaussianPureState(np.eye(2, dtype=complex))
    with pytest.warns(TruncationWarning):
        grid = discretize(state, [GridAxis(0.0, 1.0, 2)] * 2)
    assert abs(grid.norm_squared - 1.0) < 1e-12


def test_discretize_matches_pointwise_evaluation():
    # Sampled amplitudes equal the analytic wavefunction up to one global
    # renormalization factor.
    state = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    axes = [GridAxis(-6.0, 6.0, 16)] * 2
    grid = discretize(state, axes)
    nodes = axes[0].nodes
    scale = None
    for i in (0, 5, 11):
        for j in (2, 9, 15):
            exact = evaluate_gaussian(state, [nodes[i], nodes[j]])
            ratio = evaluate_grid(grid, (i, j)) / exact
            if scale is None:
                scale = ratio
            assert abs(ratio - scale) < 1e-12


def test_bipartition_members_and_complement():
    bp = Bipartition(4, (2, 0))
    assert bp.members == (0, 2)
    assert bp.complement == (1, 3)
    assert Bipartition.parse("0,2", 4) == bp


def test_bipartition_validation():
    with pytest.raises(InputError):
        Bipartition(2, (0, 1))      # |M| = n
    with pytest.raises(InputError):
        Bipartition(2, ())
    with pytest.raises(InputError):
        Bipartition(2, (2,))        # out of range
    with pytest.raises(InputError):
        Bipartition(1, (0,))
    with pytest.raises(InputError):
        Bipartition.parse("a,b", 3)


def test_axis_permutation_leaves_concurrence_unchanged():
    # Relabeling the axes together with the bipartition members is a no-op
    # for every downstream measure.
    rng = np.random.default_rng(23)
    axes = (GridAxis(-2.0, 2.0, 5), GridAxis(-1.0, 3.0, 6), GridAxis(-3.0, 1.0, 4))
    amp = rng.normal(size=(5, 6, 4)) + 1j * rng.normal(size=(5, 6, 4))
    state = GridState.from_amplitudes(axes, amp)
    perm = (2, 0, 1)    # new axis k holds old axis perm[k]
    permuted = GridState.from_amplitudes(
        tuple(axes[k] for k in perm), np.transpose(state.amplitudes, perm)
    )
    for members in [(0,), (1,), (0, 2)]:
        bp = Bipartition(3, members)
        new_members = tuple(perm.index(m) for m in members)
        bp_perm = Bipartition(3, new_members)
        e2 = cv.concurrence_route_B(state, bp)
        e2_perm = cv.concurrence_route_B(permuted, bp_perm)
        assert abs(e2 - e2_perm) < 1e-12
