"""State representations: grid axes, grid states, Gaussian states and
bipartitions."""

import json

import numpy as np
import pytest

import cvconc as cv
import cvconc.cli
import cvconc.serialization
from cvconc import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    GridState,
    discretize,
    evaluate_gaussian,
)
from cvconc.errors import InputError, StateValidityError, TruncationWarning

import oracles
from conftest import traced_peak


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


@pytest.mark.parametrize("points", [2.9, 4.5, np.nan, np.inf, "4", None, 3 + 0j])
def test_axis_points_must_be_whole(points):
    # int() truncated 2.9 to 2 points without a word.
    with pytest.raises(InputError, match="whole number"):
        GridAxis(0.0, 1.0, points)


@pytest.mark.parametrize("points", [4, 4.0, np.int64(4), np.float64(4.0)])
def test_axis_accepts_whole_point_counts(points):
    ax = GridAxis(0.0, 1.0, points)
    assert ax.points == 4 and type(ax.points) is int


@pytest.mark.parametrize("points", [2.5, np.nan, "4", None])
def test_gauss_hermite_points_must_be_whole(points):
    # numpy's hermgauss raised TypeError on these.
    with pytest.raises(InputError, match="whole number"):
        cv.gauss_hermite_rule(points)


def test_gauss_hermite_accepts_whole_point_counts():
    # 16.0 and np.int64(16) are the count 16, and share its cached nodes.
    cv.quadrature._hermite_nodes.cache_clear()
    rules = [cv.gauss_hermite_rule(points) for points in (16, 16.0, np.int64(16))]
    assert all(r.nodes[0].size == 16 and np.array_equal(r.weights[0], rules[0].weights[0])
               for r in rules)
    info = cv.quadrature._hermite_nodes.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize("n", [2.5, np.nan, "2", None])
def test_bipartition_size_must_be_whole(n):
    # Bipartition(2.5, (0,)) was built, and its complement raised TypeError.
    with pytest.raises(InputError, match="whole number"):
        Bipartition(n, (0,))


@pytest.mark.parametrize("n", [2.0, np.int64(2), np.float64(2.0)])
def test_bipartition_accepts_whole_sizes(n):
    bp = Bipartition(n, (np.int64(0),))
    assert bp.n == 2 and type(bp.n) is int and bp.complement == (1,)
    assert bp == Bipartition(2, (0,))


def test_state_file_with_fractional_points_is_refused(tmp_path):
    # 2.9 points read as 2 and then failed the norm check (exit 2), which
    # pointed at the amplitudes rather than the axis.
    payload = {
        "axes": [{"min": 0.0, "max": 1.0, "points": 2.9}, {"min": 0.0, "max": 1.0, "points": 2}],
        "amplitudes_real": [1.0, 0.0, 0.0, 1.0],
        "amplitudes_imag": [0.0] * 4,
    }
    with pytest.raises(InputError, match="whole number"):
        cv.serialization.grid_state_from_dict(payload)
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InputError, match="whole number"):
        cv.serialization.load_state(path)
    assert cv.cli.main(["concurrence", str(path), "--M", "0"]) == 1


def test_gaussian_file_with_fractional_n_is_refused():
    payload = {"n": 2.5, "A_real": [[1.0, 0.0], [0.0, 1.0]], "A_imag": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(InputError):
        cv.serialization.gaussian_from_dict(payload)
    assert cv.serialization.gaussian_from_dict({**payload, "n": 2.0}).n == 2


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


def test_amplitudes_single_point_mass():
    # All probability at one node: normalization forces 1/sqrt(d1 d2).
    ax1 = GridAxis(0.0, 1.0, 2)
    ax2 = GridAxis(0.0, 2.0, 4)
    amp = np.zeros((2, 4))
    amp[1, 2] = 1.0
    state = GridState.from_amplitudes((ax1, ax2), amp)
    expected = 1.0 / np.sqrt(ax1.delta * ax2.delta)
    assert abs(state.amplitudes[1, 2] - expected) < 1e-12
    assert state.amplitudes[0, 0] == 0.0


def test_amplitudes_product_layout():
    rng = np.random.default_rng(5)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    axes = (GridAxis(-1.0, 1.0, 4), GridAxis(-1.0, 1.0, 6))
    state = GridState.from_amplitudes(axes, np.outer(f, g))
    scale = state.amplitudes[0, 0] / (f[0] * g[0])
    for i, j in [(1, 2), (3, 5), (2, 0)]:
        assert abs(state.amplitudes[i, j] - scale * f[i] * g[j]) < 1e-12


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


def test_gaussian_symmetry_is_checked_relative_to_the_largest_entry():
    # One rounding of asymmetry at the scale 1e20 was refused, and an
    # asymmetry of 10 % at the scale 1e-20 accepted.
    A = np.array([[1e20, 3e19], [3e19 * (1 + 4.4e-16), 1e20]])
    assert A[0, 1] != A[1, 0]
    assert GaussianPureState(A).n == 2
    with pytest.raises(InputError, match="symmetric"):
        GaussianPureState(np.array([[1e-20, 1e-21], [2e-21, 1e-20]]))


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
    assert abs(grid.amplitudes[32, 32] - np.pi**-0.5) < 1e-9


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
            ratio = grid.amplitudes[i, j] / exact
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


def _array_holders():
    """A maker of each type that holds numpy arrays, directly or through a
    field, on one 6^2 product state."""
    rng = np.random.default_rng(41)
    f, g = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    state = GridState.from_amplitudes((GridAxis(-3.0, 3.0, 6),) * 2, np.outer(f, g))
    bp = Bipartition(2, (0,))
    return {
        "GridState": lambda: GridState(state.axes, state.amplitudes),
        # A state holds its split, so each Split comes from a state of its own.
        "Split": lambda: cv.split(GridState(state.axes, state.amplitudes), bp),
        "GaussianPureState": lambda: GaussianPureState(np.eye(2, dtype=complex)),
        "ProductRule": lambda: cv.midpoint_rule(state.axes),
        "ReducedDensity": lambda: cv.reduce(state, bp),
        "SeparabilityCertificate": lambda: cv.decide_separability(state, bp),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holders_compare_by_identity(name):
    # The generated __eq__ compared the arrays with == and raised "truth value
    # of an array is ambiguous"; these types compare and hash by identity.
    make = _array_holders()[name]
    x, y = make(), make()
    assert (x == x) is True and (x != x) is False
    assert (x == y) is False and (x != y) is True
    assert hash(x) == hash(x)


# Precision matrices for the sampler: real, imaginary coupling and mixed
# phase, on 1, 2 and 3 modes.
SAMPLED_GAUSSIANS = {
    "real-1": [[1.3]],
    "real-2": [[1.0, 0.45], [0.45, 0.9]],
    "imag-2": [[1.0, 0.3j], [0.3j, 0.8]],
    "mixed-2": [[1.2 + 0.4j, 0.3 - 0.2j], [0.3 - 0.2j, 0.9 + 0.1j]],
    "real-3": [[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]],
    "mixed-3": [[1.1 + 0.2j, 0.25 - 0.1j, 0.1j],
                [0.25 - 0.1j, 0.9, 0.3 + 0.3j],
                [0.1j, 0.3 + 0.3j, 1.2 - 0.4j]],
}
# Unequal axes per mode: bounds, spacings and point counts all differ.
UNEQUAL_AXES = [GridAxis(-7.0, 6.0, 23), GridAxis(-5.5, 8.0, 17), GridAxis(-6.5, 6.0, 15)]


def _gauss_hermite(n):
    """A product Gauss-Hermite rule of n axes with unequal counts and scales."""
    rules = [cv.gauss_hermite_rule(points, scale, 1)
             for points, scale in [(18, 1.1), (13, 0.8), (9, 1.4)][:n]]
    return cv.ProductRule(tuple(r.nodes[0] for r in rules), tuple(r.weights[0] for r in rules))


def _assert_pointwise(amp, ref, terms):
    # To 1e-14 of the largest amplitude at every node, and at each node to
    # its own size times the round-off of an exponent whose terms sum to
    # `terms` in magnitude (exp turns an absolute error of its argument into
    # a relative error of its value).
    err = np.abs(amp - ref)
    assert err.max() <= 1e-14 * np.abs(ref).max(), err.max() / np.abs(ref).max()
    assert np.all(err <= 8 * np.finfo(float).eps * (1.0 + terms) * np.abs(ref))


@pytest.mark.parametrize("name", sorted(SAMPLED_GAUSSIANS))
def test_discretize_samples_the_pointwise_gaussian(name):
    state = GaussianPureState(np.array(SAMPLED_GAUSSIANS[name], dtype=complex))
    axes = UNEQUAL_AXES[:state.n]
    grid = discretize(state, axes)
    ref, mass, terms = oracles.gaussian_on_mesh(state, [ax.nodes for ax in axes],
                                                [ax.weights for ax in axes])
    assert grid.amplitudes.dtype == np.complex128
    _assert_pointwise(grid.amplitudes, ref / np.sqrt(mass), terms)
    assert abs(grid.diagnostics["mass_defect"] - abs(1.0 - mass)) <= 1e-14


@pytest.mark.parametrize("name", sorted(SAMPLED_GAUSSIANS))
def test_gauss_hermite_sampling_matches_the_pointwise_gaussian(name):
    state = GaussianPureState(np.array(SAMPLED_GAUSSIANS[name], dtype=complex))
    rule = _gauss_hermite(state.n)
    amp, defect = cv.states._sample(state, rule.nodes, rule.weights)
    ref, mass, terms = oracles.gaussian_on_mesh(state, rule.nodes, rule.weights)
    assert amp.dtype == (np.float64 if name.startswith("real") else np.complex128)
    _assert_pointwise(amp, ref, terms)
    assert abs(defect - abs(1.0 - mass)) <= 1e-14


def test_truncated_mass_defect_and_warning_are_kept():
    # A box that cuts the state: the defect is the pointwise one and warns.
    state = GaussianPureState(np.array(SAMPLED_GAUSSIANS["real-3"]))
    axes = [GridAxis(-1.5, 2.0, 12), GridAxis(-1.0, 1.0, 9), GridAxis(-2.0, 1.0, 10)]
    with pytest.warns(TruncationWarning):
        grid = discretize(state, axes)
    _, mass, _ = oracles.gaussian_on_mesh(state, [ax.nodes for ax in axes],
                                          [ax.weights for ax in axes])
    assert grid.diagnostics["mass_defect"] > 0.1
    assert abs(grid.diagnostics["mass_defect"] - abs(1.0 - mass)) <= 1e-14


@pytest.mark.parametrize("name", ["real-2", "imag-2", "real-3", "mixed-3"])
def test_a_real_precision_matrix_splits_real_on_both_rules(monkeypatch, name):
    # Im A = 0: both the grid split and the product-rule split are float64.
    state = GaussianPureState(np.array(SAMPLED_GAUSSIANS[name], dtype=complex))
    bp = Bipartition(state.n, (0,))
    dtype = np.float64 if name.startswith("real") else np.complex128
    assert cv.split(discretize(state, UNEQUAL_AXES[:state.n]), bp).G.dtype == dtype
    splits = []
    report = cv.concurrence.concurrence_report
    monkeypatch.setattr(cv.concurrence, "concurrence_report",
                        lambda sp, *args: splits.append(sp) or report(sp, *args))
    cv.concurrence_gaussian_numeric(state, bp, _gauss_hermite(state.n))
    assert [sp.G.dtype for sp in splits] == [dtype]


def test_discretize_memory_at_64_cubed():
    # 64^3 nodes: the float64 samples (2 MiB) and the complex128 state (4 MiB);
    # the meshgrid sampler held a 64^3 x 3 coordinate stack beside complex
    # temporaries and peaked at 24 MiB.
    state = GaussianPureState(np.array(SAMPLED_GAUSSIANS["real-3"]))
    axes = [GridAxis(-8.0, 8.0, 64)] * 3
    discretize(state, axes)
    grid, peak = traced_peak(discretize, state, axes)
    assert grid.amplitudes.shape == (64, 64, 64)
    assert peak <= 12.5 * 2**20, peak / 2**20
