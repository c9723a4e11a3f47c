"""Closed-form two-mode results, the cross-block separability criterion, and
sweeps, cross-checked against the grid pipeline."""

import warnings

import numpy as np
import pytest

import cvconc as cv
from cvconc import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    TwoModeGaussianSpec,
    closed_form_concurrence,
    closed_form_normalization,
    gaussian_separability,
    sweep_concurrence,
)
from cvconc.errors import InputError, UnphysicalStateError

BP = Bipartition(2, (0,))


def test_closed_form_uncoupled():
    assert closed_form_concurrence(TwoModeGaussianSpec(1.0, 1.0, 0.0)) == 0.0


def test_closed_form_real_branch():
    value = closed_form_concurrence(TwoModeGaussianSpec(1.0, 1.0, 1.0))
    assert abs(value - (2.0 - np.sqrt(3.0))) < 1e-15


def test_closed_form_imag_branch():
    value = closed_form_concurrence(TwoModeGaussianSpec(1.0, 1.0, 2.0j))
    assert abs(value - (2.0 - np.sqrt(2.0))) < 1e-15


def test_closed_form_branch_detection():
    assert TwoModeGaussianSpec(1.0, 1.0, 0.5).branch == "real_c"
    assert TwoModeGaussianSpec(1.0, 1.0, 0.5j).branch == "imag_c"
    assert TwoModeGaussianSpec(1.0, 1.0, 0.0).branch == "real_c"


def test_spec_validation():
    with pytest.raises(UnphysicalStateError):
        TwoModeGaussianSpec(1.0, 1.0, 2.0)
    with pytest.raises(UnphysicalStateError):
        TwoModeGaussianSpec(1.0, 4.0, -4.0)
    with pytest.raises(InputError):
        TwoModeGaussianSpec(1.0, 1.0, 1.0 + 1.0j)
    with pytest.raises(InputError):
        TwoModeGaussianSpec(-1.0, 1.0, 0.0)
    # Non-finite input, including an a*b that overflows, is refused.
    inf, nan = float("inf"), float("nan")
    for a, b, c in [(inf, 1.0, 0.0), (1.0, nan, 0.0), (1.0, 1.0, inf), (1.0, 1.0, 1j * inf),
                    (1.0, 1.0, complex(0.0, nan)), (1e200, 1e200, 0.0)]:
        with pytest.raises(InputError, match="finite"):
            TwoModeGaussianSpec(a, b, c)
    # The imaginary branch has no magnitude restriction.
    TwoModeGaussianSpec(1.0, 1.0, 100.0j)


def test_normalization_values():
    assert abs(closed_form_normalization(TwoModeGaussianSpec(1.0, 1.0, 0.0)) - np.pi**-0.5) < 1e-15
    expected = (2.0 * np.pi / np.sqrt(3.0)) ** -0.5
    assert abs(closed_form_normalization(TwoModeGaussianSpec(1.0, 1.0, 1.0)) - expected) < 1e-15
    near_edge = closed_form_normalization(TwoModeGaussianSpec(1.0, 1.0, 1.9999999))
    assert near_edge < 0.02


def test_normalization_matches_wavefunction_constant():
    # The closed-form constant agrees with the general-n normalization of the
    # matching precision matrix.
    for a, b, c in [(1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (2.0, 0.5, 0.7), (1.0, 1.0, 3.0j)]:
        spec = TwoModeGaussianSpec(a, b, c)
        assert abs(closed_form_normalization(spec) - spec.to_precision_matrix().normalization) < 1e-14


def test_separability_block_diagonal():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    result = gaussian_separability(A, Bipartition(3, (0,)))
    assert result.verdict == "separable"
    assert result.witness_entry is None


def test_separability_coupled_two_mode():
    A = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    result = gaussian_separability(A, BP)
    assert result.verdict == "entangled"
    assert result.witness_entry == (0, 1, 0.5)


def test_separability_single_weak_cross_entry():
    A = np.eye(4, dtype=complex)
    A[1, 3] = A[3, 1] = 1e-3
    result = gaussian_separability(A, Bipartition(4, (0, 1)))
    assert result.verdict == "entangled"
    assert result.witness_entry[:2] == (1, 3)
    assert abs(result.witness_entry[2] - 1e-3) < 1e-18


def test_separability_rejects_non_physical():
    with pytest.raises(InputError):
        gaussian_separability(np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex), BP)


def test_separability_agrees_with_grid_decision():
    rng = np.random.default_rng(17)
    for _ in range(10):
        coupled = bool(rng.integers(0, 2))
        c = float(rng.uniform(0.2, 0.8)) if coupled else 0.0
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.5, 2.0))
        A = np.array([[a, c / 2.0], [c / 2.0, b]], dtype=complex)
        analytic = gaussian_separability(A, BP).verdict
        grid = cv.discretize(GaussianPureState(A), [GridAxis(-8.0, 8.0, 32)] * 2)
        numeric = cv.decide_separability(grid, BP).verdict
        assert analytic == numeric


def test_sweep_even_monotone_and_edges():
    values = np.linspace(-1.99, 1.99, 399)
    rows = sweep_concurrence(1.0, 1.0, "real", values)
    e2 = np.array([r[1] for r in rows])
    assert np.allclose(e2, e2[::-1], atol=1e-14)           # even in c
    half = e2[199:]
    assert np.all(np.diff(half) > 0.0)                     # increasing in |c|
    expected_edge = 2.0 * (1.0 - np.sqrt(4.0 - 1.99**2) / 2.0)
    assert abs(e2[-1] - expected_edge) < 1e-15
    norms = np.array([r[2] for r in rows])
    assert norms[-1] < 0.2


def test_sweep_imag_branch_asymptote():
    rows = sweep_concurrence(1.0, 1.0, "imag", np.linspace(-10.0, 10.0, 401))
    e2 = np.array([r[1] for r in rows])
    norms = np.array([r[2] for r in rows])
    assert abs(e2[0] - 2.0 * (1.0 - 2.0 / np.sqrt(104.0))) < 1e-15
    assert np.allclose(norms, np.pi**-0.5, atol=1e-15)     # norm independent of m
    assert e2.max() < 2.0


def test_sweep_zero_row():
    ((c, e2, norm),) = sweep_concurrence(1.0, 1.0, "real", [0.0])
    assert (c, e2) == (0.0, 0.0)
    assert abs(norm - np.pi**-0.5) < 1e-15


def test_sweep_marks_unphysical_rows():
    rows = sweep_concurrence(1.0, 1.0, "real", [0.0, 2.0, 2.5])
    assert np.isnan(rows[1][1]) and np.isnan(rows[2][2])
    assert rows[0][1] == 0.0


def test_sweep_rejects_unknown_branch():
    with pytest.raises(InputError):
        sweep_concurrence(1.0, 1.0, "both", [0.0])


def random_physical_specs(count, seed=29):
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        a = float(rng.uniform(0.4, 2.0))
        b = float(rng.uniform(0.4, 2.0))
        mag = float(rng.uniform(0.0, 1.5)) * np.sqrt(a * b)
        c = 1j * mag if rng.integers(0, 2) else mag
        specs.append(TwoModeGaussianSpec(a, b, c))
    return specs


def test_closed_form_vs_midpoint_grid():
    for spec in random_physical_specs(50):
        grid = cv.discretize(
            spec.to_precision_matrix(), [GridAxis(-8.0, 8.0, 64)] * 2
        )
        numeric = cv.concurrence_route_B(grid, BP)
        assert abs(numeric - closed_form_concurrence(spec)) < 2e-3


def test_closed_form_vs_gauss_hermite_pipeline():
    rule = cv.gauss_hermite_rule(64, ndim=2)
    for spec in random_physical_specs(10, seed=37):
        report = cv.concurrence_gaussian_numeric(spec.to_precision_matrix(), BP, rule)
        assert abs(report.routes["route_B_overlap"] - closed_form_concurrence(spec)) < 1e-6
        assert report.max_pairwise_gap < 1e-11
