"""Closed-form two-mode results, the cross-block separability criterion, and
sweeps, cross-checked against the grid pipeline."""

import decimal
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


def _closed_form_reference(a, b, c, imag):
    """The paper's forms of both branches at 50 digits, from the exact floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b, c = decimal.Decimal(a), decimal.Decimal(b), decimal.Decimal(c)
        root = (4 * a * b).sqrt()
        if imag:
            return float(2 * (1 - root / (4 * a * b + c * c).sqrt()))
        return float(2 * (1 - (4 * a * b - c * c).sqrt() / root))


@pytest.mark.parametrize("imag", [False, True])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.7, 2.3), (40.0, 0.03)])
def test_closed_form_keeps_relative_precision_on_weak_coupling(a, b, imag):
    # 2 [1 - sqrt(4ab - c^2) / (2 sqrt(ab))] read 0 at c = 1e-9 and lost 8.9e-5
    # of its value at c = 1e-6.
    for c in np.logspace(-1, -9, 17):
        spec = TwoModeGaussianSpec(a, b, 1j * c if imag else c)
        reference = _closed_form_reference(a, b, c, imag)
        assert abs(closed_form_concurrence(spec) - reference) <= 1e-14 * reference, c
        row = sweep_concurrence(a, b, "imag" if imag else "real", [c])[0]
        assert row[1] == closed_form_concurrence(spec)


def test_closed_form_imag_branch_at_huge_coupling():
    # m^2 overflows; E^2 tends to 2.
    assert closed_form_concurrence(TwoModeGaussianSpec(1e-300, 1e-300, 1e300j)) == 2.0
    assert closed_form_concurrence(TwoModeGaussianSpec(1.0, 1.0, 1e200j)) == 2.0
    # So it does with a real part: m = Im c / (2 sqrt(ab)) itself overflows
    # here, and a finite m near the float limit leaves r/t and m/t finite.
    assert closed_form_concurrence(TwoModeGaussianSpec(1e-300, 1e-300, 1e-301 + 1e300j)) == 2.0
    assert closed_form_concurrence(TwoModeGaussianSpec(1.0, 1.0, -1.5 + 1e308j)) == 2.0


def test_spec_validation():
    with pytest.raises(UnphysicalStateError):
        TwoModeGaussianSpec(1.0, 1.0, 2.0)
    with pytest.raises(UnphysicalStateError):
        TwoModeGaussianSpec(1.0, 4.0, -4.0)
    # A mixed c is physical iff |Re c| < 2 sqrt(ab), whatever its Im c.
    for c in [2.0 + 1e-3j, -2.0 + 5.0j, 2.5 - 1.0j]:
        with pytest.raises(UnphysicalStateError):
            TwoModeGaussianSpec(1.0, 1.0, c)
    TwoModeGaussianSpec(1.0, 1.0, 1.0 + 1.0j)
    TwoModeGaussianSpec(1.0, 1.0, 1.9999999 + 100.0j)
    with pytest.raises(InputError):
        TwoModeGaussianSpec(-1.0, 1.0, 0.0)
    # Non-finite input is refused.
    inf, nan = float("inf"), float("nan")
    for a, b, c in [(inf, 1.0, 0.0), (1.0, nan, 0.0), (1.0, 1.0, inf), (1.0, 1.0, 1j * inf),
                    (1.0, 1.0, complex(0.0, nan))]:
        with pytest.raises(InputError, match="finite"):
            TwoModeGaussianSpec(a, b, c)
    # The imaginary branch has no magnitude restriction.
    TwoModeGaussianSpec(1.0, 1.0, 100.0j)


@pytest.mark.parametrize("value", [np.complex128(1 + 2j), 1 + 2j, np.complex128(1.0), "1", None],
                         ids=["numpy-complex", "complex", "numpy-complex-real", "str", "None"])
@pytest.mark.parametrize("name", ["a", "b"])
def test_spec_refuses_a_non_real_a_or_b(name, value):
    # Refused before any arithmetic: a numpy complex a must not be read as
    # its real part with only a ComplexWarning.
    args = {"a": 1.0, "b": 1.0, "c": 0.5, name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="a and b must be real numbers"):
            TwoModeGaussianSpec(**args)


@pytest.mark.parametrize("c", ["1", None, [0.5]])
def test_spec_refuses_a_non_numeric_c(c):
    with pytest.raises(InputError, match="c must be a number"):
        TwoModeGaussianSpec(1.0, 1.0, c)


def test_spec_takes_any_real_or_complex_number_type():
    reference = closed_form_concurrence(TwoModeGaussianSpec(1.0, 2.0, 0.5 + 0.25j))
    for a, b, c in [(1, 2, 0.5 + 0.25j), (np.float32(1.0), np.int64(2), np.complex128(0.5 + 0.25j))]:
        assert closed_form_concurrence(TwoModeGaussianSpec(a, b, c)) == reference


def test_normalization_values():
    assert abs(closed_form_normalization(TwoModeGaussianSpec(1.0, 1.0, 0.0)) - np.pi**-0.5) < 1e-15
    expected = (2.0 * np.pi / np.sqrt(3.0)) ** -0.5
    assert abs(closed_form_normalization(TwoModeGaussianSpec(1.0, 1.0, 1.0)) - expected) < 1e-15
    near_edge = closed_form_normalization(TwoModeGaussianSpec(1.0, 1.0, 1.9999999))
    assert near_edge < 0.02


# 50 digits of pi, for the decimal references.
_PI = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")


def _normalization_reference(a, b, c, imag):
    """(4ab - c^2)^(1/4) / sqrt(2 pi), or (4ab)^(1/4) / sqrt(2 pi) on the
    imaginary branch, at 50 digits from the exact floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b, c = decimal.Decimal(a), decimal.Decimal(b), decimal.Decimal(c)
        det = 4 * a * b if imag else 4 * a * b - c * c
        return float(det.sqrt().sqrt() / (2 * _PI).sqrt())


# a and b whose product underflows, is subnormal or overflows, with couplings
# on both branches.
FAR_SPECS = [(1e-300, 1e-300, 0.0), (1e-300, 1e-300, 1e-301), (1e-160, 1e-160, 0.0),
             (1e-160, 3e-161, 1e-161), (1e200, 1e200, 0.0), (1e200, 1e200, 1.5e200),
             (1e300, 1e-300, 0.5), (1e-200, 1e250, 3e24)]


@pytest.mark.parametrize("imag", [False, True])
@pytest.mark.parametrize("a, b, c", FAR_SPECS)
def test_closed_forms_hold_for_a_and_b_far_from_1(a, b, c, imag):
    # ab = 1e-600 made TwoModeGaussianSpec(1e-300, 1e-300, 0) unphysical,
    # 4ab = 4e400 made (1e200, 1e200, 0) non-finite, and a subnormal ab = 1e-320
    # cost the normalization 2.8e-6 of its value.
    spec = TwoModeGaussianSpec(a, b, 1j * c if imag else c)
    norm = _normalization_reference(a, b, c, imag)
    assert abs(closed_form_normalization(spec) - norm) <= 1e-14 * norm
    e2 = _closed_form_reference(a, b, c, imag)
    assert abs(closed_form_concurrence(spec) - e2) <= 1e-14 * e2


def test_physical_test_holds_for_a_and_b_far_from_1():
    for a, b in [(1e-300, 1e-300), (1e200, 1e200), (1e300, 1e-300)]:
        edge = 2.0 * np.sqrt(a) * np.sqrt(b)
        with pytest.raises(UnphysicalStateError):
            TwoModeGaussianSpec(a, b, edge)
        assert closed_form_concurrence(TwoModeGaussianSpec(a, b, 0.999 * edge)) > 1.9


def _purity_reference(a, b, c):
    """2 (1 - mu) with the reduced purity mu = sqrt((ab - p^2) / (ab + q^2)),
    p = Re c / 2 and q = Im c / 2, at 50 digits from the exact floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b = decimal.Decimal(a), decimal.Decimal(b)
        p, q = decimal.Decimal(c.real) / 2, decimal.Decimal(c.imag) / 2
        return float(2 * (1 - ((a * b - p * p) / (a * b + q * q)).sqrt()))


# Mixed couplings as (Re c, Im c) / (2 sqrt(ab)); the first is the state
# A = [[1, .4 + 1.5i], [.4 + 1.5i, 1]] at a = b = 1. A 64-node Gauss-Hermite
# rule resolves each of them.
MIXED_RATIOS = [(0.4, 1.5), (0.6, -2.0), (-0.7, 0.7), (0.3, 0.3), (1e-6, 1e-7)]
# a and b from 1 to the far scales of FAR_SPECS.
MIXED_SCALES = [(1.0, 1.0), (0.7, 2.3), (40.0, 0.03), (1e-300, 1e-300), (1e-160, 3e-161),
                (1e200, 1e200), (1e300, 1e-300), (1e-200, 1e250)]


def _mixed_spec(a, b, r, m):
    return TwoModeGaussianSpec(a, b, complex(r, m) * (2.0 * np.sqrt(a) * np.sqrt(b)))


@pytest.mark.parametrize("a, b", MIXED_SCALES)
@pytest.mark.parametrize("r, m", MIXED_RATIOS + [(0.99, 0.01), (0.5, 20.0), (1e-9, 3e-9)])
def test_closed_form_of_a_mixed_coupling(a, b, r, m):
    # Mixed c was refused with "use the grid backend"; the one formula is the
    # reduced purity of any coupling, with both branches as its special cases.
    spec = _mixed_spec(a, b, r, m)
    reference = _purity_reference(a, b, spec.c)
    assert abs(closed_form_concurrence(spec) - reference) <= 1e-14 * reference


@pytest.mark.parametrize("c", [1e308, 3e307j, 5e307 + 1e308j])
def test_closed_form_near_the_largest_float(c):
    # 2 sqrt(ab) = 3.4e308 overflows, and taking r = |c| / inf read E^2 = 0.
    spec = TwoModeGaussianSpec(1.7e308, 1.7e308, c)
    reference = _purity_reference(1.7e308, 1.7e308, spec.c)
    assert abs(closed_form_concurrence(spec) - reference) <= 1e-14 * reference


@pytest.mark.parametrize("a, b", MIXED_SCALES)
@pytest.mark.parametrize("r, m", MIXED_RATIOS)
def test_closed_form_of_a_mixed_coupling_matches_gauss_hermite(a, b, r, m):
    spec = _mixed_spec(a, b, r, m)
    rule = cv.gauss_hermite_rule(64, [1.0 / np.sqrt(a), 1.0 / np.sqrt(b)])
    report = cv.concurrence_gaussian_numeric(spec.to_precision_matrix(), BP, rule)
    assert abs(report.E2 - closed_form_concurrence(spec)) <= 1e-12


def test_closed_form_of_a_mixed_coupling_matches_the_covariance_matrix():
    # mu = det(2 V_1)^(-1/2) from the covariance matrix of A = R + iI:
    # V_1 = [[X, C], [C, P]] of mode 0, from the blocks R^-1 / 2,
    # -R^-1 I / 2 and (R + I R^-1 I) / 2.
    spec = TwoModeGaussianSpec(1.0, 1.0, 0.8 + 3.0j)
    A = spec.to_precision_matrix().A
    R, I = A.real, A.imag
    Rinv = np.linalg.inv(R)
    X, C, P = Rinv[0, 0] / 2, -(Rinv @ I)[0, 0] / 2, (R + I @ Rinv @ I)[0, 0] / 2
    mu = np.linalg.det(2.0 * np.array([[X, C], [C, P]])) ** -0.5
    e2 = closed_form_concurrence(spec)
    assert abs(e2 - 2.0 * (1.0 - mu)) <= 4e-16 * e2
    assert abs(e2 - 0.983217745116412) <= 1e-15
    expected = spec.to_precision_matrix().normalization
    assert abs(closed_form_normalization(spec) - expected) <= 2e-16 * expected


@pytest.mark.parametrize("imag", [False, True])
def test_report_keeps_relative_precision_on_weak_entanglement(imag):
    # E2 = 2 (1 - sum lambda^2) cancels to the round-off of lambda_1^2 = 1 - O(c^2):
    # it is off by 1.7e-3 of its value at c = 1e-6 on the real branch.
    for c in np.logspace(-1, -6, 11):
        spec = TwoModeGaussianSpec(1.0, 1.0, 1j * c if imag else c)
        grid = cv.discretize(spec.to_precision_matrix(), [GridAxis(-8.0, 8.0, 48)] * 2)
        reference = _closed_form_reference(1.0, 1.0, c, imag)
        report = cv.concurrence_report(grid, BP)
        assert abs(report.E2 - reference) <= 1e-9 * reference, c


def test_normalization_matches_wavefunction_constant():
    # The closed-form constant agrees with the general-n normalization of the
    # matching precision matrix.
    for a, b, c in [(1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (2.0, 0.5, 0.7), (1.0, 1.0, 3.0j),
                    (1.0, 1.0, 0.8 + 3.0j), (2.0, 0.5, -0.7 + 1.2j)]:
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


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_separability_verdict_does_not_depend_on_units(scale):
    # The cross entry is read against CROSS_BLOCK_TOL sqrt(A_kk A_jj): with an
    # absolute tolerance, [[1, .05], [.05, 1]] read "separable" at 1e-300.
    for a, b in [(1.0, 1.0), (9.0, 4.0)]:
        for ratio, verdict in [(0.05, "entangled"), (2e-12, "entangled"),
                               (5e-13, "separable"), (0.0, "separable")]:
            cross = ratio * np.sqrt(a * b)
            A = scale * np.array([[a, cross], [cross, b]])
            assert gaussian_separability(A, BP).verdict == verdict, (a, b, ratio)


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
    # One spelling per axis: the "real_c"/"imag_c" of the old branch property
    # are not a second one.
    for branch in ("both", "real_c", "imag_c"):
        with pytest.raises(InputError):
            sweep_concurrence(1.0, 1.0, branch, [0.0])


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
