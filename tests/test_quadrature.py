"""Midpoint and Gauss-Hermite product rules."""

import math

import numpy as np
import pytest

import cvconc as cv
from cvconc import GridAxis, ProductRule, gauss_hermite_rule, integrate, midpoint_rule
from cvconc.errors import InputError, NumericError

from conftest import random_grid_state, traced_peak


def test_rule_validation():
    with pytest.raises(InputError):
        ProductRule(nodes=(), weights=())
    with pytest.raises(InputError):
        ProductRule(nodes=([0.0, 1.0],), weights=([1.0],))
    with pytest.raises(InputError):
        ProductRule(nodes=([0.0, 1.0],), weights=([1.0, 0.0],))


def test_midpoint_weights_sum_to_length():
    ax = GridAxis(-3.0, 5.0, 13)
    rule = midpoint_rule([ax])
    assert abs(rule.weights[0].sum() - 8.0) < 1e-12
    assert rule.total_points == 13


def test_midpoint_constant_is_exact():
    rule = midpoint_rule([GridAxis(0.0, 1.0, 8), GridAxis(0.0, 1.0, 8)])
    assert abs(integrate(rule, lambda x, y: np.ones_like(x)) - 1.0) < 1e-15


def test_midpoint_gaussian_integral():
    rule = midpoint_rule([GridAxis(-6.0, 6.0, 64)])
    value = integrate(rule, lambda x: np.exp(-(x**2)))
    assert abs(value - np.sqrt(np.pi)) < 1e-10


def test_midpoint_odd_integrand_vanishes():
    rule = midpoint_rule([GridAxis(-6.0, 6.0, 64)])
    assert abs(integrate(rule, lambda x: np.exp(-(x**2)) * x)) < 1e-14


def test_midpoint_convergence_order():
    # Truncating the Gaussian inside the box exposes the O(delta^2) error of
    # the midpoint rule; the measured order must sit near 2.
    exact = 0.5 * np.sqrt(np.pi) * (math.erf(2.0) + math.erf(1.0))
    errors = []
    for pts in (16, 32, 64):
        rule = midpoint_rule([GridAxis(-1.0, 2.0, pts)])
        errors.append(abs(complex(integrate(rule, lambda x: np.exp(-(x**2)))) - exact))
    for fine, coarse in zip(errors[1:], errors):
        order = np.log2(coarse / fine)
        assert 1.9 <= order <= 2.1


def test_midpoint_reproduces_state_norm():
    state = random_grid_state(np.random.default_rng(2))
    rule = midpoint_rule(state.axes)
    w = np.ones(())
    for wi in rule.weights:
        w = np.multiply.outer(w, wi)
    assert abs(float(np.sum(np.abs(state.amplitudes) ** 2 * w)) - 1.0) < 1e-12


def test_gauss_hermite_single_node():
    rule = gauss_hermite_rule(1, scale=2.0)
    assert abs(rule.nodes[0][0]) < 1e-15
    assert abs(rule.weights[0][0] - 2.0 * np.sqrt(np.pi)) < 1e-12


def test_gauss_hermite_fourth_moment():
    rule = gauss_hermite_rule(64)
    value = integrate(rule, lambda x: np.exp(-(x**2)) * x**4)
    assert abs(value - 0.75 * np.sqrt(np.pi)) < 1e-12


def test_gauss_hermite_two_axis_moment():
    rule = gauss_hermite_rule(32, ndim=2)
    value = integrate(rule, lambda x, y: np.exp(-(x**2) - y**2) * x**2 * y**2)
    assert abs(value - np.pi / 4.0) < 1e-12


def test_gauss_hermite_scaled():
    # With scale s the rule integrates exp(-(x/s)^2) exactly.
    s = 1.7
    rule = gauss_hermite_rule(16, scale=s)
    value = integrate(rule, lambda x: np.exp(-((x / s) ** 2)))
    assert abs(value - s * np.sqrt(np.pi)) < 1e-12


def test_gauss_hermite_validation():
    with pytest.raises(InputError):
        gauss_hermite_rule(0)
    with pytest.raises(InputError):
        gauss_hermite_rule(4, scale=-1.0)


@pytest.mark.parametrize("scale, ndim", [([1.0, 2.0], 3), ([1.0, 2.0, 3.0], 2)])
def test_gauss_hermite_refuses_an_ndim_that_contradicts_the_scales(scale, ndim):
    # The rule took its axis count from the scales and ignored ndim.
    with pytest.raises(InputError, match=f"{len(scale)} scales.*ndim = {ndim}"):
        gauss_hermite_rule(8, scale, ndim=ndim)
    assert len(gauss_hermite_rule(8, scale, ndim=len(scale)).nodes) == len(scale)


@pytest.mark.parametrize("ndim", [0, -1, 2.5, "2"])
def test_gauss_hermite_refuses_an_ndim_that_is_not_a_positive_whole_number(ndim):
    # These failed inside np.full with a TypeError or ValueError, or, for 0,
    # at the empty rule.
    with pytest.raises(InputError, match="ndim"):
        gauss_hermite_rule(8, 1.0, ndim=ndim)
    assert len(gauss_hermite_rule(8, 1.0, ndim=2.0).nodes) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rules_refuse_non_finite_values(bad):
    # NaN passed the old "<= 0" tests and built an all-NaN rule, whose states
    # then failed inside the SVD instead of at the input.
    with pytest.raises(InputError, match="scales"):
        gauss_hermite_rule(8, bad, 2)
    with pytest.raises(InputError, match="scales"):
        gauss_hermite_rule(8, [1.0, bad])
    with pytest.raises(InputError):
        ProductRule(nodes=([0.0, bad],), weights=([1.0, 1.0],))
    with pytest.raises(InputError):
        ProductRule(nodes=([0.0, 1.0],), weights=([1.0, bad],))


def test_integrate_calls_the_integrand_once():
    # A result of the wrong shape, or a TypeError or ValueError, restarted the
    # evaluation node by node: a constant on this 4 x 4 rule was called 17 times.
    rule = midpoint_rule([GridAxis(0.0, 1.0, 4), GridAxis(0.0, 1.0, 4)])
    calls = []

    def constant(x, y):
        calls.append(x)
        return 3.0

    assert abs(integrate(rule, constant) - 3.0) < 1e-15
    assert len(calls) == 1
    calls.clear()

    def scalar_only(x, y):
        calls.append(x)
        return float(x) + float(y)

    with pytest.raises(TypeError):
        integrate(rule, scalar_only)
    assert len(calls) == 1
    with pytest.raises(InputError, match=r"shape \(3,\).*\(4, 4\)"):
        integrate(rule, lambda x, y: np.ones(3))


def test_integrate_propagates_integrand_errors():
    rule = midpoint_rule([GridAxis(0.0, 1.0, 4), GridAxis(0.0, 1.0, 4)])
    calls = []

    def broken(x, y):
        calls.append(x)
        raise ZeroDivisionError("integrand fault")

    with pytest.raises(ZeroDivisionError, match="integrand fault"):
        integrate(rule, broken)
    assert len(calls) == 1


def test_integrate_rejects_nonfinite():
    rule = midpoint_rule([GridAxis(0.0, 1.0, 4)])
    with np.errstate(divide="ignore"), pytest.raises(NumericError):
        integrate(rule, lambda x: 1.0 / (x - rule.nodes[0][2]))


def test_integrate_refuses_a_rule_above_the_node_cap():
    # 4097 x 4096 nodes is one row above the cap of 2^24; the integrand is
    # never called.
    rule = ProductRule(nodes=(np.arange(4097.0), np.arange(4096.0)),
                       weights=(np.ones(4097), np.ones(4096)))
    calls = []
    with pytest.raises(InputError, match="16781312 nodes"):
        integrate(rule, lambda *xs: calls.append(xs))
    assert not calls


def test_wigner_normalization_of_three_modes_is_refused_before_any_mesh():
    # The default 40 points per phase-space axis ask for 40^6 = 4.1e9 nodes
    # on a 3-mode state; the refusal traces under 1 MiB, so no mesh was formed.
    state = cv.GaussianPureState(np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]]))

    def refused():
        with pytest.raises(InputError, match="4096000000 nodes"):
            cv.wigner_normalization(state)

    assert traced_peak(refused)[1] < 2**20


def test_integrate_deterministic():
    rule = midpoint_rule([GridAxis(-4.0, 4.0, 37)])
    f = lambda x: np.exp(-(x**2)) * (x**3 - 2.0 * x + 0.25)
    assert integrate(rule, f) == integrate(rule, f)
