"""Midpoint and Gauss-Hermite product rules."""

import math

import numpy as np
import pytest

from cvconc import GridAxis, ProductRule, gauss_hermite_rule, integrate, midpoint_rule
from cvconc.errors import InputError, NumericError

from conftest import random_grid_state


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


def test_integrate_scalar_callable_fallback():
    rule = midpoint_rule([GridAxis(0.0, 1.0, 4), GridAxis(0.0, 1.0, 4)])
    value = integrate(rule, lambda x, y: float(x) + float(y))
    assert abs(value - 1.0) < 1e-12


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


def test_integrate_deterministic():
    rule = midpoint_rule([GridAxis(-4.0, 4.0, 37)])
    f = lambda x: np.exp(-(x**2)) * (x**3 - 2.0 * x + 0.25)
    assert integrate(rule, f) == integrate(rule, f)
