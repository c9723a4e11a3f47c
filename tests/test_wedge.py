"""Wedge product coefficients, weighted bivector norms, the extended
Lagrange identity, and the memory bound of the chunked wedge kernel."""

import tracemalloc

import numpy as np
import pytest

from cvconc import (
    Bipartition,
    GridAxis,
    GridState,
    bivector_p_norm,
    concurrence_route_D,
    family_measure,
    lagrange_identity_gap,
    lambda_invariance_gap,
    wedge,
)
from cvconc.errors import InputError


def _weighted_norms(f, g, w):
    nf = float(np.sum(np.abs(f) ** 2 * w))
    ng = float(np.sum(np.abs(g) ** 2 * w))
    ip = complex(np.sum(f * np.conj(g) * w))
    return nf, ng, ip


def test_wedge_of_parallel_vectors_vanishes():
    rng = np.random.default_rng(0)
    f = rng.normal(size=12) + 1j * rng.normal(size=12)
    k = 0.7 - 1.3j
    b = wedge(f, k * f, np.ones(12))
    assert np.max(np.abs(b.coefficients)) < 1e-14


def test_wedge_basis_case():
    b = wedge([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
    assert b.coefficients.shape == (1,)
    assert abs(b.coefficients[0] - 1.0) < 1e-15
    assert abs(b.pair_weights[0] - 1.0) < 1e-15


def test_wedge_antisymmetry():
    rng = np.random.default_rng(1)
    f = rng.normal(size=9) + 1j * rng.normal(size=9)
    g = rng.normal(size=9) + 1j * rng.normal(size=9)
    w = rng.uniform(0.5, 2.0, size=9)
    assert np.allclose(wedge(f, g, w).coefficients, -wedge(g, f, w).coefficients)


def test_wedge_bilinearity_with_nilpotency():
    rng = np.random.default_rng(2)
    f = rng.normal(size=7) + 1j * rng.normal(size=7)
    g = rng.normal(size=7) + 1j * rng.normal(size=7)
    alpha, beta = 1.2 - 0.4j, -0.9 + 2.1j
    w = np.ones(7)
    left = wedge(f, alpha * f + beta * g, w).coefficients
    right = beta * wedge(f, g, w).coefficients
    assert np.max(np.abs(left - right)) < 1e-12


def test_wedge_length_mismatch():
    with pytest.raises(InputError):
        wedge([1.0, 2.0], [1.0], [1.0, 1.0])


def test_p_norm_zero_bivector():
    b = wedge([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], np.ones(3))
    for p in (1, 2, np.inf):
        assert bivector_p_norm(b, p) < 1e-14


def test_p_norm_single_coefficient():
    b = wedge([3.0, 0.0], [0.0, 1.0], [1.0, 1.0])
    for p in (1, 2, np.inf):
        assert abs(bivector_p_norm(b, p) - 3.0) < 1e-14


def test_p_norm_pythagorean():
    # Coefficients {3, 4} with unit weights: the 2-norm is 5.
    b = wedge([1.0, 0.0, 0.0], [0.0, 3.0, 4.0], np.ones(3))
    assert abs(bivector_p_norm(b, 2) - 5.0) < 1e-14
    assert abs(bivector_p_norm(b, 1) - 7.0) < 1e-14
    assert abs(bivector_p_norm(b, np.inf) - 4.0) < 1e-14


def test_p_norm_unsupported_order():
    b = wedge([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(InputError):
        bivector_p_norm(b, 3)


def test_two_norm_squared_is_cauchy_schwarz_defect():
    rng = np.random.default_rng(3)
    for _ in range(25):
        size = int(rng.integers(2, 40))
        f = rng.normal(size=size) + 1j * rng.normal(size=size)
        g = rng.normal(size=size) + 1j * rng.normal(size=size)
        w = rng.uniform(0.1, 2.0, size=size)
        nf, ng, ip = _weighted_norms(f, g, w)
        defect = nf * ng - abs(ip) ** 2
        norm_sq = bivector_p_norm(wedge(f, g, w), 2) ** 2
        assert abs(norm_sq - defect) <= 1e-12 * nf * ng


def test_lagrange_gap_parallel_is_zero():
    f = np.array([1.0 + 2.0j, -0.5j, 3.0])
    assert lagrange_identity_gap(f, f, np.ones(3)) == 0.0


def test_lagrange_gap_orthonormal_pair():
    w = np.ones(2)
    gap = lagrange_identity_gap([1.0, 0.0], [0.0, 1.0], w)
    assert abs(gap) < 1e-15


def test_lagrange_gap_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        size = int(rng.integers(2, 201))
        f = rng.normal(size=size) + 1j * rng.normal(size=size)
        g = rng.normal(size=size) + 1j * rng.normal(size=size)
        w = rng.uniform(0.05, 3.0, size=size)
        nf, ng, _ = _weighted_norms(f, g, w)
        assert abs(lagrange_identity_gap(f, g, w)) < 1e-12 * nf * ng


@pytest.mark.parametrize("consumer", ["route_D", "lambda_gap", "family_p1", "family_pinf"])
def test_wedge_consumers_hold_a_bounded_chunk(consumer):
    # On 64 x 128 one slice's wedge with every other slice spans about 10^6
    # complex values (16 MiB per array); the chunked kernel holds two buffers
    # within its budget instead.
    rng = np.random.default_rng(5)
    axes = (GridAxis(-4.0, 4.0, 64), GridAxis(-4.0, 4.0, 128))
    amp = rng.normal(size=(64, 128)) + 1j * rng.normal(size=(64, 128))
    state = GridState.from_amplitudes(axes, amp)
    bp = Bipartition(2, (0,))
    run = {
        "route_D": lambda: concurrence_route_D(state, bp),
        "lambda_gap": lambda: lambda_invariance_gap(state, bp),
        "family_p1": lambda: family_measure(state, bp, "identity", 1, 1),
        "family_pinf": lambda: family_measure(state, bp, "identity", np.inf, 1),
    }[consumer]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
