"""Block-swap permutation, partial-transpose operators, routes D and E,
PPT spectra, and Wigner-function checks."""

import numpy as np
import pytest

import cvconc as cv
from cvconc import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    GridState,
    LambdaPermutation,
    build_rho_pt,
    concurrence_route_D,
    concurrence_route_E,
    lambda_invariance_gap,
    ppt_min_eigenvalue,
    pt_square_factorization_gap,
    wigner_gaussian,
    wigner_invariance_gap,
    wigner_normalization,
    wigner_pt_fourth_moment_concurrence,
)
from cvconc.errors import InputError

import oracles
from conftest import random_grid_state, random_product_state, raw_split, shaped_state

BP = Bipartition(2, (0,))


def small_random_state(seed, shape=(6, 5)):
    rng = np.random.default_rng(seed)
    axes = tuple(GridAxis(-2.0, 2.0, p) for p in shape)
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return GridState.from_amplitudes(axes, amp)


def gaussian_grid(c, points=48, box=6.0):
    spec = GaussianPureState(np.array([[1.0, c / 2.0], [c / 2.0, 1.0]], dtype=complex))
    return cv.discretize(spec, [GridAxis(-box, box, points)] * 2)


def test_lambda_matrix_is_involutive_permutation():
    for n, members in [(2, (0,)), (3, (1,)), (4, (0, 2))]:
        lam = LambdaPermutation(Bipartition(n, members))
        m = lam.matrix
        assert np.array_equal(m @ m, np.eye(2 * n))
        assert np.array_equal(np.sort(np.abs(m).sum(axis=0)), np.ones(2 * n))


def test_lambda_apply_swaps_member_components():
    lam = LambdaPermutation(Bipartition(3, (0, 2)))
    X = np.arange(6.0)
    out = lam.apply(X)
    assert np.array_equal(out, [3.0, 1.0, 5.0, 0.0, 4.0, 2.0])
    assert np.array_equal(lam.apply(out), X)
    assert np.array_equal(lam.apply(X), lam.matrix @ X)


def test_lambda_invariance_gap_product_state():
    state = random_product_state(np.random.default_rng(3))
    assert lambda_invariance_gap(state, BP) < 1e-12


def test_lambda_invariance_gap_entangled_gaussian():
    assert lambda_invariance_gap(gaussian_grid(1.0), BP) > 1e-2


def test_lambda_invariance_gap_symmetric_in_bipartition():
    for seed in (5, 6, 7):
        state = small_random_state(seed)
        gap_m = lambda_invariance_gap(state, BP)
        gap_rest = lambda_invariance_gap(state, Bipartition(2, (1,)))
        assert abs(gap_m - gap_rest) < 1e-14


def real_product_state(seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=7)
    g = rng.normal(size=7)
    axes = (GridAxis(-3.0, 3.0, 7), GridAxis(-3.0, 3.0, 7))
    return GridState.from_amplitudes(axes, np.outer(f, g))


def test_rho_pt_equals_rho_for_real_product_state():
    # The coordinate swap leaves a factorized real kernel unchanged. With a
    # complex complement factor the swap transposes that factor instead, so
    # exact invariance is special to real wavefunctions.
    state = real_product_state(11)
    pt = build_rho_pt(state, BP).matrix
    rho = oracles.dense_density(state)
    assert np.max(np.abs(pt - rho)) < 1e-12


def test_rho_pt_transposes_complement_factor():
    state = random_product_state(np.random.default_rng(11))
    pt = build_rho_pt(state, BP).matrix
    G = cv.split(state, BP).G
    rho_m = G @ G.conj().T
    rho_rest = G.T @ G.conj()
    assert np.max(np.abs(pt - np.kron(rho_m, rho_rest.T))) < 1e-12


def test_rho_pt_trace_pins():
    for seed in (13, 17):
        state = small_random_state(seed)
        op = build_rho_pt(state, BP)
        assert abs(op.trace - 1.0) < 1e-10
        tr2 = complex(np.sum(op.matrix * op.matrix.T))
        assert abs(tr2 - 1.0) < 1e-10


def test_route_D_separable():
    state = random_product_state(np.random.default_rng(19))
    assert concurrence_route_D(state, BP) < 1e-12


def test_route_D_matches_route_A():
    for seed in (23, 29):
        state = small_random_state(seed)
        a = cv.concurrence_route_A(state, BP)
        d = concurrence_route_D(state, BP)
        assert abs(a - d) < 1e-11
    grid = gaussian_grid(1.0)
    assert abs(cv.concurrence_route_A(grid, BP) - concurrence_route_D(grid, BP)) < 1e-11


def test_route_D_bell_brute_force(bell_state):
    # Dense 4x4 oracle: || rho~ - rho~_PT ||_HS^2 with rho~(x, y) built from
    # the weighted wavefunction without conjugation.
    G = cv.split(bell_state, BP).G
    tilde = np.einsum("ab,cd->abcd", G, G)
    tilde_pt = np.einsum("ad,cb->abcd", G, G)
    oracle = float(np.sum(np.abs(tilde - tilde_pt) ** 2))
    assert abs(oracle - 1.0) < 1e-12
    assert abs(concurrence_route_D(bell_state, BP) - oracle) < 1e-12


# The lib-corpus splits: 8^2, 12^2 and 16^2 at {0}; 6^3, 7^3 and 8^3 at {0}
# (gm x gm^2) and at {1, 2} (gm^2 x gm).
LIB_CORPUS_SPLITS = [((n, n), (0,)) for n in (8, 12, 16)] + [
    ((n, n, n), members) for n in (6, 7, 8) for members in ((0,), (1, 2))
]


@pytest.mark.parametrize("product", [False, True])
@pytest.mark.parametrize("shape, members", LIB_CORPUS_SPLITS)
def test_route_D_matches_kernel_oracle(shape, members, product):
    state = shaped_state(np.random.default_rng(47), shape, product)
    bp = Bipartition(len(shape), members)
    expected = oracles.route_d_kernel(cv.split(state, bp).G)
    assert abs(concurrence_route_D(state, bp) - expected) < 1e-14


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2)])
def test_route_D_matches_kernel_oracle_on_thin_blocks(shape):
    rng = np.random.default_rng(53)
    G = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    G /= np.linalg.norm(G)
    sp = raw_split(G)
    assert abs(concurrence_route_D(sp, sp.bipartition) - oracles.route_d_kernel(G)) < 1e-14


def test_pt_square_factorization_random():
    for seed in (31, 37):
        state = small_random_state(seed, shape=(9, 11))
        assert pt_square_factorization_gap(state, BP) < 1e-10


def test_pt_square_equals_rho_square_for_real_product():
    state = real_product_state(41)
    pt = build_rho_pt(state, BP).matrix
    rho = oracles.dense_density(state)
    assert np.max(np.abs(pt @ pt - rho @ rho)) < 1e-10


def test_pt_square_factorization_entangled_gaussian():
    assert pt_square_factorization_gap(gaussian_grid(1.0, points=24), BP) < 1e-10


def test_route_E_separable():
    state = random_product_state(np.random.default_rng(43))
    assert abs(concurrence_route_E(state, BP)) < 1e-10


def test_route_E_matches_route_C():
    grid = gaussian_grid(1.0)
    assert abs(concurrence_route_E(grid, BP) - cv.concurrence_route_C(grid, BP)) < 1e-9


def test_route_E_bell_brute_force(bell_state):
    pt = build_rho_pt(bell_state, BP).matrix
    tr4 = complex(np.trace(np.linalg.matrix_power(pt, 4)))
    assert abs(tr4 - 0.25) < 1e-12
    assert abs(concurrence_route_E(bell_state, BP) - 1.0) < 1e-12


def test_ppt_spectrum_verdicts(bell_state):
    product = random_product_state(np.random.default_rng(47))
    assert ppt_min_eigenvalue(product, BP) >= -1e-10
    assert ppt_min_eigenvalue(gaussian_grid(1.0, points=32), BP) < -1e-3
    assert abs(ppt_min_eigenvalue(bell_state, BP) + 0.5) < 1e-12


def test_operator_size_cap():
    state = small_random_state(53, shape=(70, 70))
    with pytest.raises(InputError):
        build_rho_pt(state, BP)


def test_wigner_ground_state_value():
    state = GaussianPureState(np.eye(2, dtype=complex))
    assert abs(wigner_gaussian(state, [0.0, 0.0], [0.0, 0.0]) - np.pi**-2) < 1e-12


def test_wigner_matches_transform_quadrature():
    # Oracle: direct quadrature of the defining transform, including a state
    # with an imaginary coupling so Im(A) enters.
    rng = np.random.default_rng(59)
    for A in (
        np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex),
        np.array([[1.2, 0.4j], [0.4j, 0.8]], dtype=complex),
    ):
        state = GaussianPureState(A)
        for _ in range(4):
            x = rng.uniform(-1.0, 1.0, size=2)
            p = rng.uniform(-1.0, 1.0, size=2)
            oracle = oracles.wigner_numeric(state, x, p)
            assert abs(oracle.imag) < 1e-10
            assert abs(wigner_gaussian(state, x, p) - oracle.real) < 1e-10


def test_wigner_normalization_and_parity():
    state = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    assert abs(wigner_normalization(state) - 1.0) < 1e-8
    rng = np.random.default_rng(61)
    for _ in range(10):
        x = rng.normal(size=2)
        p = rng.normal(size=2)
        assert abs(wigner_gaussian(state, x, p) - wigner_gaussian(state, -x, -p)) < 1e-14


def _doubled_samples(rng, count):
    return [(rng.normal(size=4), rng.normal(size=4)) for _ in range(count)]


def test_wigner_invariance_separable():
    state = GaussianPureState(np.diag([1.0, 2.0]).astype(complex))
    samples = _doubled_samples(np.random.default_rng(67), 100)
    assert wigner_invariance_gap(state, BP, samples) < 1e-10


def test_wigner_invariance_entangled():
    state = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    samples = _doubled_samples(np.random.default_rng(71), 1000)
    assert wigner_invariance_gap(state, BP, samples) > 1e-4


def test_wigner_invariance_fixed_points():
    # Samples whose member components already agree across the two copies
    # are fixed by the swap, entangled or not.
    state = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    rng = np.random.default_rng(73)
    samples = []
    for _ in range(20):
        X = rng.normal(size=4)
        P = rng.normal(size=4)
        X[2] = X[0]
        P[2] = P[0]
        samples.append((X, P))
    assert wigner_invariance_gap(state, BP, samples) == 0.0


def test_wigner_fourth_moment_concurrence():
    real_case = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    assert abs(
        wigner_pt_fourth_moment_concurrence(real_case, BP) - (2.0 - np.sqrt(3.0))
    ) < 1e-3
    imag_case = GaussianPureState(np.array([[1.0, 1.0j], [1.0j, 1.0]]))
    assert abs(
        wigner_pt_fourth_moment_concurrence(imag_case, BP) - (2.0 - np.sqrt(2.0))
    ) < 1e-3


def test_wigner_fourth_moment_two_modes_only():
    state = GaussianPureState(np.eye(3, dtype=complex))
    with pytest.raises(InputError):
        wigner_pt_fourth_moment_concurrence(state, Bipartition(3, (0,)))
