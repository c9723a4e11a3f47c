"""Concurrence routes A/B/Lambda, the parametrized measure family, and
separability decisions, checked against brute-force loop oracles and the
two-mode Gaussian closed forms."""

import sys
import tracemalloc

import numpy as np
import pytest

import cvconc as cv
from cvconc import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    GridState,
    concurrence_gaussian_numeric,
    concurrence_report,
    concurrence_route_A,
    concurrence_route_B,
    concurrence_route_Lambda,
    decide_separability,
    family_measure,
    gauss_hermite_rule,
)
from cvconc.errors import DegenerateStateError, InputError

import oracles
from conftest import random_grid_state, random_product_state, shaped_state

BP = Bipartition(2, (0,))
E2_C1 = 2.0 - np.sqrt(3.0)


def small_random_state(seed, shape=(5, 6)):
    rng = np.random.default_rng(seed)
    axes = tuple(GridAxis(-2.0, 2.0, p) for p in shape)
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return GridState.from_amplitudes(axes, amp)


def gaussian_grid(c, box=6.0, points=48):
    spec = GaussianPureState(np.array([[1.0, c / 2.0], [c / 2.0, 1.0]], dtype=complex))
    return cv.discretize(spec, [GridAxis(-box, box, points)] * 2)


def test_route_A_matches_brute_force():
    for seed in (1, 2, 3):
        state = small_random_state(seed)
        oracle = oracles.direct_concurrence(state, BP)
        assert abs(concurrence_route_A(state, BP) - oracle) < 1e-11


def test_route_A_product_state_vanishes():
    state = random_product_state(np.random.default_rng(7))
    assert concurrence_route_A(state, BP) < 1e-12


def test_route_A_gaussian_closed_form():
    state = gaussian_grid(1.0)
    assert abs(concurrence_route_A(state, BP) - E2_C1) < 2e-3


def test_route_A_bell_state(bell_state):
    # Discrete two-level maximally entangled state: purity 1/2, so every
    # route reports 1 (brute-force pinned).
    oracle = oracles.direct_concurrence(bell_state, BP)
    assert abs(oracle - 1.0) < 1e-12
    assert abs(concurrence_route_A(bell_state, BP) - oracle) < 1e-12


def test_route_B_matches_brute_force():
    for seed in (4, 5):
        state = small_random_state(seed)
        oracle = oracles.overlap_concurrence(state, BP)
        assert abs(concurrence_route_B(state, BP) - oracle) < 1e-12


def test_route_B_agrees_with_route_A():
    for seed in (8, 9, 10):
        state = small_random_state(seed, shape=(7, 7))
        a = concurrence_route_A(state, BP)
        b = concurrence_route_B(state, BP)
        assert abs(a - b) <= 1e-12 * max(a, 1.0)


def test_route_B_gaussian_branches():
    assert concurrence_route_B(gaussian_grid(0.0), BP) < 1e-12
    assert abs(concurrence_route_B(gaussian_grid(1.0), BP) - E2_C1) < 2e-3
    imag = GaussianPureState(np.array([[1.0, 1.0j], [1.0j, 1.0]]))
    state = cv.discretize(imag, [GridAxis(-6.0, 6.0, 48)] * 2)
    assert abs(concurrence_route_B(state, BP) - (2.0 - np.sqrt(2.0))) < 2e-3


def test_route_Lambda_separable_and_bell(bell_state):
    product = random_product_state(np.random.default_rng(13))
    assert abs(concurrence_route_Lambda(product, BP)) < 1e-12
    # Doubled-grid overlap for the two-level Bell state equals the purity 1/2.
    assert abs(concurrence_route_Lambda(bell_state, BP) - 1.0) < 1e-12


def test_route_Lambda_matches_route_A():
    state = gaussian_grid(1.0)
    a = concurrence_route_A(state, BP)
    lam = concurrence_route_Lambda(state, BP)
    assert abs(a - lam) <= 1e-12 * max(a, 1.0)


def test_family_measure_recovers_concurrence():
    for seed in (21, 22):
        state = small_random_state(seed)
        e = family_measure(state, BP, "two_x_squared", 2, 2)
        assert abs(e - np.sqrt(concurrence_route_A(state, BP))) < 1e-12


def test_family_measure_faithful_on_separable():
    state = random_product_state(np.random.default_rng(31))
    # The q-th root turns the ~1e-16 round-off of a vanishing integral into
    # ~1e-8, so "numerically zero" sits at the square root of the noise floor.
    for f, p in [("identity", 1), ("two_x_squared", 2), (("power", 2.0), np.inf)]:
        assert family_measure(state, BP, f, p, 2) < 1e-6


@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (6, 6, 6), (8, 8, 8)])
def test_family_p2_matches_the_slice_pair_sum(shape):
    # A slice has no wedge with itself; the square root of the Lagrange form's
    # cancellation round-off on that diagonal would read about 1e-8 per slice.
    state = shaped_state(np.random.default_rng(sum(shape)), shape)
    bp = Bipartition(len(shape), (0,))
    expected = oracles.family_p_norm(state, bp, 2)
    assert abs(family_measure(state, bp, "identity", 2, 1) - expected) < 1e-14 * expected


@pytest.mark.parametrize("shape, members", [
    ((8, 8), (0,)), ((16, 16), (0,)), ((6, 6, 6), (0,)), ((8, 8, 8), (0,)),
    ((8, 8, 8), (1, 2)), ((64, 8), (0,)), ((8, 64), (0,)),
])
def test_family_p2_matches_the_slice_pair_sum_on_product_states(shape, members):
    # Every pair's squared wedge norm is cancellation round-off of the Lagrange
    # form; its square root would read about 1e-8 to 1e-7 in the integral.
    state = shaped_state(np.random.default_rng(sum(shape)), shape, product=True)
    bp = Bipartition(len(shape), members)
    expected = oracles.family_p_norm(state, bp, 2)
    assert abs(family_measure(state, bp, "identity", 2, 1) - expected) < 1e-14


def test_family_measure_positive_on_entangled():
    state = gaussian_grid(1.0, points=24)
    assert family_measure(state, BP, ("power", 2.0), 1, 2) > 0.0


def test_family_measure_validation():
    state = small_random_state(41)
    with pytest.raises(InputError):
        family_measure(state, BP, "identity", 2, 0.0)
    with pytest.raises(InputError):
        family_measure(state, BP, "cube", 2, 2)
    with pytest.raises(InputError):
        family_measure(state, BP, lambda x: x, 2, 2)
    with pytest.raises(InputError):
        family_measure(state, BP, "identity", 3, 2)
    # A non-finite q or exponent would give NaN, 1.0 or, for ("power", inf),
    # a separable-looking 0.0 on this entangled state.
    for f, q in [("identity", np.nan), ("identity", np.inf),
                 (("power", np.nan), 2), (("power", np.inf), 2)]:
        with pytest.raises(InputError):
            family_measure(state, BP, f, 2, q)


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -1.0, "1e-8", None])
def test_threshold_must_be_finite_and_nonnegative(threshold):
    # Unchecked, NaN read an entangled state as separable with Schmidt rank 0
    # and -1 read a product state as entangled with full rank.
    rng = np.random.default_rng(83)
    spec = GaussianPureState(np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex))
    for state in (shaped_state(rng, (8, 8)), shaped_state(rng, (8, 8), product=True)):
        with pytest.raises(InputError):
            concurrence_report(state, BP, threshold)
        with pytest.raises(InputError):
            decide_separability(state, BP, threshold)
    with pytest.raises(InputError):
        concurrence_gaussian_numeric(spec, BP, gauss_hermite_rule(8, 1.0, 2), threshold)


def test_threshold_zero_is_accepted():
    state = shaped_state(np.random.default_rng(83), (8, 8), product=True)
    assert concurrence_report(state, BP, 0.0).threshold == 0.0
    assert decide_separability(state, BP, 0.0).threshold == 0.0


def test_decide_separability_product_factors():
    state = random_product_state(np.random.default_rng(53))
    cert = decide_separability(state, BP)
    assert cert.verdict == "separable"
    assert cert.reconstruction_error < 1e-9
    recon = np.outer(cert.factor_m.amplitudes, cert.factor_rest.amplitudes)
    assert np.max(np.abs(recon - state.amplitudes)) < 1e-9


def test_decide_separability_entangled_witness():
    state = gaussian_grid(1.0, points=24)
    cert = decide_separability(state, BP)
    assert cert.verdict == "entangled"
    assert cert.witness.magnitude_sq > cert.threshold
    # The witness indices address an actual non-parallel quadruple.
    (a, b), (x, y) = cert.witness.slice_pair, cert.witness.basis_pair
    amp = state.amplitudes
    w = state.node_weight**2
    d = amp[a + x] * amp[b + y] - amp[a + y] * amp[b + x]
    assert abs(abs(d) ** 2 * w - cert.witness.magnitude_sq) < 1e-12


def test_decide_separability_threshold_sensitivity():
    # Product state plus a 1e-3 orthogonal perturbation: entangled at the
    # default threshold, separable at a loose one.
    rng = np.random.default_rng(61)
    f = rng.normal(size=8)
    g = rng.normal(size=8)
    f2 = rng.normal(size=8)
    g2 = rng.normal(size=8)
    f2 -= f * np.dot(f, f2) / np.dot(f, f)
    g2 -= g * np.dot(g, g2) / np.dot(g, g)
    amp = np.outer(f, g) / np.linalg.norm(np.outer(f, g))
    amp = amp + 1e-3 * np.outer(f2, g2) / np.linalg.norm(np.outer(f2, g2))
    axes = (GridAxis(-2.0, 2.0, 8), GridAxis(-2.0, 2.0, 8))
    state = GridState.from_amplitudes(axes, amp)
    assert decide_separability(state, BP, threshold=1e-8).verdict == "entangled"
    assert decide_separability(state, BP, threshold=1e-2).verdict == "separable"


def test_decide_separability_noncontiguous_bipartition():
    state = random_product_state(np.random.default_rng(71), n_axes=3)
    cert = decide_separability(state, Bipartition(3, (0, 2)))
    assert cert.verdict == "separable"
    assert cert.reconstruction_error < 1e-9


def test_gaussian_numeric_report_separable():
    spec = GaussianPureState(np.eye(2, dtype=complex))
    report = concurrence_gaussian_numeric(spec, BP, gauss_hermite_rule(32, ndim=2))
    for value in report.values().values():
        assert abs(value) < 1e-10
    assert report.verdict == "separable"


def test_gaussian_numeric_report_entangled():
    spec = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    report = concurrence_gaussian_numeric(spec, BP, gauss_hermite_rule(48, ndim=2))
    for value in report.values().values():
        assert abs(value - E2_C1) < 2e-3
    assert report.max_pairwise_gap < 1e-12
    assert report.verdict == "entangled"


def test_gaussian_numeric_wide_ridge():
    from cvconc.quadrature import midpoint_rule

    spec = GaussianPureState(np.array([[1.0, 0.95], [0.95, 1.0]], dtype=complex))
    rule = midpoint_rule([GridAxis(-10.0, 10.0, 96)] * 2)
    report = concurrence_gaussian_numeric(spec, BP, rule)
    expected = 2.0 * (1.0 - np.sqrt(4.0 - 3.61) / 2.0)
    assert abs(report.routes["route_B_overlap"] - expected) < 5e-3


def test_report_range_and_symmetry(corpus):
    for state in corpus[:20]:
        report = concurrence_report(state, BP)
        for value in report.values().values():
            assert -1e-9 <= value <= 2.0 + 1e-9
        flipped = cv.concurrence_route_C(state, Bipartition(2, (1,)))
        assert abs(report.routes["route_C_purity"] - flipped) < 1e-10


def test_local_phase_invariance():
    rng = np.random.default_rng(83)
    state = small_random_state(91, shape=(9, 8))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=9)
    eta = rng.uniform(0.0, 2.0 * np.pi, size=8)
    phase = np.exp(1j * theta)[:, None] * np.exp(1j * eta)[None, :]
    rotated = GridState(state.axes, state.amplitudes * phase)
    before = concurrence_route_A(state, BP)
    after = concurrence_route_A(rotated, BP)
    assert abs(before - after) < 1e-11


def test_faithfulness_on_corpora(corpus, product_corpus):
    for state in corpus[:15]:
        e2 = concurrence_route_B(state, BP)
        verdict = decide_separability(state, BP, threshold=1e-10).verdict
        assert (e2 > 1e-10) == (verdict == "entangled")
    for state in product_corpus:
        assert decide_separability(state, BP, threshold=1e-10).verdict == "separable"
        assert concurrence_route_B(state, BP) < 1e-10


def test_degenerate_input_rejected():
    axes = (GridAxis(0.0, 1.0, 2), GridAxis(0.0, 1.0, 2))
    with pytest.raises(InputError):
        GridState.from_amplitudes(axes, np.zeros((2, 2)))


def test_verdict_stable_under_grid_refinement():
    # E^2 = 2.5e-5 and sigma_2^2 = 6.25e-6 on every grid; the weighted wedge
    # coefficients shrink like (delta_M delta_rest)^2 as the grid is refined.
    for points in (48, 64, 96, 128):
        cert = decide_separability(gaussian_grid(0.01, box=8.0, points=points), BP)
        assert cert.verdict == "entangled", points
        product = decide_separability(gaussian_grid(0.0, box=8.0, points=points), BP)
        assert product.verdict == "separable", points
    state = gaussian_grid(0.01, box=8.0, points=96)
    cert = decide_separability(state, BP)
    (a, b), (x, y) = cert.witness.slice_pair, cert.witness.basis_pair
    amp = state.amplitudes
    d = amp[a + x] * amp[b + y] - amp[a + y] * amp[b + x]
    assert abs(abs(d) ** 2 * state.node_weight**2 - cert.witness.magnitude_sq) < 1e-15
    assert cert.witness.magnitude_sq > 0.0


# The witness search against the dense |T - T^T|^2 search of tests/oracles.py:
# the lib-corpus block shapes, 2 x n and n x 2, and integer matrices whose
# largest magnitude is tied across many column pairs, some in later blocks.
WITNESS_SHAPES = [(8, 8), (12, 12), (16, 16), (6, 36), (36, 6), (7, 49), (49, 7),
                  (8, 64), (64, 8), (2, 2), (2, 9), (2, 300), (9, 2), (300, 2)]


def _assert_witness_is_the_dense_one(G):
    # The kernel and numpy's outer product may round a product differently
    # (fused or not), so the magnitude matches to round-off.
    quad, mag = cv.concurrence._witness_quadruple(G)
    dense_quad, dense_mag = oracles.witness_quadruple_dense(G)
    assert quad == dense_quad
    assert abs(mag - dense_mag) <= 1e-14 * dense_mag
    return mag


@pytest.mark.parametrize("budget", [None, 30])
@pytest.mark.parametrize("shape", WITNESS_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_witness_matches_the_dense_search(monkeypatch, shape, budget):
    if budget is not None:  # complex elements, 16 bytes each
        monkeypatch.setattr(cv.wedge, "_CHUNK_BUDGET", 16 * budget)
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    G = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    _assert_witness_is_the_dense_one(G / np.linalg.norm(G))


@pytest.mark.parametrize("budget", [None, 30])
@pytest.mark.parametrize("seed", range(6))
def test_witness_ties_resolve_as_the_dense_search(monkeypatch, seed, budget):
    # Two rows of -1, 0, 1 and a smaller third: every minor is an exact
    # integer, and the largest |D|^2 recurs over many column pairs.
    if budget is not None:  # complex elements, 16 bytes each
        monkeypatch.setattr(cv.wedge, "_CHUNK_BUDGET", 16 * budget)
    rng = np.random.default_rng(seed)
    G = rng.integers(-1, 2, size=(3, 40)).astype(complex)
    G[2] *= 0.25
    mag = _assert_witness_is_the_dense_one(G)
    T = np.outer(G[0], G[1])
    assert np.count_nonzero(np.abs(T - T.T) ** 2 == mag) >= 4


def test_witness_memory_on_a_long_complement():
    # 8 x 4096: a dense search holds 4096^2 magnitudes (641 MiB traced); one
    # pass of the kernel over the two witness rows holds its chunk buffers.
    rng = np.random.default_rng(17)
    axes = (GridAxis(-4.0, 4.0, 8), GridAxis(-4.0, 4.0, 4096))
    state = GridState.from_amplitudes(axes, rng.normal(size=(8, 4096))
                                      + 1j * rng.normal(size=(8, 4096)))
    tracemalloc.start()
    try:
        cert = decide_separability(state, BP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "entangled"
    assert peak < 8 * 2**20, peak
    ((a,), (b,)), ((x,), (y,)) = cert.witness.slice_pair, cert.witness.basis_pair
    G = cv.split(state, BP).G
    d = G[a, x] * G[b, y] - G[a, y] * G[b, x]
    assert x < y and abs(abs(d) ** 2 - cert.witness.magnitude_sq) < 1e-14 * abs(d) ** 2


# Every consumer of the wedge kernel: (function of the state, plain-loop
# oracle, the shape of the matrix the kernel walks, from the block matrix's).
# Route A walks the side with fewer rows when the minors are few, as here.
WEDGE_CONSUMERS = {
    "A": (concurrence_route_A, oracles.direct_concurrence, lambda shape: sorted(shape)),
    "Lambda_gap": (cv.lambda_invariance_gap, oracles.lambda_gap, lambda shape: shape),
    "family_p1": (lambda s, bp: family_measure(s, bp, "identity", 1, 1),
                  lambda s, bp: oracles.family_p_norm(s, bp, 1), lambda shape: shape[::-1]),
    "family_pinf": (lambda s, bp: family_measure(s, bp, "identity", np.inf, 1),
                    lambda s, bp: oracles.family_p_norm(s, bp, np.inf), lambda shape: shape[::-1]),
}


@pytest.mark.parametrize("consumer", sorted(WEDGE_CONSUMERS))
@pytest.mark.parametrize("members", [(0,), (1, 2)])
def test_route_A_chunk_boundaries(monkeypatch, members, consumer):
    # A 5 x 4 x 6 state split 5 | 24 (gm << gmbar) and 24 | 5 (gm >> gmbar),
    # with the budget set so that several chunks run and the last is partial.
    wedge = sys.modules["cvconc.wedge"]
    func, oracle, walked = WEDGE_CONSUMERS[consumer]
    state = small_random_state(101, shape=(5, 4, 6))
    bp = Bipartition(3, members)
    G, _, _ = cv.states.block_matrix(state, bp)
    rows, cols = walked(G.shape)
    npairs = rows * (rows - 1) // 2
    ncolpairs = cols * (cols - 1) // 2
    # Bytes: one cache line to align the buffers, and three rows of whole
    # lines holding ncolpairs * (npairs // 3 + 1) minors each.
    line = wedge._LINE // G.itemsize
    budget = wedge._LINE + 3 * wedge._LINE * -(-ncolpairs * (npairs // 3 + 1) // line)
    monkeypatch.setattr(wedge, "_CHUNK_BUDGET", budget)
    chunk_sizes = []
    original = wedge._wedge_blocks

    def recording_chunks(chunks):
        for a, b, d in chunks:
            chunk_sizes.append(d.size)
            yield a, b, d

    def recording_blocks(M):
        assert M.shape == (rows, cols)
        for x, y, chunks in original(M):
            yield x, y, recording_chunks(chunks)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "cvconc" and vars(mod).get("_wedge_blocks") is original:
            monkeypatch.setattr(mod, "_wedge_blocks", recording_blocks)
    value = func(state, bp)
    monkeypatch.undo()
    assert len(chunk_sizes) >= 3
    assert chunk_sizes[-1] < chunk_sizes[0]
    assert 3 * G.itemsize * max(chunk_sizes) <= budget
    assert sum(chunk_sizes) == npairs * ncolpairs
    assert abs(value - oracle(state, bp)) < 1e-12


# Routes B, C and Lambda on the smaller Gram matrix against the member-side
# einsum overlap and the row-by-row doubled-grid overlap of tests/oracles.py.
GRAM_ROUTES = ("B", "C", "Lambda")


def _gram_route_errors(sp):
    overlap, lam = oracles.overlap_route_einsum(sp.G), oracles.lambda_route_rows(sp.G)
    expected = {"B": overlap, "C": overlap, "Lambda": lam}
    return {name: abs(cv.concurrence.ROUTES[name][1](sp) - expected[name])
            for name in GRAM_ROUTES}


def _random_split(shape, seed):
    # Random amplitudes and positive weights on a member x complement block.
    rng = np.random.default_rng(seed)
    F = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    wm, wrest = rng.uniform(0.1, 1.0, shape[0]), rng.uniform(0.1, 1.0, shape[1])
    return cv.states.Split.from_blocks(BP, F, wm, wrest)


@pytest.mark.parametrize("shape, members", [
    ((8, 8), (0,)), ((8, 8), (1,)), ((12, 12), (0,)), ((12, 12), (1,)),
    ((16, 16), (0,)), ((16, 16), (1,)),
    ((6, 6, 6), (0,)), ((6, 6, 6), (0, 2)), ((7, 7, 7), (0,)), ((7, 7, 7), (0, 2)),
    ((8, 8, 8), (0,)), ((8, 8, 8), (0, 2)),
])
def test_gram_routes_match_oracles_on_corpus_shapes(shape, members):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    box = 6.0 if len(shape) == 2 else 4.0
    axes = tuple(GridAxis(-box, box, p) for p in shape)
    state = GridState.from_amplitudes(axes, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    errors = _gram_route_errors(cv.split(state, Bipartition(len(shape), members)))
    assert max(errors.values()) < 1e-14, errors


@pytest.mark.parametrize("shape", [(4096, 16), (16, 4096), (1, 50), (50, 1)])
def test_gram_routes_match_oracles_on_lopsided_splits(shape):
    errors = _gram_route_errors(_random_split(shape, sum(shape)))
    assert max(errors.values()) < 1e-14, errors


def test_gram_routes_memory_on_the_smaller_side():
    # The member side of 4096 x 16 would hold a 4096^2 Gram matrix (256 MiB);
    # the smaller side needs a 16^2 one and a conjugated copy of G (1 MiB).
    sp = _random_split((4096, 16), 7)
    for name in GRAM_ROUTES:
        tracemalloc.start()
        try:
            cv.concurrence.ROUTES[name][1](sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (name, peak)


@pytest.mark.parametrize("shape", [(1, 50), (50, 1), (2, 50)])
def test_verdict_from_the_schmidt_weights_of_thin_splits(shape):
    # One row or column has one Schmidt weight: separable, where sigma_2 is absent.
    sp = _random_split(shape, 3)
    assert abs(sp.schmidt.sum() - 1.0) < 1e-12
    expected = "entangled" if min(shape) > 1 else "separable"
    assert cv.concurrence_report(sp, sp.bipartition).verdict == expected
