"""The matrix-free partial-transpose checks of `verify` against dense
operators built by the oracles: the matvec, the SVD certificate of the PPT
minimum and its separable lower bound, the probe check of the square
factorization, route E on lopsided splits, and per-check times."""

import time
import tracemalloc

import numpy as np
import pytest

import cvconc as cv
from cvconc import Bipartition, GaussianPureState, GridAxis, GridState, transpose
from cvconc.verification import run_verification

import oracles
from conftest import random_grid_state, random_product_state, raw_split

BP = Bipartition(2, (0,))


def random_state(seed, shape):
    rng = np.random.default_rng(seed)
    axes = tuple(GridAxis(-2.0, 2.0, p) for p in shape)
    return GridState.from_amplitudes(axes, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def random_probe(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


SPLITS = [
    (random_state(3, (6, 5)), BP),
    (random_state(5, (5, 7)), Bipartition(2, (1,))),
    (random_state(7, (3, 4, 2)), Bipartition(3, (0,))),
    (random_state(7, (3, 4, 2)), Bipartition(3, (0, 2))),
    (random_state(7, (3, 4, 2)), Bipartition(3, (1, 2))),
]
SPLIT_IDS = ["2-mode", "2-mode-M1", "3-mode-M0", "3-mode-M02", "3-mode-M12"]


@pytest.mark.parametrize("state,bp", SPLITS, ids=SPLIT_IDS)
def test_matvecs_match_the_dense_operators(state, bp):
    G = cv.split(state, bp).G
    Gc = G.conj()
    pt = oracles.dense_partial_transpose(G)
    tilde = oracles.dense_partial_transpose(G, tilde=True)
    rng = np.random.default_rng(11)
    V = random_probe(rng, (3, *G.shape))
    for dense, A, B in ((pt, G, Gc), (tilde, G, G), (tilde.conj().T, Gc, Gc)):
        stacked = transpose._pt_matvec(A, V, B)
        for k in range(V.shape[0]):
            expected = (dense @ V[k].reshape(-1)).reshape(G.shape)
            assert np.max(np.abs(transpose._pt_matvec(A, V[k], B) - expected)) < 1e-14
            assert np.max(np.abs(stacked[k] - expected)) < 1e-14


def bell_like_G():
    # sigma_1 = sigma_2 = 1/sqrt(2) on a 3 x 4 block, rotated off the grid basis.
    rng = np.random.default_rng(13)
    U, _ = np.linalg.qr(random_probe(rng, (3, 3)))
    W, _ = np.linalg.qr(random_probe(rng, (4, 4)))
    return (U[:, :2] @ W[:, :2].T) / np.sqrt(2.0)


def one_row_G():
    rng = np.random.default_rng(17)
    g = random_probe(rng, (1, 7))
    return g / np.linalg.norm(g)


CERTIFICATE_CASES = [cv.split(state, bp).G for state, bp in SPLITS] + [
    cv.split(random_product_state(np.random.default_rng(19)), BP).G,
    cv.split(random_product_state(np.random.default_rng(23), n_axes=3),
             Bipartition(3, (0, 2))).G,
    bell_like_G(),
    one_row_G(),
    one_row_G().T,
]
CERTIFICATE_IDS = SPLIT_IDS + ["product", "product-3-mode", "bell-like", "1xn", "nx1"]


@pytest.mark.parametrize("G", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_ppt_certificate_and_bound_against_dense_minimum(G):
    dense = oracles.dense_ppt_min(G)
    sp = raw_split(G)
    upper = cv.ppt_min_eigenvalue(sp, sp.bipartition)
    # The bound that verify reports on the separable side, from the Schmidt
    # weights sigma_i^2 of the split.
    lower = -2.0 * float(np.sqrt(np.sum(sp.schmidt[1:])))
    assert abs(upper - dense) < 1e-12
    # The lower bound is proven; allow only round-off of the dense solve.
    assert lower <= dense + 1e-14


@pytest.mark.parametrize("state,bp", SPLITS[:3], ids=SPLIT_IDS[:3])
def test_ppt_min_eigenvalue_is_the_dense_minimum(state, bp):
    dense = oracles.dense_ppt_min(cv.split(state, bp).G)
    assert abs(cv.ppt_min_eigenvalue(state, bp) - dense) < 1e-12


def test_factorization_check_rejects_a_corrupted_operator(monkeypatch):
    state = random_grid_state(np.random.default_rng(29))
    assert cv.pt_square_factorization_gap(state, BP) < 1e-10
    original = transpose._pt_matvec

    def corrupted(A, V, B):
        out = original(A, V, B)
        out[..., 0, 0] += 1e-9
        return out

    monkeypatch.setattr(transpose, "_pt_matvec", corrupted)
    assert cv.pt_square_factorization_gap(state, BP) > 1e-10
    checks = {c["name"]: c for c in run_verification(state, BP).checks}
    assert not checks["pt_square_factorization"]["passed"]


def test_factorization_probes_are_deterministic():
    state = random_grid_state(np.random.default_rng(31))
    assert cv.pt_square_factorization_gap(state, BP) == cv.pt_square_factorization_gap(state, BP)


def test_factorization_probes_are_seeded_unit_phases(monkeypatch):
    # The probes reach the first matrix-free application as V: entries 1, i,
    # -1, -i, each of the four drawn, the same on every call.
    sp = cv.split(random_grid_state(np.random.default_rng(37)), BP)
    original, args = transpose._pt_matvec, []

    def recording(A, V, B):
        args.append(V)
        return original(A, V, B)

    monkeypatch.setattr(transpose, "_pt_matvec", recording)
    draws = []
    for _ in range(2):
        args.clear()
        cv.pt_square_factorization_gap(sp, BP)
        draws.append(args[0].copy())
    V = draws[0]
    assert V.shape == (transpose._PROBES, *sp.G.shape)
    assert np.all(np.abs(V) == 1.0)
    assert set(np.unique(V).tolist()) == {1.0, 1.0j, -1.0, -1.0j}
    assert np.array_equal(draws[0], draws[1])


def test_verify_passes_on_splits_beyond_the_dense_cap():
    # Edges 64^2 = 4096, 18 x 324 = 5832 and 72^2 = 5184; the dense operators
    # would take 256 MiB, 519 MiB and 410 MiB.
    state64 = random_state(37, (64, 64))
    spec = GaussianPureState(np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]],
                                      dtype=complex))
    gauss18 = cv.discretize(spec, [GridAxis(-8.0, 8.0, 18)] * 3)
    product72 = GridState.from_amplitudes(
        (GridAxis(-3.0, 3.0, 72),) * 2,
        np.outer(*(random_probe(np.random.default_rng(s), 72) for s in (41, 43))))
    for state, bp in ((state64, BP), (gauss18, Bipartition(3, (0,))), (product72, BP)):
        report = run_verification(state, bp)
        assert report.overall, [c for c in report.checks if not c["passed"]]


def test_verification_checks_record_their_seconds():
    start = time.perf_counter()
    report = run_verification(random_grid_state(np.random.default_rng(53)), BP)
    elapsed = time.perf_counter() - start
    seconds = [c["seconds"] for c in report.checks]
    assert all(s >= 0.0 for s in seconds)
    assert sum(seconds) <= elapsed
    for check in report.to_dict()["checks"]:
        assert set(check) == {"name", "measured", "tolerance", "passed", "seconds"}


def test_route_e_on_a_lopsided_split_stays_within_the_chunk_budget():
    state = random_state(59, (8, 2048))
    G = cv.split(state, BP).G
    reference = 2.0 * (1.0 - np.linalg.norm(G @ G.conj().T) * np.linalg.norm(G.T @ G.conj()))
    tracemalloc.start()
    try:
        value = cv.concurrence_route_E(state, BP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert abs(value - reference) < 1e-12
    assert abs(cv.concurrence_route_E(state, Bipartition(2, (1,))) - reference) < 1e-12


@pytest.mark.parametrize("budget", [2**16, 5 * 2**16 + 8])
def test_route_e_blocks_follow_the_chunk_budget_at_call_time(monkeypatch, budget):
    # Route E reads the wedge module's budget when it runs: with a smaller
    # one its column blocks of the 8 x 2048 split shrink to fit, and the
    # value moves only by the order of the block sums.
    sp = cv.split(random_state(61, (8, 2048)), BP)
    default = cv.concurrence_route_E(sp, BP)
    vdot, blocks = np.vdot, []

    def recording_vdot(a, b):
        blocks.append(a.shape)
        return vdot(a, b)

    monkeypatch.setattr(cv.wedge, "_CHUNK_BUDGET", budget)
    monkeypatch.setattr(np, "vdot", recording_vdot)
    value = cv.concurrence_route_E(sp, BP)
    monkeypatch.undo()
    step = budget // (16 * 2048)
    assert blocks == [(step, 2048)] * (2048 // step) + [(2048 % step, 2048)] * (2048 % step > 0)
    assert abs(value - default) < 1e-12
