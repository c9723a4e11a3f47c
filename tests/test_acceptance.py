"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines as they complete.
"""

import json
import time

import numpy as np
import pytest

import cvconc as cv
from cvconc import Bipartition, GaussianPureState, GridAxis, GridState
from cvconc.cli import main

import oracles
from conftest import random_product_state

BP = Bipartition(2, (0,))
E2_C1 = 2.0 - np.sqrt(3.0)


def announce(number, description, passed):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {description}")
    assert passed, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def corpus_battery(corpus):
    """Every per-state quantity the corpus criteria consume, computed once."""
    rows = []
    start = time.monotonic()
    for state in corpus:
        routes = {
            "A": cv.concurrence_route_A(state, BP),
            "B": cv.concurrence_route_B(state, BP),
            "C": cv.concurrence_route_C(state, BP),
            "Lambda": cv.concurrence_route_Lambda(state, BP),
            "D": cv.concurrence_route_D(state, BP),
            "E": cv.concurrence_route_E(state, BP),
        }
        rows.append({"state": state, "routes": routes})
    elapsed = time.monotonic() - start
    return {"rows": rows, "route_time": elapsed}


def test_criterion_1_real_branch_sweep(tmp_path):
    start = time.monotonic()
    out = tmp_path / "fig1a.csv"
    assert main(["sweep", "--a", "1", "--b", "1", "--branch", "real",
                 "--c-min", "-1.995", "--c-max", "1.995", "--steps", "399",
                 "--out", str(out)]) == 0
    rows = [tuple(map(float, line.split(",")))
            for line in out.read_text().strip().splitlines()[1:]]
    ok = True
    for c, e2, norm in rows:
        expected_e2 = 2.0 * (1.0 - np.sqrt(4.0 - c * c) / 2.0)
        expected_norm = (2.0 * np.pi / np.sqrt(4.0 - c * c)) ** -0.5
        ok &= abs(e2 - expected_e2) <= 1e-15 * max(abs(expected_e2), 1.0)
        ok &= abs(norm - expected_norm) <= 1e-15 * abs(expected_norm)
    e2s = np.array([r[1] for r in rows])
    norms = np.array([r[2] for r in rows])
    ok &= e2s[199] == 0.0                                 # E^2(0) = 0
    ok &= bool(np.allclose(e2s, e2s[::-1], atol=1e-14))   # even in c
    ok &= e2s[0] > 1.7 and e2s[-1] > 1.7                  # toward 2 at the edges
    ok &= norms[0] < 0.2 and norms[-1] < 0.2              # norm toward 0
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    announce(1, f"real-branch closed forms to 1e-15, edge limits ({elapsed:.2f}s)", ok)


def test_criterion_2_imaginary_branch_sweep(tmp_path):
    start = time.monotonic()
    out = tmp_path / "fig1b.csv"
    assert main(["sweep", "--a", "1", "--b", "1", "--branch", "imag",
                 "--c-min", "-10", "--c-max", "10", "--steps", "401",
                 "--out", str(out)]) == 0
    rows = [tuple(map(float, line.split(",")))
            for line in out.read_text().strip().splitlines()[1:]]
    ok = True
    for m, e2, _ in rows:
        expected = 2.0 * (1.0 - 2.0 / np.sqrt(4.0 + m * m))
        ok &= abs(e2 - expected) <= 1e-15 * max(abs(expected), 1.0)
    edge = 2.0 * (1.0 - 2.0 / np.sqrt(104.0))
    ok &= abs(rows[0][1] - edge) < 1e-15 and abs(rows[-1][1] - edge) < 1e-15
    ok &= abs(edge - 1.6078) < 1e-4
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    announce(2, f"imaginary-branch closed forms to 1e-15 ({elapsed:.2f}s)", ok)


def test_criterion_3_grid_vs_closed_form():
    start = time.monotonic()
    spec = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    grid = cv.discretize(spec, [GridAxis(-8.0, 8.0, 64)] * 2)
    midpoint_err = abs(cv.concurrence_route_B(grid, BP) - E2_C1)
    rule = cv.gauss_hermite_rule(64, ndim=2)
    report = cv.concurrence_gaussian_numeric(spec, BP, rule)
    hermite_err = abs(report.routes["route_B_overlap"] - E2_C1)
    elapsed = time.monotonic() - start
    ok = midpoint_err < 2e-3 and hermite_err < 1e-6 and elapsed < 10.0
    announce(
        3,
        f"grid 0.26795 within 2e-3 (err {midpoint_err:.1e}) and Gauss-Hermite "
        f"within 1e-6 (err {hermite_err:.1e}) in {elapsed:.1f}s",
        ok,
    )


def test_criterion_4_route_equivalence(corpus_battery):
    worst = 0.0
    for row in corpus_battery["rows"]:
        values = list(row["routes"].values())
        gap = max(abs(u - v) for u in values for v in values)
        worst = max(worst, gap)
    elapsed = corpus_battery["route_time"]
    ok = worst < 1e-10 and elapsed < 120.0
    announce(
        4,
        f"six routes agree on 200 random states, max gap {worst:.1e} "
        f"({elapsed:.0f}s)",
        ok,
    )


def test_criterion_5_lagrange_identity():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 201))
        f = rng.normal(size=size) + 1j * rng.normal(size=size)
        g = rng.normal(size=size) + 1j * rng.normal(size=size)
        w = rng.uniform(0.05, 2.0, size=size)
        scale = float(np.sum(np.abs(f) ** 2 * w) * np.sum(np.abs(g) ** 2 * w))
        worst = max(worst, abs(cv.lagrange_identity_gap(f, g, w)) / scale)
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 5.0
    announce(5, f"Lagrange identity on 1000 pairs, max relative gap {worst:.1e}", ok)


def test_criterion_6_operator_identities(corpus_battery):
    worst_tr = 0.0
    worst_factor = 0.0
    for row in corpus_battery["rows"]:
        state = row["state"]
        op = cv.build_rho_pt(state, BP)
        worst_tr = max(worst_tr, abs(op.trace - 1.0))
        tr2 = complex(np.sum(op.matrix * op.matrix.T))
        worst_tr = max(worst_tr, abs(tr2 - 1.0))
        worst_factor = max(worst_factor, cv.pt_square_factorization_gap(state, BP))
    ok = worst_tr < 1e-10 and worst_factor < 1e-10
    announce(
        6,
        f"trace pins (gap {worst_tr:.1e}) and square factorization "
        f"(gap {worst_factor:.1e}) on the corpus",
        ok,
    )


def test_criterion_7_ppt_equivalence(corpus_battery, product_corpus):
    start = time.monotonic()
    ok = True
    for row in corpus_battery["rows"]:
        e2 = row["routes"]["B"]
        if e2 > 1e-3:
            ok &= cv.ppt_min_eigenvalue(row["state"], BP) < -1e-6
    for state in product_corpus:
        e2 = cv.concurrence_route_B(state, BP)
        if e2 < 1e-10:
            ok &= cv.ppt_min_eigenvalue(state, BP) >= -1e-8
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    announce(
        7,
        f"PPT negativity matches the entanglement verdict on every state "
        f"({elapsed:.0f}s)",
        ok,
    )


def test_criterion_8_entropy_bound(corpus_battery, product_corpus):
    ok = True
    for row in corpus_battery["rows"]:
        entropy = cv.von_neumann_entropy(cv.reduce(row["state"], BP))
        ok &= entropy >= row["routes"]["B"] / 2.0 - 1e-9
    for state in product_corpus:
        if cv.decide_separability(state, BP).verdict == "separable":
            ok &= cv.von_neumann_entropy(cv.reduce(state, BP)) < 1e-9
    spec = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    grid = cv.discretize(spec, [GridAxis(-8.0, 8.0, 48)] * 2)
    gaussian_entropy = cv.von_neumann_entropy(cv.reduce(grid, BP))
    ok &= gaussian_entropy > 0.13397
    announce(
        8,
        f"entropy bound S >= E^2/2 on the corpus; coupled Gaussian "
        f"S = {gaussian_entropy:.5f} > 0.13397",
        ok,
    )


def test_criterion_9_hilbert_schmidt_identity(corpus_battery):
    worst = 0.0
    for row in corpus_battery["rows"]:
        worst = max(worst, cv.hs_identity_gap(row["state"], BP))
    ok = worst < 1e-10
    announce(9, f"HS identity |route_D + 2 purity - 2| max {worst:.1e}", ok)


def test_criterion_10_wigner_checks():
    separable = GaussianPureState(np.eye(2, dtype=complex))
    coupled = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    norm = cv.wigner_normalization(coupled)
    ok = abs(norm - 1.0) < 1e-8
    rng = np.random.default_rng(1010)
    samples = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(1000)]
    gap_sep = cv.wigner_invariance_gap(separable, BP, samples)
    gap_ent = cv.wigner_invariance_gap(coupled, BP, samples)
    ok &= gap_sep < 1e-10 and gap_ent > 1e-4
    moment_err = abs(cv.wigner_pt_fourth_moment_concurrence(coupled, BP) - E2_C1)
    ok &= moment_err < 1e-3
    announce(
        10,
        f"Wigner normalization (gap {abs(norm - 1.0):.1e}), invariance "
        f"(separable {gap_sep:.1e}, coupled {gap_ent:.1e}), fourth moment "
        f"(err {moment_err:.1e})",
        ok,
    )


def test_criterion_11_separability_factorization():
    rng = np.random.default_rng(1111)
    worst = 0.0
    ok = True
    for k in range(20):
        n = 2 if k < 10 else 3
        state = random_product_state(rng, n_axes=n)
        members = (0,) if n == 2 else ((0, 2) if k % 2 else (1,))
        bp = Bipartition(n, members)
        cert = cv.decide_separability(state, bp)
        ok &= cert.verdict == "separable"
        if cert.verdict != "separable":
            continue
        recon = np.multiply.outer(cert.factor_m.amplitudes, cert.factor_rest.amplitudes)
        order = bp.members + bp.complement
        inverse = np.argsort(order)
        recon = np.transpose(recon, inverse)
        err = float(np.max(np.abs(recon - state.amplitudes)))
        worst = max(worst, err)
        ok &= err < 1e-9
    announce(
        11,
        f"factor-and-reconstruct on 20 product states (incl. non-contiguous "
        f"bipartitions), max error {worst:.1e}",
        ok,
    )
