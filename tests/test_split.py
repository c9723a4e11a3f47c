"""The prepared split: one block matrix, Gram matrix and Schmidt SVD per
command and, in the library, per state and bipartition (the state holds its
split); read-only arrays, unit norm, the route table every consumer reads, and
the one Gaussian sampler."""

import dataclasses
import functools
import gc
import json
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import cvconc as cv
from cvconc import Bipartition, GaussianPureState, GridAxis, GridState
from cvconc import concurrence as conc
from cvconc.cli import main
from cvconc.quadrature import midpoint_rule
from cvconc.serialization import gaussian_to_dict, save_grid_state

import oracles
from conftest import random_grid_state, random_product_state, shaped_state, traced_peak

BP = Bipartition(2, (0,))


def off_norm_state(seed=29, excess=5e-10):
    """A random state whose stored norm^2 is 1 + excess, inside NORM_TOL."""
    state = random_grid_state(np.random.default_rng(seed))
    return GridState(state.axes, state.amplitudes * np.sqrt(1.0 + excess))


def count_calls(monkeypatch, module, name):
    """Count calls of module.name through every cvconc module that holds it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "cvconc" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_split_matches_block_matrix_at_unit_norm():
    state = off_norm_state()
    assert abs(state.norm_squared - 1.0 - 5e-10) < 1e-12
    sp = cv.split(state, BP)
    F, wm, wrest = cv.states.block_matrix(state, BP)
    G = F * np.sqrt(np.outer(wm, wrest))
    assert abs(np.linalg.norm(sp.G) - 1.0) < 1e-15
    assert np.array_equal(sp.wm, wm) and np.array_equal(sp.wrest, wrest)
    scale = np.sqrt(1.0 + 5e-10)
    assert np.max(np.abs(sp.G * scale - G)) < 1e-15
    assert np.max(np.abs(sp.F * scale - F)) < 1e-14


def test_routes_agree_on_an_off_norm_state():
    state = off_norm_state()
    report = cv.concurrence_report(state, BP)
    assert report.max_pairwise_gap < 1e-12
    for name in ("A", "C", "D", "E"):
        assert abs(conc.ROUTES[name][1](cv.split(state, BP)) - report.E2) < 1e-12
    assert abs(cv.concurrence_route_C(state, BP) - report.routes["route_B_overlap"]) < 1e-12
    assert cv.run_verification(state, BP).overall


@pytest.mark.parametrize("n_axes, members", [(2, "0"), (3, "0,2")])
def test_library_and_cli_give_one_answer(tmp_path, capsys, n_axes, members):
    state = random_grid_state(np.random.default_rng(59), n_axes=n_axes, max_pts=12)
    bp = Bipartition.parse(members, n_axes)
    path = tmp_path / "state.json"
    save_grid_state(state, path)
    report = cv.concurrence_report(state, bp)
    assert main(["concurrence", str(path), "--M", members]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(report.routes) == {conc.ROUTES[name][0] for name in conc.DEFAULT_ROUTES}
    assert report.values() == {**report.routes, "E2": report.E2}
    assert {key: out[key] for key in report.values()} == report.values()
    for key in ("entropy", "schmidt_rank", "verdict", "max_pairwise_gap", "mass_defect"):
        assert out[key] == getattr(report, key), key
    assert abs(report.E2 - oracles.schmidt_e2(state, bp)) < 1e-12
    assert report.verdict == "entangled" and report.schmidt_rank >= 2


def test_route_agreement_checks_the_svd_answer(monkeypatch):
    # A scaled leading Schmidt weight moves E2 alone; all six routes still
    # agree. (E2 reads the weights relative to their sum, so scaling them all
    # would leave it as it is.)
    state = random_grid_state(np.random.default_rng(61))
    original = cv.Split.schmidt.func

    def perturbed(sp):
        weights = original(sp).copy()
        weights[0] *= 0.999
        return weights

    monkeypatch.setattr(cv.Split, "schmidt", property(perturbed))
    checks = {c["name"]: c for c in cv.run_verification(state, BP).checks}
    assert not checks["route_agreement"]["passed"]
    assert cv.concurrence_report(state, BP).max_pairwise_gap > 1e-6


def test_cli_concurrence_on_an_off_norm_file(tmp_path, capsys):
    path = tmp_path / "off.json"
    save_grid_state(off_norm_state(), path)
    assert main(["concurrence", str(path), "--M", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_pairwise_gap"] < 1e-12
    assert main(["concurrence", str(path), "--M", "0", "--routes", "A,B"]) == 0
    assert json.loads(capsys.readouterr().out)["max_pairwise_gap"] < 1e-12
    assert main(["verify", str(path), "--M", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"


def test_verify_passes_beyond_the_old_dense_cap(tmp_path, capsys):
    # 65 x 65 = 4225 is above the dense-operator cap of 4096 that only
    # build_rho_pt keeps; verify builds no dense operator.
    spec = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(gaussian_to_dict(spec)))
    assert main(["verify", str(path), "--M", "0", "--grid", "65"]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "pass"


@pytest.mark.parametrize("argv", [
    ["concurrence", "--routes", "A,B,C,Lambda,D,E"],
    ["verify"],
])
def test_cli_builds_one_block_matrix(tmp_path, capsys, monkeypatch, argv):
    path = tmp_path / "prod.json"
    save_grid_state(random_product_state(np.random.default_rng(37)), path)
    calls = count_calls(monkeypatch, cv.states, "block_matrix")
    assert main([argv[0], str(path), "--M", "0", *argv[1:]]) == 0
    assert len(calls) == 1


def library_sequence(state, bp):
    """The report, the certificate, routes C, D and E and the family at p = 1,
    2 and inf on one (state, bipartition): the eight calls that each
    lib-corpus operation of bench/run.py makes."""
    return (cv.concurrence_report(state, bp), cv.decide_separability(state, bp),
            cv.concurrence_route_C(state, bp), cv.concurrence_route_D(state, bp),
            cv.concurrence_route_E(state, bp),
            cv.family_measure(state, bp, "identity", 1, 1),
            cv.family_measure(state, bp, "two_x_squared", 2, 1),
            cv.family_measure(state, bp, "identity", np.inf, 1))


def sequence_values(results):
    """The report's values and verdict, the certificate's verdict and the
    six numbers of library_sequence, comparable with ==."""
    report, cert, *numbers = results
    return report.values(), report.verdict, cert.verdict, numbers


def test_library_builds_one_block_matrix(monkeypatch):
    # The state holds its split, so every call on (state, BP) reads it.
    calls = count_calls(monkeypatch, cv.states, "block_matrix")
    for make in (random_product_state, random_grid_state):
        state = make(np.random.default_rng(41))
        library_sequence(state, BP)
        assert len(calls) == 1
        calls.clear()


def count_forms(monkeypatch, name):
    """Count how often the cached Split attribute name is formed."""
    calls = []
    original = getattr(cv.Split, name).func

    def counted(sp):
        calls.append(sp)
        return original(sp)

    prop = functools.cached_property(counted)
    prop.__set_name__(cv.Split, name)
    monkeypatch.setattr(cv.Split, name, prop)
    return calls


@pytest.mark.parametrize("state", [
    random_product_state(np.random.default_rng(53)),
    random_grid_state(np.random.default_rng(53)),
], ids=["separable", "entangled"])
@pytest.mark.parametrize("argv", [
    ["concurrence", "--routes", "A,B,C,Lambda,D,E"],
    ["verify"],
])
def test_cli_forms_one_gram_matrix_and_one_svd(tmp_path, capsys, monkeypatch, argv, state):
    path = tmp_path / "state.json"
    save_grid_state(state, path)
    grams, weights = count_forms(monkeypatch, "K"), count_forms(monkeypatch, "schmidt")
    assert main([argv[0], str(path), "--M", "0", *argv[1:]]) == 0
    assert (len(grams), len(weights)) == (1, 1)


def test_library_forms_one_gram_matrix_and_one_svd_per_split(monkeypatch):
    state = random_grid_state(np.random.default_rng(57))
    grams, weights = count_forms(monkeypatch, "K"), count_forms(monkeypatch, "schmidt")
    library_sequence(state, BP)
    assert (len(grams), len(weights)) == (1, 1)
    assert cv.run_verification(state, BP).overall
    sp = cv.split(state, BP)
    cv.concurrence_report(sp, BP, routes=conc.ROUTES)
    cv.concurrence_report(sp, BP)
    assert (len(grams), len(weights)) == (1, 1)
    # Across another bipartition the state builds, and holds, a new split.
    assert cv.decide_separability(state, Bipartition(2, (1,))).verdict == "entangled"
    cv.concurrence_report(state, Bipartition(2, (1,)))
    assert (len(grams), len(weights)) == (2, 2)


def test_the_gram_matrix_and_schmidt_weights_are_read_only():
    sp = cv.split(random_grid_state(np.random.default_rng(59)), BP)
    assert sp.K is sp.K and sp.schmidt is sp.schmidt
    with pytest.raises(ValueError):
        sp.K[0, 0] = 0.0
    with pytest.raises(ValueError):
        sp.schmidt[0] = 0.0


def test_a_state_and_its_split_are_read_only():
    state = random_grid_state(np.random.default_rng(59))
    sp = cv.split(state, BP)
    for name, array in [("amplitudes", state.amplitudes),
                        *((name, getattr(sp, name)) for name in ("F", "G", "wm", "wrest"))]:
        with pytest.raises(ValueError):
            array[0] = 0.0
        assert not array.flags.writeable, name


def read_only_view(a):
    view = a.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("given", [
    lambda amp: amp,
    lambda amp: amp.reshape(-1),
    read_only_view,
], ids=["array", "flat-view", "read-only-view"])
def test_writing_the_callers_array_changes_nothing(given):
    # The state copies an array the caller can still write to, the same
    # array or a view of it, before it stores it read-only.
    base = shaped_state(np.random.default_rng(61), (9, 7))
    expected = sequence_values(library_sequence(GridState(base.axes, base.amplitudes), BP))
    amp = np.array(base.amplitudes)
    state = GridState(base.axes, given(amp))
    amp[0] = 0.0
    assert np.array_equal(state.amplitudes, base.amplitudes)
    assert sequence_values(library_sequence(state, BP)) == expected
    amp[1] = 0.0
    assert np.array_equal(state.amplitudes, base.amplitudes)
    assert np.array_equal(cv.split(state, BP).F, cv.split(base, BP).F)


def test_a_read_only_array_is_kept_without_a_copy():
    state = shaped_state(np.random.default_rng(61), (64, 64))
    assert np.shares_memory(GridState(state.axes, state.amplitudes).amplitudes, state.amplitudes)
    # from_amplitudes copies its input once, to scale it, and hands that over.
    amp = np.array(state.amplitudes)
    _, peak = traced_peak(GridState.from_amplitudes, state.axes, amp)
    assert peak < 1.5 * amp.nbytes, peak


def test_a_state_holds_only_its_last_split(monkeypatch):
    state = shaped_state(np.random.default_rng(71), (5, 4, 6))
    b0, b1 = Bipartition(3, (0,)), Bipartition(3, (1,))
    calls = count_calls(monkeypatch, cv.states, "block_matrix")
    first = cv.split(state, b0)
    assert cv.split(state, Bipartition(3, [0])) is first
    values = cv.concurrence_report(first, b0, routes=conc.ROUTES).values()
    dropped = weakref.ref(first)
    del first
    assert cv.split(state, b1) is cv.split(state, b1)
    gc.collect()
    assert dropped() is None
    last = cv.split(state, b0)
    assert len(calls) == 3
    assert cv.split(state, b0) is last and len(calls) == 3
    assert cv.concurrence_report(state, b0, routes=conc.ROUTES).values() == values
    cv.split(state, b1)
    assert len(calls) == 4


@pytest.mark.parametrize("state", [
    random_product_state(np.random.default_rng(47)),
    random_grid_state(np.random.default_rng(47)),
], ids=["separable", "entangled"])
def test_verify_builds_no_dense_partial_transpose(monkeypatch, state):
    calls = count_calls(monkeypatch, cv.transpose, "_pt_matrix")
    assert cv.run_verification(state, BP).overall
    assert len(calls) == 0


def test_each_consumer_runs_the_wedge_loop_once(tmp_path, capsys, monkeypatch):
    # The library report runs DEFAULT_ROUTES, which hold no quartic route, so
    # it is no consumer; `--routes A` and verify (all six routes) run it once.
    state = random_grid_state(np.random.default_rng(43))
    path = tmp_path / "rand.json"
    save_grid_state(state, path)
    calls = count_calls(monkeypatch, conc, "_wedge_sum_and_max")
    cv.concurrence_report(state, BP)
    assert len(calls) == 0
    assert main(["concurrence", str(path), "--M", "0", "--routes", "A"]) == 0
    assert len(calls) == 1
    cv.run_verification(state, BP)
    assert len(calls) == 2


def test_route_a_passes_one_positional_matrix(tmp_path, capsys, monkeypatch):
    # bench/tracer.py counts route A's quadruples from args[0].shape of
    # _wedge_sum_and_max, so every caller hands it G alone, positionally.
    state = random_grid_state(np.random.default_rng(43))
    path = tmp_path / "rand.json"
    save_grid_state(state, path)
    seen = []
    original = conc._wedge_sum_and_max

    def recording(*args, **kwargs):
        seen.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(conc, "_wedge_sum_and_max", recording)
    assert main(["concurrence", str(path), "--M", "0", "--routes", "A"]) == 0
    cv.run_verification(state, BP)
    assert len(seen) == 2
    for args, kwargs in seen:
        assert kwargs == {} and len(args) == 1
        assert type(args[0]) is np.ndarray and args[0].ndim == 2


def test_gaussian_numeric_on_the_midpoint_rule_is_the_grid_report():
    spec = GaussianPureState(np.array([[1.0, 0.4 + 0.3j], [0.4 + 0.3j, 1.5]]))
    axes = [GridAxis(-5.0, 5.0, 24), GridAxis(-4.0, 4.0, 20)]
    numeric = cv.concurrence_gaussian_numeric(spec, BP, midpoint_rule(axes))
    grid = cv.concurrence_report(cv.discretize(spec, axes), BP)
    for key, value in grid.values().items():
        assert abs(numeric.values()[key] - value) < 1e-12, key
    assert numeric.verdict == grid.verdict == "entangled"
    assert abs(numeric.mass_defect - grid.mass_defect) < 1e-12
    assert numeric.mass_defect > 0.0


# Every public route and identity check, the family at p = 1, 2 and inf, and
# the report with all six routes, as a function of (state or prepared split,
# bipartition).
SPLIT_CONSUMERS = {
    "route_A": cv.concurrence_route_A,
    "route_B": cv.concurrence_route_B,
    "route_C": cv.concurrence_route_C,
    "route_Lambda": cv.concurrence_route_Lambda,
    "route_D": cv.concurrence_route_D,
    "route_E": cv.concurrence_route_E,
    "lambda_invariance_gap": cv.lambda_invariance_gap,
    "pt_square_factorization_gap": cv.pt_square_factorization_gap,
    "hs_identity_gap": cv.hs_identity_gap,
    "ppt_min_eigenvalue": cv.ppt_min_eigenvalue,
    "family_p1": lambda s, bp: cv.family_measure(s, bp, "identity", 1, 1),
    "family_p2": lambda s, bp: cv.family_measure(s, bp, "identity", 2, 1),
    "family_pinf": lambda s, bp: cv.family_measure(s, bp, "identity", np.inf, 1),
    "concurrence_report": lambda s, bp: cv.concurrence_report(s, bp, routes=conc.ROUTES),
}


@pytest.mark.parametrize("name", SPLIT_CONSUMERS)
@pytest.mark.parametrize("shape, members", [((9, 7), (0,)), ((5, 4, 6), (0, 2))],
                         ids=["2-mode", "3-mode-0,2"])
def test_a_prepared_split_gives_the_value_of_the_state(monkeypatch, name, shape, members):
    state = shaped_state(np.random.default_rng(67), shape)
    bp = Bipartition(len(shape), members)
    sp = cv.split(state, bp)
    calls = count_calls(monkeypatch, cv.states, "block_matrix")
    from_split = SPLIT_CONSUMERS[name](sp, bp)
    assert len(calls) == 0
    # The state holds sp; a second state on the same read-only amplitudes
    # holds no split, so its call builds a fresh one.
    assert SPLIT_CONSUMERS[name](state, bp) == from_split
    assert len(calls) == 0
    fresh = GridState(state.axes, state.amplitudes)
    assert SPLIT_CONSUMERS[name](fresh, bp) == from_split
    assert len(calls) == 1


def same_certificate(a, b):
    """Equal verdicts, thresholds, witnesses and reconstruction errors, and
    factor states with equal axes and array_equal amplitudes."""
    factors = [(a.factor_m, b.factor_m), (a.factor_rest, b.factor_rest)]
    return (
        (a.verdict, a.threshold, a.witness, a.reconstruction_error)
        == (b.verdict, b.threshold, b.witness, b.reconstruction_error)
        and all((x is None and y is None) or (
            x.axes == y.axes and np.array_equal(x.amplitudes, y.amplitudes))
            for x, y in factors)
    )


def verification_rows(report):
    """Each check but its wall time."""
    return [(c["name"], c["measured"], c["tolerance"], c["passed"]) for c in report.checks]


@pytest.mark.parametrize("product", [False, True], ids=["entangled", "separable"])
@pytest.mark.parametrize("shape, members", [((9, 7), (0,)), ((5, 4, 6), (0, 2))],
                         ids=["2-mode", "3-mode-0,2"])
def test_a_prepared_split_gives_the_certificate_and_checks_of_the_state(
        monkeypatch, product, shape, members):
    # These read the state's axes and stored norm, which a Split carries.
    state = shaped_state(np.random.default_rng(79), shape, product=product)
    bp = Bipartition(len(shape), members)
    sp = cv.split(state, bp)
    calls = count_calls(monkeypatch, cv.states, "block_matrix")
    cert, checks = cv.decide_separability(sp, bp), cv.run_verification(sp, bp)
    assert len(calls) == 0
    assert cert.verdict == ("separable" if product else "entangled")
    # A second state on the same amplitudes builds one fresh split for both.
    fresh = GridState(state.axes, state.amplitudes)
    assert same_certificate(cert, cv.decide_separability(fresh, bp))
    assert verification_rows(checks) == verification_rows(cv.run_verification(fresh, bp))
    assert len(calls) == 1


def test_a_split_carries_what_its_state_knew():
    state = off_norm_state()
    sp = cv.split(state, BP)
    assert sp.axes == state.axes and sp.mass_defect == 0.0
    assert abs(sp.norm_squared - state.norm_squared) < 1e-15
    checks = {c["name"]: c for c in cv.run_verification(sp, BP).checks}
    assert abs(checks["normalization"]["measured"] - 5e-10) < 1e-15
    spec = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    with pytest.warns(cv.TruncationWarning):
        narrow = cv.discretize(spec, [GridAxis(-1.5, 1.5, 16)] * 2)
    sp = cv.split(narrow, BP)
    assert sp.mass_defect == narrow.diagnostics["mass_defect"] > 1e-3
    assert cv.concurrence_report(sp, BP).mass_defect == sp.mass_defect


def test_a_split_without_axes_has_no_certificate(monkeypatch):
    # The shapes of the witness and the factors come from the axes, so a split
    # from another product rule is refused before its SVD.
    F, wm, wrest = cv.states.block_matrix(random_product_state(np.random.default_rng(83)), BP)
    sp = cv.Split.from_blocks(BP, F, wm, wrest)
    assert sp.axes is None
    weights = count_forms(monkeypatch, "schmidt")
    with pytest.raises(cv.InputError):
        cv.decide_separability(sp, BP)
    assert len(weights) == 0
    assert cv.concurrence_report(sp, BP).verdict == "separable"


def test_a_split_across_another_bipartition_is_refused():
    state = shaped_state(np.random.default_rng(71), (5, 4, 6))
    sp = cv.split(state, Bipartition(3, (0, 2)))
    assert cv.split(sp, Bipartition(3, (2, 0))) is sp
    for other in (Bipartition(3, (0,)), Bipartition(3, (1,)), Bipartition(2, (0,))):
        with pytest.raises(cv.InputError):
            cv.split(sp, other)
        with pytest.raises(cv.InputError):
            cv.concurrence_route_B(sp, other)


@pytest.mark.parametrize("state", [
    random_product_state(np.random.default_rng(73)),
    random_grid_state(np.random.default_rng(73)),
], ids=["separable", "entangled"])
def test_routes_and_verify_call_the_public_functions(monkeypatch, state):
    # ROUTES and run_verification look each route and check up on its module
    # when they run, so a wrapper installed there sees every call.
    public = {
        conc: ("concurrence_route_A", "concurrence_route_B", "concurrence_route_Lambda"),
        cv.spectral: ("concurrence_route_C", "hs_identity_gap"),
        cv.transpose: ("concurrence_route_D", "concurrence_route_E",
                       "pt_square_factorization_gap", "lambda_invariance_gap"),
    }
    calls = {name: count_calls(monkeypatch, module, name)
             for module, names in public.items() for name in names}
    assert cv.run_verification(state, BP).overall
    counts = {name: len(seen) for name, seen in calls.items()}
    # Route D runs once in route_agreement and once in hs_identity; the Lambda
    # gap is a check of separable states only.
    expected = dict.fromkeys(counts, 1)
    expected["concurrence_route_D"] = 2
    if cv.concurrence_report(state, BP).verdict == "entangled":
        expected["lambda_invariance_gap"] = 0
    assert counts == expected
    for seen in calls.values():
        assert all(isinstance(args[0], cv.Split) for args in seen)


@pytest.mark.parametrize("routes,message", [
    (("X",), "unknown route 'X'"),
    # A bare string was read letter by letter: "BC" ran B and C, and
    # "Lambda" failed with KeyError: 'L'.
    ("BC", "not the string 'BC'"),
    ("Lambda", "not the string 'Lambda'"),
])
def test_report_refuses_bad_route_names_before_any_work(monkeypatch, routes, message):
    state = random_grid_state(np.random.default_rng(37))
    calls = count_calls(monkeypatch, cv.states, "block_matrix")
    with pytest.raises(cv.InputError, match=message):
        cv.concurrence_report(state, BP, routes=routes)
    assert calls == []


def test_a_real_state_splits_into_real_arrays():
    # Every imaginary part zero: F, G and K are float64, so the routes and
    # checks run real BLAS and LAPACK; one nonzero imaginary part keeps the
    # split complex128.
    spec = GaussianPureState(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    real = cv.discretize(spec, [GridAxis(-5.0, 5.0, 12)] * 2)
    assert real.amplitudes.dtype == np.complex128
    sp = cv.split(real, BP)
    assert sp.F.dtype == sp.G.dtype == sp.K.dtype == np.float64
    amp = real.amplitudes.copy()
    amp[3, 4] += 1e-12j
    sp = cv.split(GridState.from_amplitudes(real.axes, amp), BP)
    assert sp.F.dtype == sp.G.dtype == sp.K.dtype == np.complex128
    assert cv.split(random_grid_state(np.random.default_rng(7)), BP).G.dtype == np.complex128


REAL_GAUSSIANS = {
    "2-mode": ([[1.0, 0.45], [0.45, 0.9]], (0,)),
    "2-mode-product": ([[1.0, 0.0], [0.0, 0.7]], (0,)),
    "3-mode-0": ([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]], (0,)),
    "3-mode-0,2": ([[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]], (0, 2)),
}


@pytest.mark.parametrize("name", sorted(REAL_GAUSSIANS))
def test_real_arithmetic_gives_the_complex_results(name):
    # The same split with F and G cast to complex128 runs the complex path.
    # Only the probe check differs beyond round-off: its real path takes the
    # real and imaginary parts of the probes as separate real probes.
    A, members = REAL_GAUSSIANS[name]
    points = 14 if len(A) == 2 else 9
    state = cv.discretize(GaussianPureState(np.array(A, dtype=complex)),
                          [GridAxis(-5.0, 5.0, points)] * len(A))
    bp = Bipartition(len(A), members)
    real = cv.split(state, bp)
    cast = dataclasses.replace(real, F=real.F.astype(complex), G=real.G.astype(complex))
    assert real.G.dtype == np.float64 and cast.G.dtype == np.complex128

    reports = [cv.concurrence_report(sp, bp, routes=conc.ROUTES) for sp in (real, cast)]
    assert reports[0].verdict == reports[1].verdict
    assert reports[0].schmidt_rank == reports[1].schmidt_rank
    assert abs(reports[0].entropy - reports[1].entropy) <= 1e-14
    values = [r.values() for r in reports]
    assert values[0].keys() == values[1].keys()
    assert all(abs(values[0][k] - values[1][k]) <= 1e-14 for k in values[0])

    certs = [cv.decide_separability(sp, bp) for sp in (real, cast)]
    assert certs[0].verdict == certs[1].verdict
    if certs[0].witness is None:
        for a, b in ((certs[0].factor_m, certs[1].factor_m),
                     (certs[0].factor_rest, certs[1].factor_rest)):
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-14
    else:
        w0, w1 = certs[0].witness, certs[1].witness
        assert (w0.slice_pair, w0.basis_pair) == (w1.slice_pair, w1.basis_pair)
        assert abs(w0.magnitude_sq - w1.magnitude_sq) <= 1e-14

    rows = [verification_rows(cv.run_verification(sp, bp)) for sp in (real, cast)]
    assert [r[::3] for r in rows[0]] == [r[::3] for r in rows[1]]
    for (check, measured, _, _), (_, other, _, _) in zip(*rows):
        if check == "pt_square_factorization":
            assert max(abs(measured), abs(other)) < 1e-10
        else:
            assert abs(measured - other) <= 1e-14, check


# Every member set of 2- and 3-mode grids whose axes have unequal spacings.
GRID_SPLITS = [((9, 7), (0,)), ((9, 7), (1,))] + [
    ((5, 4, 6), members) for members in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
]


@pytest.mark.parametrize("shape, members", GRID_SPLITS)
@pytest.mark.parametrize("real", [False, True])
def test_a_grid_split_equals_its_product_rule_split(shape, members, real):
    # A grid state scales F by its one node weight; the product-rule path
    # scales it by the matrix of node weights. Both give the same bits.
    rng = np.random.default_rng(sum(shape) + sum(members))
    axes = tuple(GridAxis(-2.5 - 0.3 * k, 3.0 + 0.7 * k, n) for k, n in enumerate(shape))
    amp = rng.normal(size=shape) + (0.0 if real else 1j * rng.normal(size=shape))
    state = GridState.from_amplitudes(axes, amp)
    bp = Bipartition(len(shape), members)
    grid = cv.split(state, bp)
    rule = cv.Split.from_blocks(
        bp, *cv.states._blocks(state.amplitudes, [ax.weights for ax in axes], bp))
    for name in ("F", "G", "wm", "wrest"):
        a, b = getattr(grid, name), getattr(rule, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert grid.F.dtype == (np.float64 if real else np.complex128)
    assert grid.norm_squared == rule.norm_squared
    assert grid.axes == axes and rule.axes is None


def test_a_grid_split_holds_no_matrix_of_node_weights(monkeypatch):
    # Up to the norm of G, splitting a complex 64^2 state holds G (64 KiB) and
    # no 64 x 64 matrix of node weights (32 KiB) beside it.
    state = shaped_state(np.random.default_rng(43), (64, 64))
    peaks, norm = [], np.linalg.norm

    def recording_norm(x, *args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    tracemalloc.start()
    try:
        cv.split(state, BP)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 64 * 64 * (16 + 4), peaks


def test_a_rule_that_captures_no_mass_is_refused():
    # On [100, 110]^2 the Gaussian underflows to 0 at every node, so G has norm
    # 0: refused before any division, with no RuntimeWarning on the way.
    spec = GaussianPureState(np.array([[1.0, 0.3], [0.3, 1.0]]))
    rule = midpoint_rule([GridAxis(100.0, 110.0, 8)] * 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(cv.InputError, match="no finite mass"):
            cv.concurrence_gaussian_numeric(spec, BP, rule)
    assert [w.category for w in caught] == [cv.TruncationWarning]
