"""Wedge coefficients and their weighted norms, the extended Lagrange
identity, and the minors and memory bound of the chunked wedge kernel."""

import sys
import threading

import numpy as np
import pytest

import cvconc.wedge as KERNEL
from cvconc import (
    Bipartition,
    GridAxis,
    GridState,
    concurrence_route_A,
    concurrence_route_D,
    family_measure,
    lagrange_identity_gap,
    lambda_invariance_gap,
)
from cvconc import concurrence as cv_concurrence
from cvconc import quadrature as cv_quadrature
from cvconc import transpose as cv_transpose
from cvconc.errors import InputError

import oracles
from conftest import raw_split, traced_peak


def _weighted_norms(f, g, w):
    nf = float(np.sum(np.abs(f) ** 2 * w))
    ng = float(np.sum(np.abs(g) ** 2 * w))
    ip = complex(np.sum(f * np.conj(g) * w))
    return nf, ng, ip


def _minor_chunks(M):
    """(a, b, D) of every chunk of the kernel on M, block by block."""
    for _, _, chunks in KERNEL._wedge_blocks(M):
        yield from chunks


def _wedge(f, g):
    """The coefficients f_x g_y - f_y g_x, x < y, in pair order: the one row
    pair of the kernel on the 2-row matrix [f; g]."""
    return np.concatenate([d[0].copy() for _, _, d in _minor_chunks(np.stack([f, g]))])


def _column_pair_norms(M, ufunc):
    """ufunc.reduce(|D|) over every row pair of M per column pair x < y, as
    family_measure reduces the chunks of each block of F^T."""
    return np.concatenate([ufunc.reduce([ufunc.reduce(np.abs(d), axis=0) for _, _, d in chunks])
                           for _, _, chunks in KERNEL._wedge_blocks(M)])


def _norms(f, g, w):
    """Weighted 1-, 2- and inf-norms of the wedge of f and g as the package
    forms them: the one column pair of the kernel on the columns f w, g w
    (family p = 1) and on f, g (p = inf, unweighted), and the kernel's sum of
    |D|^2 on the rows f sqrt(w), g sqrt(w) (the Lagrange check)."""
    F = np.stack([np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)])
    w = np.asarray(w, dtype=float)
    one = _column_pair_norms((F * w).T, np.add)[0]
    two = np.sqrt(sum(np.vdot(d, d).real for _, _, d in _minor_chunks(F * np.sqrt(w))))
    inf = _column_pair_norms(F.T, np.maximum)[0]
    return {1: one, 2: two, np.inf: inf}


def test_wedge_of_parallel_vectors_vanishes():
    rng = np.random.default_rng(0)
    f = rng.normal(size=12) + 1j * rng.normal(size=12)
    k = 0.7 - 1.3j
    assert np.max(np.abs(_wedge(f, k * f))) < 1e-14


def test_wedge_basis_case():
    coefficients = _wedge([1.0, 0.0], [0.0, 1.0])
    assert coefficients.shape == (1,)
    assert abs(coefficients[0] - 1.0) < 1e-15


def test_wedge_antisymmetry():
    rng = np.random.default_rng(1)
    f = rng.normal(size=9) + 1j * rng.normal(size=9)
    g = rng.normal(size=9) + 1j * rng.normal(size=9)
    assert np.allclose(_wedge(f, g), -_wedge(g, f))


def test_wedge_bilinearity_with_nilpotency():
    rng = np.random.default_rng(2)
    f = rng.normal(size=7) + 1j * rng.normal(size=7)
    g = rng.normal(size=7) + 1j * rng.normal(size=7)
    alpha, beta = 1.2 - 0.4j, -0.9 + 2.1j
    left = _wedge(f, alpha * f + beta * g)
    right = beta * _wedge(f, g)
    assert np.max(np.abs(left - right)) < 1e-12


def test_wedge_length_mismatch():
    with pytest.raises(InputError):
        lagrange_identity_gap([1.0, 2.0], [1.0], [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lagrange_identity_gap_refuses_non_finite_input(bad):
    # A NaN weight passed the old "<= 0" test and the gap came back NaN.
    ok = [1.0, 2.0, 3.0]
    for f, g, w in [([1.0, bad, 3.0], ok, ok), (ok, [complex(0.0, bad), 0.0, 1.0], ok),
                    (ok, [3.0, 1.0, 2.0], [1.0, bad, 1.0])]:
        with pytest.raises(InputError):
            lagrange_identity_gap(f, g, w)


def test_p_norm_zero_bivector():
    norms = _norms([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], np.ones(3))
    for p in (1, 2, np.inf):
        assert norms[p] < 1e-14


def test_p_norm_single_coefficient():
    norms = _norms([3.0, 0.0], [0.0, 1.0], [1.0, 1.0])
    for p in (1, 2, np.inf):
        assert abs(norms[p] - 3.0) < 1e-14


def test_p_norm_pythagorean():
    # Coefficients {3, 4} with unit weights: the 2-norm is 5.
    norms = _norms([1.0, 0.0, 0.0], [0.0, 3.0, 4.0], np.ones(3))
    assert abs(norms[2] - 5.0) < 1e-14
    assert abs(norms[1] - 7.0) < 1e-14
    assert abs(norms[np.inf] - 4.0) < 1e-14


def test_two_norm_squared_is_cauchy_schwarz_defect():
    rng = np.random.default_rng(3)
    for _ in range(25):
        size = int(rng.integers(2, 40))
        f = rng.normal(size=size) + 1j * rng.normal(size=size)
        g = rng.normal(size=size) + 1j * rng.normal(size=size)
        w = rng.uniform(0.1, 2.0, size=size)
        nf, ng, ip = _weighted_norms(f, g, w)
        defect = nf * ng - abs(ip) ** 2
        norm_sq = _norms(f, g, w)[2] ** 2
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
    _, peak = traced_peak(run)
    assert peak < 4 * 2**20


@pytest.mark.parametrize("long_run", [1, 20, 1024])
@pytest.mark.parametrize("budget", [2, 16, 60, 32_768])
def test_kernel_forms_every_minor_once(monkeypatch, budget, long_run):
    # Integer entries make every minor exact: each row pair a < b must meet
    # each column pair x < y once, with its value, in the order x < y, and
    # every row pair must meet a block's column pairs before the next block.
    monkeypatch.setattr(KERNEL, "_CHUNK_BUDGET", 16 * budget)  # complex elements
    monkeypatch.setattr(KERNEL, "_LONG_RUN", long_run)
    rng = np.random.default_rng(6)
    M = rng.integers(-9, 10, size=(5, 7)) + 1j * rng.integers(-9, 10, size=(5, 7))
    expected = {
        (a, b): [(x, y, M[a, x] * M[b, y] - M[a, y] * M[b, x])
                 for x in range(7) for y in range(x + 1, 7)]
        for a in range(5) for b in range(a + 1, 5)
    }
    got = {pair: [] for pair in expected}
    for x, y, chunks in KERNEL._wedge_blocks(M):
        met = []
        for a, b, d in chunks:
            assert d.size <= max(budget // 3, 4)
            for pair, row in zip(zip(a.tolist(), b.tolist()), d):
                met.append(pair)
                got[pair].extend(zip(x.tolist(), y.tolist(), row.tolist()))
        assert sorted(met) == sorted(expected)
    assert got == expected


def _minors_by_index(M):
    """{(a, b, x, y): D} over every minor the kernel forms on M, and the
    dtypes of its chunks; a minor formed twice fails."""
    minors, dtypes = {}, set()
    for x, y, chunks in KERNEL._wedge_blocks(M):
        for a, b, d in chunks:
            dtypes.add(d.dtype)
            for pair, row in zip(zip(a.tolist(), b.tolist()), d):
                for quad, value in zip(((*pair, *xy) for xy in zip(x.tolist(), y.tolist())), row):
                    assert quad not in minors
                    minors[quad] = value
    return minors, dtypes


def test_kernel_takes_real_matrices(monkeypatch):
    # Real input stays real: float64 chunks of twice the elements of the
    # complex walk, the same minors as the real parts of the complex-cast
    # walk, slices and gathered offsets alike.
    monkeypatch.setattr(KERNEL, "_CHUNK_BUDGET", 48 * 12)
    M = np.arange(35.0).reshape(5, 7) ** 1.5
    for long_run in (1, 1024, 10**6):
        monkeypatch.setattr(KERNEL, "_LONG_RUN", long_run)
        real, real_dtypes = _minors_by_index(M)
        cast, cast_dtypes = _minors_by_index(M.astype(complex))
        assert real_dtypes == {np.dtype(float)} and cast_dtypes == {np.dtype(complex)}
        assert len(real) == 10 * 21 and real.keys() == cast.keys()
        assert all(real[q] == cast[q].real and cast[q].imag == 0.0 for q in real)


@pytest.mark.parametrize("dtype", [float, complex])
def test_kernel_buffers_stay_within_the_byte_budget(dtype):
    # The three chunk buffers share one array of 768 KiB whatever the dtype,
    # so a real walk holds twice the elements of a complex one: three rows of
    # whole cache lines and one spare line to align them.
    rng = np.random.default_rng(14)
    M = rng.normal(size=(18, 324)).astype(dtype)
    roots = set()
    for _, _, chunks in KERNEL._wedge_blocks(M):
        for _, _, d in chunks:
            roots.add(id(d.base))
            buf = d.base
    assert len(roots) == 1 and buf.dtype == np.dtype(dtype)
    assert buf.nbytes <= KERNEL._CHUNK_BUDGET == 768 * 1024
    line = KERNEL._LINE // buf.itemsize
    assert buf.size == 3 * ((KERNEL._CHUNK_BUDGET - KERNEL._LINE) // (3 * KERNEL._LINE)) * line + line


@pytest.mark.parametrize("budget", [None, 16 * 60, 16 * 2])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("offset", [8, 16, 32, 48])
def test_kernel_buffers_start_on_a_cache_line(monkeypatch, offset, dtype, budget):
    # np.empty hands the kernel memory offset bytes past a cache line; each
    # chunk's D and its two sibling rows must still start on one, and the
    # minors must come out as with the allocator's own memory.
    if budget is not None:
        monkeypatch.setattr(KERNEL, "_CHUNK_BUDGET", budget)
    rng = np.random.default_rng(16)
    M = rng.normal(size=(9, 40)).astype(dtype)
    if dtype is complex:
        M += 1j * rng.normal(size=(9, 40))
    expected = [d.copy() for _, _, d in _minor_chunks(M)]
    empty, allocated, rows = np.empty, [], []

    def shifted_empty(shape, dtype=float):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        raw = empty(nbytes + 2 * KERNEL._LINE, np.uint8)
        start = -raw.ctypes.data % KERNEL._LINE + offset
        allocated.append(raw[start:start + nbytes].view(dtype).reshape(shape))
        return allocated[-1]

    def recording_rows(n, dtype):
        rows.append(aligned_rows(n, dtype))
        return rows[-1]

    aligned_rows = KERNEL._aligned_rows
    monkeypatch.setattr(np, "empty", shifted_empty)
    monkeypatch.setattr(KERNEL, "_aligned_rows", recording_rows)
    got = []
    for _, _, d in _minor_chunks(M):
        (buf,) = rows
        assert d.ctypes.data == buf[0].ctypes.data
        got.append(d.copy())
    monkeypatch.undo()
    assert [a.ctypes.data % KERNEL._LINE for a in allocated] == [offset]
    assert [row.ctypes.data % KERNEL._LINE for row in buf] == [0, 0, 0]
    if budget is None:
        assert allocated[0].nbytes <= KERNEL._CHUNK_BUDGET
    assert len(got) == len(expected) > 1
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_pairs_match_the_binary_search_over_row_starts():
    rng = np.random.default_rng(15)
    cases = [(2, 0, 1), (3, 0, 3), (4096, 0, 16384), (4096, 8386559, 8386560)]
    for _ in range(400):
        n = int(rng.integers(2, 700))
        total = n * (n - 1) // 2
        start = int(rng.integers(0, total))
        cases.append((n, start, int(rng.integers(start + 1, total + 1))))
    for n, start, stop in cases:
        i, j = KERNEL._pairs(n, start, stop)
        ref_i, ref_j = oracles.pairs_by_search(n, start, stop)
        assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j), (n, start, stop)


@pytest.mark.parametrize("f", ["identity", "two_x_squared"])
@pytest.mark.parametrize("budget", [16, 60, 32_768])
def test_family_combines_the_chunks_of_a_block(monkeypatch, budget, f):
    # Small budgets split the 21 complement pairs of each slice pair into
    # chunks whose reductions must add (p = 1) or take the larger (p = inf)
    # before f, which is not linear for two_x_squared, sees the norm.
    monkeypatch.setattr(KERNEL, "_CHUNK_BUDGET", 16 * budget)  # complex elements
    rng = np.random.default_rng(11)
    M = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    mags = np.zeros((5, 5, 21))
    for a in range(5):
        for b in range(5):
            mags[a, b] = [abs(M[a, x] * M[b, y] - M[a, y] * M[b, x])
                          for x in range(7) for y in range(x + 1, 7)]
    func = {"identity": lambda v: v, "two_x_squared": lambda v: 2.0 * v**2}[f]
    sp = raw_split(M)
    for p, ufunc in ((1, np.add), (np.inf, np.maximum)):
        expected = func(ufunc.reduce(mags, axis=2)).sum()
        assert np.allclose(family_measure(sp, sp.bipartition, f, p, 1), expected,
                           rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (1, 1)])
def test_kernel_without_minors_gives_zero(shape):
    rng = np.random.default_rng(8)
    G = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    assert cv_concurrence._wedge_sum_and_max(G) == 0.0
    sp = raw_split(G)
    assert cv_transpose.concurrence_route_D(sp, sp.bipartition) == 0.0
    assert cv_transpose.lambda_invariance_gap(sp, sp.bipartition) == 0.0
    assert list(KERNEL._wedge_blocks(G)) == [] and list(KERNEL._wedge_blocks(G.T)) == []
    for p in (1, np.inf):
        assert family_measure(sp, sp.bipartition, "identity", p, 1) == 0.0


def test_kernel_on_two_by_two_is_the_determinant():
    G = np.array([[1.0 + 2.0j, -3.0], [0.5j, 4.0 - 1.0j]])
    det = abs(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0])
    assert abs(cv_concurrence._wedge_sum_and_max(G) - 4.0 * det**2) < 1e-12
    sp = raw_split(G)
    assert abs(cv_transpose.concurrence_route_D(sp, sp.bipartition) - 4.0 * det**2) < 1e-12
    for p in (1, np.inf):
        # The one slice pair counts twice, as (0, 1) and (1, 0).
        value = family_measure(sp, sp.bipartition, "identity", p, 1)
        assert np.allclose(value, 2.0 * det, rtol=1e-14, atol=0.0)


def _grid_state(shape, seed):
    rng = np.random.default_rng(seed)
    axes = tuple(GridAxis(-4.0, 4.0, n) for n in shape)
    return GridState.from_amplitudes(axes, rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.mark.parametrize("consumer", ["route_A", "route_D", "family_p1", "family_pinf"])
@pytest.mark.parametrize("shape", [(4, 4096), (4096, 4)])
def test_wedge_kernel_memory_is_bounded_for_any_shape(shape, consumer):
    # 4 x 4096 has 8.4e6 column pairs, 4096 x 4 as many row pairs; the kernel
    # holds its buffers and one block of pair indices, O(budget + rows + cols).
    # The family's member block is the 4-point axis in both cases here; the
    # next test takes the long axis.
    state = _grid_state(shape, 9)
    first = Bipartition(2, (0,))
    short = Bipartition(2, (int(np.argmin(shape)),))
    run = {
        "route_A": lambda: concurrence_route_A(state, first),
        "route_D": lambda: concurrence_route_D(state, first),
        "family_p1": lambda: family_measure(state, short, "identity", 1, 1),
        "family_pinf": lambda: family_measure(state, short, "identity", np.inf, 1),
    }[consumer]
    assert traced_peak(run)[1] < 4 * 2**20


@pytest.mark.parametrize("p", [1, np.inf])
def test_family_memory_is_bounded_on_a_long_member_block(p):
    # Split {0} of 2048 x 4 has 2.1e6 slice pairs: a member x member matrix of
    # their norms takes 32 MiB. The family walks F^T, whose column pairs are
    # the slice pairs, and holds one block's norms at a time.
    state = _grid_state((2048, 4), 12)
    bp = Bipartition(2, (0,))
    assert traced_peak(family_measure, state, bp, "identity", p, 1)[1] < 4 * 2**20


@pytest.mark.parametrize("shape", [(2048, 4), (4, 2048)])
def test_family_p2_memory_is_bounded_on_either_member_block(shape):
    # Split {0} of 2048 x 4 has 2048^2 slice pairs: their overlaps, squared
    # wedge norms and cutoff mask held at once traced 192 MiB. They go in
    # blocks of rows within the chunk budget; 4 x 2048 is one block of 4.
    state = _grid_state(shape, 12)
    assert traced_peak(family_measure, state, Bipartition(2, (0,)), "identity", 2, 1)[1] < 4 * 2**20


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(4096, 2), (2, 4096)])
def test_route_A_memory_is_bounded_on_a_long_row_walk(shape, dtype):
    # Route A walks G as 4096 x 2 either way: one column pair, whose 523 776
    # far row pairs take 8.4 MB of indices (9.3 MiB traced when a width's
    # chunks were all held at once). They are formed chunk by chunk.
    rng = np.random.default_rng(19)
    amp = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        amp += 1j * rng.normal(size=shape)
    state = GridState.from_amplitudes(tuple(GridAxis(-4.0, 4.0, n) for n in shape), amp)
    assert traced_peak(concurrence_route_A, state, Bipartition(2, (0,)))[1] < 2 * 2**20


def test_lagrange_gap_memory_is_bounded():
    rng = np.random.default_rng(10)
    f = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    g = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    w = rng.uniform(0.5, 1.5, size=4096)
    assert traced_peak(lagrange_identity_gap, f, g, w)[1] < 4 * 2**20


@pytest.mark.parametrize("dtype", [float, complex])
def test_far_row_pairs_are_formed_once_per_block_width(monkeypatch, dtype):
    # 9 x 40 in 16 blocks of column pairs, 15 of 49 and one of 45, with the
    # row offsets 5 to 8 gathered in two chunks per block. Each block meets
    # the row pairs as a walk that formed them afresh would, by offset as
    # slices and then row by row, every minor bit for bit the difference of
    # two products of entries; _pairs forms the far pairs once per width.
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(KERNEL, "_CHUNK_BUDGET", KERNEL._LINE + 3 * 400 * itemsize)
    monkeypatch.setattr(KERNEL, "_LONG_RUN", 200)
    rng = np.random.default_rng(18)
    M = rng.normal(size=(9, 40)).astype(dtype)
    if dtype is complex:
        M += 1j * rng.normal(size=(9, 40))
    # A cached plan of this shape would form no pairs at all: count a cold build.
    KERNEL._PLANS.clear()
    calls, pairs = [], KERNEL._pairs

    def counted(n, start, stop):
        calls.append(n)
        return pairs(n, start, stop)

    monkeypatch.setattr(KERNEL, "_pairs", counted)
    order = ([(a, a + s) for s in range(1, 5) for a in range(9 - s)]
             + [(a, b) for a in range(9) for b in range(a + 5, 9)])
    widths = []
    for x, y, chunks in KERNEL._wedge_blocks(M):
        widths.append(x.size)
        met, gathered = [], 0
        for a, b, d in chunks:
            met += zip(a.tolist(), b.tolist())
            gathered += np.ptp(b - a) > 0
            expected = M[a][:, x] * M[b][:, y] - M[a][:, y] * M[b][:, x]
            assert d.dtype == M.dtype and np.array_equal(d, expected)
        assert met == order and gathered == 2
    assert widths == [49] * 15 + [45]
    # 16 blocks of column pairs, and two far chunks for each of the two widths,
    # where forming them per block took 16 + 16 * 2.
    assert calls.count(40) == 16 and len(calls) == 16 + 2 * 2


def _walk(M):
    """Every block's (x, y) and every chunk's (a, b, D) of the kernel on M, copied."""
    return [(x.tolist(), y.tolist(), [(a.tolist(), b.tolist(), d.tolist()) for a, b, d in chunks])
            for x, y, chunks in KERNEL._wedge_blocks(M)]


# The shapes of G in a lib-corpus pass (8^2 to 16^2, 6^3 to 8^3 split one axis
# against two) and in a cli-verify pass (24^2, 32^2, 8^3, 10^3, 18^3). The
# plans of the walks over 18 x 324 and 2 x 324 exceed the budget, and are not kept.
BENCH_SHAPES = [(8, 8), (12, 12), (16, 16), (6, 36), (36, 6), (7, 49), (49, 7), (8, 64),
                (64, 8), (24, 24), (32, 32), (10, 100), (100, 10), (18, 324)]


def _consumers(M):
    """Every consumer of the kernel on the matrix M, by name."""
    sp = raw_split(M)
    w = np.linspace(0.5, 1.5, M.shape[1])
    return {
        "route_A": lambda: cv_concurrence._wedge_sum_and_max(M),
        # A split keeps the family's integrals, so each run takes a new one.
        "family_p1": lambda: family_measure(raw_split(M), sp.bipartition, "two_x_squared", 1, 1),
        "family_pinf": lambda: family_measure(raw_split(M), sp.bipartition, "identity", np.inf, 1),
        "lambda_gap": lambda: lambda_invariance_gap(sp, sp.bipartition),
        "lagrange": lambda: lagrange_identity_gap(M[0], M[-1], w),
        "witness": lambda: cv_concurrence._witness_quadruple(M),
    }


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_consumers_agree_bit_for_bit_with_the_plan_cold_and_warm(shape, dtype):
    rng = np.random.default_rng(20)
    M = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        M += 1j * rng.normal(size=shape)
    for name, run in _consumers(M).items():
        KERNEL._PLANS.clear()
        cold = run()
        assert KERNEL._PLANS.plans or shape == (18, 324), name
        assert run() == cold, name


@pytest.mark.parametrize("name, value", [("_CHUNK_BUDGET", 64 + 3 * 400 * 16),
                                         ("_LONG_RUN", 10**6)])
def test_a_patched_budget_or_long_run_gets_a_fresh_plan(monkeypatch, name, value):
    # A plan cached under the default settings must not serve the patched walk.
    rng = np.random.default_rng(21)
    M = rng.normal(size=(9, 40)) + 1j * rng.normal(size=(9, 40))
    KERNEL._PLANS.clear()
    default = _walk(M)
    monkeypatch.setattr(KERNEL, name, value)
    patched = _walk(M)
    KERNEL._PLANS.clear()
    assert patched == _walk(M) != default
    monkeypatch.undo()
    assert _walk(M) == default


def test_plan_arrays_and_hermite_nodes_are_read_only():
    rng = np.random.default_rng(22)
    M = rng.normal(size=(40, 40))
    KERNEL._PLANS.clear()
    for _ in range(2):  # the walk that builds the plan, then one that reads it
        for x, y, chunks in KERNEL._wedge_blocks(M):
            arrays = [x, y] + [v for a, b, _ in chunks for v in (a, b)]
            assert not any(v.flags.writeable for v in arrays)
            with pytest.raises(ValueError):
                x[0] = 1
    ((_, _, idx, blocks, far), _), = KERNEL._PLANS.plans.values()
    arrays = [idx, *(v for xy in blocks for v in xy),
              *(v for _, pairs in far.values() for ab in pairs for v in ab)]
    assert not any(v.flags.writeable for v in arrays)
    for v in cv_quadrature._hermite_nodes(16):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0


def test_plan_cache_holds_no_more_than_the_budget():
    # 2 x c walks: a plan of 2 C(c, 2) column-pair indices, 79 KB at c = 100
    # and 717 KB at c = 300; the 2 x 330 plan (869 KB) alone exceeds the budget.
    KERNEL._PLANS.clear()
    rng = np.random.default_rng(23)
    for cols in [*range(100, 320, 20), 330, 12, 16]:
        M = rng.normal(size=(2, cols))
        assert _walk(M)
        plans = KERNEL._PLANS.plans
        assert KERNEL._PLANS.nbytes == sum(n for _, n in plans.values()) <= KERNEL._CHUNK_BUDGET
        assert ((2, cols, 8, KERNEL._CHUNK_BUDGET, KERNEL._LONG_RUN) in plans) == (cols != 330)
    assert len(KERNEL._PLANS.plans) < 13


def test_plan_cache_stays_consistent_across_threads():
    # Four threads walk 2 x c matrices whose plans evict one another; a lost
    # update of the cache would break its byte count or a walk's minors.
    rng = np.random.default_rng(24)
    matrices = [rng.normal(size=(2, cols)) for cols in range(100, 300, 10)]
    KERNEL._PLANS.clear()
    expected = [_walk(M) for M in matrices]
    mismatches = []

    def work(order):
        for k in order:
            if _walk(matrices[k]) != expected[k]:
                mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(rng.permutation(len(matrices)),))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and mismatches == []
    plans = KERNEL._PLANS.plans
    assert KERNEL._PLANS.nbytes == sum(n for _, n in plans.values()) <= KERNEL._CHUNK_BUDGET
