"""Shared fixtures: seeded random-state corpora used across test modules,
and a traced-memory helper."""

import tracemalloc

import numpy as np
import pytest

from cvconc import Bipartition, GridAxis, GridState, Split

CORPUS_SEED = 20240817
CORPUS_SIZE = 200
PRODUCT_SEED = 91
PRODUCT_SIZE = 20


def random_grid_state(rng, n_axes=2, min_pts=8, max_pts=24):
    """A normalized random complex state on a random two-axis box."""
    axes = []
    for _ in range(n_axes):
        pts = int(rng.integers(min_pts, max_pts + 1))
        lo = float(rng.uniform(-4.0, -1.0))
        hi = float(rng.uniform(1.0, 4.0))
        axes.append(GridAxis(lo, hi, pts))
    shape = tuple(ax.points for ax in axes)
    amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return GridState.from_amplitudes(tuple(axes), amp)


def random_product_state(rng, n_axes=2):
    """A normalized product state, exactly separable across every bipartition."""
    axes = []
    factors = []
    for _ in range(n_axes):
        pts = int(rng.integers(6, 15))
        axes.append(GridAxis(-3.0, 3.0, pts))
        factors.append(rng.normal(size=pts) + 1j * rng.normal(size=pts))
    amp = factors[0]
    for f in factors[1:]:
        amp = np.multiply.outer(amp, f)
    return GridState.from_amplitudes(tuple(axes), amp)


def shaped_state(rng, shape, product=False):
    """A normalized random complex state of the given shape on [-4, 4] per
    axis; with product=True, the outer product of one random factor per axis."""
    if product:
        amp = 1.0
        for n in shape:
            amp = np.multiply.outer(amp, rng.normal(size=n) + 1j * rng.normal(size=n))
    else:
        amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return GridState.from_amplitudes(tuple(GridAxis(-4.0, 4.0, n) for n in shape), amp)


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc traced during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def raw_split(M):
    """A Split of two axes whose G and F are the matrix M as given, with unit
    weights and no rescaling, so the route and check functions read M."""
    return Split(Bipartition(2, (0,)), M, np.ones(M.shape[0]), np.ones(M.shape[1]), M)


@pytest.fixture(scope="session")
def corpus():
    """200 seeded random normalized two-axis states, 8 to 24 points per axis."""
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_grid_state(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def product_corpus():
    """20 seeded random two-axis product states (exactly separable)."""
    rng = np.random.default_rng(PRODUCT_SEED)
    return [random_product_state(rng) for _ in range(PRODUCT_SIZE)]


@pytest.fixture(scope="session")
def bipartition_first():
    return Bipartition(2, (0,))


@pytest.fixture(scope="session")
def bell_state():
    """Two points per axis, equal amplitude at (0,0) and (1,1): the discrete
    maximally entangled two-level case."""
    axes = (GridAxis(-1.0, 1.0, 2), GridAxis(-1.0, 1.0, 2))
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = 1.0
    amp[1, 1] = 1.0
    return GridState.from_amplitudes(axes, amp)
