"""Reduced density matrices, purity, von Neumann entropy, and the
Hilbert-Schmidt identity linking them to the partial-transpose distance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transpose
from .errors import InputError, NumericError
from .states import Bipartition, GridState, Split, split

ENTROPY_EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Reduced density operator of one block in sqrt-weight convention: a
    square matrix, Hermitian within 1e-12, of trace 1 within 1e-10."""

    matrix: np.ndarray
    bipartition: Bipartition

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("operator matrix must be square")
        res = float(np.max(np.abs(m - m.conj().T))) / 2.0
        if res > 1e-12:
            raise NumericError(f"reduced density not Hermitian: residual {res:.3g}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise NumericError(f"reduced density trace {tr:.12g}, expected 1")
        object.__setattr__(self, "matrix", m)


def _reduce(sp: Split) -> ReducedDensity:
    """The reduced density of the smaller block: the member block's purity and
    nonzero spectrum at an edge of min(gm, gmbar)."""
    return ReducedDensity(sp.K, sp.bipartition)


def reduce(state: GridState | Split, bipartition: Bipartition) -> ReducedDensity:
    """Trace out the complement block: kernel sum_k phi(x, k) phi*(x', k) w_k."""
    G = split(state, bipartition).G
    return ReducedDensity(G @ G.conj().T, bipartition)


def purity(rd: ReducedDensity) -> float:
    """Tr(rho_M^2), in [0, 1] up to discretization round-off."""
    value = float(np.sum(np.abs(rd.matrix) ** 2))
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise NumericError(f"purity {value:.12g} outside [0, 1]; discretization pathology")
    return value


def concurrence_route_C(state: GridState | Split, bipartition: Bipartition) -> float:
    """Purity form of the squared concurrence: 2 [1 - Tr(rho_M^2)]."""
    return 2.0 * (1.0 - purity(_reduce(split(state, bipartition))))


def eigenvalues(rd: ReducedDensity) -> np.ndarray:
    """Ascending real spectrum of the reduced density, read from one triangle:
    ReducedDensity holds the Hermiticity residual within 1e-12."""
    eigs = np.linalg.eigvalsh(rd.matrix)
    if eigs[0] < -1e-8:
        raise NumericError(f"reduced density eigenvalue {eigs[0]:.3g} < -1e-8")
    return eigs


def _entropy(weights: np.ndarray) -> float:
    """-sum w ln w over the weights above the floor, so no zero reaches log;
    at least +0.0, as a weight that rounds above 1 gives -0.0 or -4e-16."""
    w = weights[weights > ENTROPY_EIGENVALUE_FLOOR]
    return max(0.0, float(-np.sum(w * np.log(w))))


def von_neumann_entropy(rd: ReducedDensity) -> float:
    """S = -sum lambda ln lambda over eigenvalues above the floor (natural log)."""
    return _entropy(eigenvalues(rd))


def one_minus_rho_moment(rd: ReducedDensity, k: int) -> float:
    """Expectation <(1 - rho)^k> = sum lambda (1 - lambda)^k, the k-th term
    scale of the entropy series around a pure state."""
    eigs = eigenvalues(rd)
    return float(np.sum(eigs * (1.0 - eigs) ** k))


def hs_identity_gap(state: GridState | Split, bipartition: Bipartition) -> float:
    """|route_D + 2 * purity - 2|: the Hilbert-Schmidt identity between the
    partial-transpose distance and the distance of rho_M to maximal mixing,
    read in the infinite-dimensional limit where the latter reduces to purity.
    Route D applies the partial transpose matrix-free and the purity comes from
    the Gram matrix, so the identity ties the one to the other."""
    sp = split(state, bipartition)
    route_d = transpose.concurrence_route_D(sp, bipartition)
    return abs(route_d + 2.0 * purity(_reduce(sp)) - 2.0)
