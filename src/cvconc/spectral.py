"""Reduced density matrices, purity, von Neumann entropy, and the
Hilbert-Schmidt identity linking them to the partial-transpose distance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .states import Bipartition, GridState, Split, split
from .transpose import DiscreteOperator, _route_d

ENTROPY_EIGENVALUE_FLOOR = 1e-14


@dataclass(frozen=True)
class ReducedDensity:
    """Reduced density operator of the member block in sqrt-weight convention."""

    operator: DiscreteOperator
    bipartition: Bipartition

    def __post_init__(self):
        res = self.operator.hermiticity_residual
        if res > 1e-12:
            raise NumericError(f"reduced density not Hermitian: residual {res:.3g}")
        tr = self.operator.trace
        if abs(tr - 1.0) > 1e-10:
            raise NumericError(f"reduced density trace {tr:.12g}, expected 1")

    @property
    def matrix(self) -> np.ndarray:
        return self.operator.matrix


def _reduce(sp: Split) -> ReducedDensity:
    return ReducedDensity(DiscreteOperator(sp.G @ sp.G.conj().T), sp.bipartition)


def reduce(state: GridState, bipartition: Bipartition) -> ReducedDensity:
    """Trace out the complement block: kernel sum_k phi(x, k) phi*(x', k) w_k."""
    return _reduce(split(state, bipartition))


def purity(rd: ReducedDensity) -> float:
    """Tr(rho_M^2), in [0, 1] up to discretization round-off."""
    value = float(np.sum(np.abs(rd.matrix) ** 2))
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise NumericError(f"purity {value:.12g} outside [0, 1]; discretization pathology")
    return value


def _route_c(sp: Split) -> float:
    return 2.0 * (1.0 - purity(_reduce(sp)))


def concurrence_route_C(state: GridState, bipartition: Bipartition) -> float:
    """Purity form of the squared concurrence: 2 [1 - Tr(rho_M^2)]."""
    return _route_c(split(state, bipartition))


def eigenvalues(rd: ReducedDensity) -> np.ndarray:
    """Ascending real spectrum of the hermitized reduced density."""
    eigs = np.linalg.eigvalsh(rd.operator.hermitized())
    if eigs[0] < -1e-8:
        raise NumericError(f"reduced density eigenvalue {eigs[0]:.3g} < -1e-8")
    return eigs


def von_neumann_entropy(rd: ReducedDensity) -> float:
    """S = -sum lambda ln lambda over eigenvalues above the floor (natural log)."""
    eigs = eigenvalues(rd)
    eigs = eigs[eigs > ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(eigs * np.log(eigs)))


def one_minus_rho_moment(rd: ReducedDensity, k: int) -> float:
    """Expectation <(1 - rho)^k> = sum lambda (1 - lambda)^k, the k-th term
    scale of the entropy series around a pure state."""
    eigs = eigenvalues(rd)
    return float(np.sum(eigs * (1.0 - eigs) ** k))


def _hs_gap(route_d: float, p: float) -> float:
    return abs(route_d + 2.0 * p - 2.0)


def hs_identity_gap(state: GridState, bipartition: Bipartition) -> float:
    """|route_D + 2 * purity - 2|: the Hilbert-Schmidt identity between the
    partial-transpose distance and the distance of rho_M to maximal mixing,
    read in the infinite-dimensional limit where the latter reduces to purity."""
    sp = split(state, bipartition)
    return _hs_gap(_route_d(sp.G), purity(_reduce(sp)))
