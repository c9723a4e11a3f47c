"""Closed-form two-mode Gaussian results and the exact cross-block
separability criterion for n-mode Gaussian pure states."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnphysicalStateError
from .states import Bipartition, GaussianPureState

CROSS_BLOCK_TOL = 1e-12


@dataclass(frozen=True)
class TwoModeGaussianSpec:
    """Two-mode Gaussian exp(-(a x1^2 + b x2^2 + c x1 x2)/2) with any finite
    complex coupling c; it is normalizable iff |Re c| < 2 sqrt(ab). a and b
    must be real numbers: a complex a is refused, not read as its real part."""

    a: float
    b: float
    c: complex

    def __post_init__(self):
        if not (isinstance(self.a, numbers.Real) and isinstance(self.b, numbers.Real)):
            raise InputError(f"a and b must be real numbers, got a = {self.a!r}, b = {self.b!r}")
        if not isinstance(self.c, numbers.Complex):
            raise InputError(f"c must be a number, got {self.c!r}")
        c = complex(self.c)
        if not np.all(np.isfinite([self.a, self.b, c.real, c.imag])):
            raise InputError("a, b and c must be finite")
        if not (self.a > 0.0 and self.b > 0.0):
            raise InputError("a and b must be positive")
        object.__setattr__(self, "c", c)
        if not _coupling_ratios(self)[0] < 1.0:
            raise UnphysicalStateError(
                f"|Re c| = {abs(c.real):.6g} >= 2 sqrt(ab); state is not normalizable"
            )

    def to_precision_matrix(self) -> GaussianPureState:
        half = self.c / 2.0
        return GaussianPureState(np.array([[self.a, half], [half, self.b]]))


def _coupling_ratios(spec: TwoModeGaussianSpec) -> tuple:
    """r = |Re c| / (2 sqrt(ab)) and m = |Im c| / (2 sqrt(ab)), formed from
    sqrt(a) sqrt(b), which cannot underflow or overflow where ab or
    2 sqrt(ab) would; inf when a quotient overflows."""
    root = math.sqrt(spec.a) * math.sqrt(spec.b)
    return abs(spec.c.real) / root / 2.0, abs(spec.c.imag) / root / 2.0


def closed_form_concurrence(spec: TwoModeGaussianSpec) -> float:
    """Squared concurrence across the two modes, E^2 = 2 (1 - mu).

    The reduced purity is mu = det(2 V_1)^(-1/2) = sqrt((1 - r^2) / (1 + m^2))
    with (r, m) = _coupling_ratios(spec), so with t = hypot(1, m)

        E^2 = 2 w / (1 + sqrt((1 - r) (1 + r)) / t),  w = (r/t)^2 + (m/t)^2.

    This subtracts nothing close to 1, so a weak coupling keeps its relative
    precision (the paper's 2 [1 - sqrt(4ab - c^2) / (2 sqrt(ab))] gives 0 for
    the 2.5e-19 of a = b = 1, c = 1e-9), and r/t and m/t cannot overflow.
    m = 0 is the paper's real-c form and r = 0 its imaginary-c form
    2 [1 - 2 sqrt(ab) / sqrt(4ab + |c|^2)]; E^2 tends to 2 as m grows.
    """
    r, m = _coupling_ratios(spec)
    if math.isinf(m):
        return 2.0
    t = math.hypot(1.0, m)
    w = (r / t) ** 2 + (m / t) ** 2
    return 2.0 * w / (1.0 + math.sqrt((1.0 - r) * (1.0 + r)) / t)


def closed_form_normalization(spec: TwoModeGaussianSpec) -> float:
    """The two-mode normalization constant

        (4ab - (Re c)^2)^(1/4) / sqrt(2 pi) = (ab)^(1/4) ((1 - r) (1 + r))^(1/4) / sqrt(pi)

    with r = |Re c| / (2 sqrt(ab)); Im c does not enter. (ab)^(1/4) is taken
    as a^(1/4) b^(1/4), since ab underflows or overflows for a and b far from 1.
    """
    r = _coupling_ratios(spec)[0]
    root = math.sqrt(math.sqrt(spec.a)) * math.sqrt(math.sqrt(spec.b)) / math.sqrt(math.pi)
    return root * math.sqrt(math.sqrt((1.0 - r) * (1.0 + r)))


@dataclass(frozen=True)
class GaussianSeparabilityResult:
    verdict: str
    witness_entry: tuple = None   # (row, col, magnitude) of the largest cross term


def gaussian_separability(A, bipartition: Bipartition) -> GaussianSeparabilityResult:
    """Exact criterion: separable iff every cross-block entry A_kj of the
    precision matrix vanishes within CROSS_BLOCK_TOL sqrt(Re A_kk) sqrt(Re A_jj),
    a tolerance that scales with A, so the verdict does not depend on the
    units of x. On two modes this reads r = |c| / (2 sqrt(ab)) against the tol."""
    state = GaussianPureState(np.asarray(A, dtype=complex))
    if bipartition.n != state.n:
        raise InputError("bipartition size does not match the matrix")
    scale = np.sqrt(state.A.real.diagonal())
    best = None
    for k in bipartition.members:
        for j in bipartition.complement:
            mag = abs(state.A[k, j])
            if mag > CROSS_BLOCK_TOL * (scale[k] * scale[j]) and (best is None or mag > best[2]):
                best = (k, j, mag)
    if best is None:
        return GaussianSeparabilityResult("separable")
    return GaussianSeparabilityResult("entangled", witness_entry=best)


def sweep_concurrence(a: float, b: float, branch: str, c_values):
    """Closed-form (c, E^2, norm) rows over a list of coupling values.

    branch "real" sweeps c = value and "imag" sweeps c = i value. Real values
    at or beyond the physical boundary are marked with NaN entries rather
    than aborting the sweep.
    """
    if branch not in ("real", "imag"):
        raise InputError(f"unknown branch {branch!r}; use 'real' or 'imag'")
    imag = branch == "imag"
    rows = []
    for value in c_values:
        value = float(value)
        try:
            spec = TwoModeGaussianSpec(a, b, 1j * value if imag else value)
            rows.append((value, closed_form_concurrence(spec), closed_form_normalization(spec)))
        except UnphysicalStateError:
            rows.append((value, float("nan"), float("nan")))
    return rows
