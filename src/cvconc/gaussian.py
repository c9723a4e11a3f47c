"""Closed-form two-mode Gaussian results and the exact cross-block
separability criterion for n-mode Gaussian pure states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnphysicalStateError
from .states import Bipartition, GaussianPureState

CROSS_BLOCK_TOL = 1e-12


@dataclass(frozen=True)
class TwoModeGaussianSpec:
    """Two-mode Gaussian exp(-(a x1^2 + b x2^2 + c x1 x2)/2) with c restricted
    to the purely real or purely imaginary branch."""

    a: float
    b: float
    c: complex

    def __post_init__(self):
        c = complex(self.c)
        if not np.all(np.isfinite([self.a, self.b, c.real, c.imag, 4.0 * self.a * self.b])):
            raise InputError("a, b, c and 4ab must be finite")
        if not (self.a > 0.0 and self.b > 0.0):
            raise InputError("a and b must be positive")
        if c.real != 0.0 and c.imag != 0.0:
            raise InputError(
                "mixed-phase c is outside the closed-form family; "
                "use the grid backend for general complex couplings"
            )
        object.__setattr__(self, "c", c)
        if self.branch == "real_c" and not abs(c.real) < 2.0 * np.sqrt(self.a * self.b):
            raise UnphysicalStateError(
                f"real coupling |c| = {abs(c.real):.6g} >= 2 sqrt(ab); "
                "state is not normalizable"
            )

    @property
    def branch(self) -> str:
        return "imag_c" if self.c.imag != 0.0 else "real_c"

    def to_precision_matrix(self) -> GaussianPureState:
        half = self.c / 2.0
        return GaussianPureState(np.array([[self.a, half], [half, self.b]]))


def closed_form_concurrence(spec: TwoModeGaussianSpec) -> float:
    """Squared concurrence across the two modes.

    Real branch:      2 [1 - sqrt(4ab - c^2) / (2 sqrt(ab))] = 2u / (1 + sqrt(1 - u)),
                      u = c^2 / (4ab)
    Imaginary branch: 2 [1 - 2 sqrt(ab) / sqrt(4ab + m^2)]
                      = 2v / (sqrt(1 + v) (1 + sqrt(1 + v))), v = m^2 / (4ab), c = i m
    The second forms, evaluated here, subtract nothing close to 1, so a weak
    coupling keeps its relative precision (the first gives 0 for the 2.5e-19
    of a = b = 1, c = 1e-9). u = v = r^2 with r = |c| / (2 sqrt(a) sqrt(b)),
    which ab would underflow; the factors r/s and r/(1 + s), s = hypot(1, r),
    cannot overflow.
    """
    r = abs(spec.c) / (2.0 * math.sqrt(spec.a) * math.sqrt(spec.b))
    if spec.branch == "real_c":
        r = min(r, 1.0)  # r < 1 for a physical c, up to the rounding of that test
        return 2.0 * r * r / (1.0 + math.sqrt((1.0 - r) * (1.0 + r)))
    if math.isinf(r):
        return 2.0
    s = math.hypot(1.0, r)
    return 2.0 * (r / s) * (r / (1.0 + s))


def closed_form_normalization(spec: TwoModeGaussianSpec) -> float:
    """The two-mode normalization constant for the matching branch."""
    ab = spec.a * spec.b
    if spec.branch == "real_c":
        c = spec.c.real
        return (2.0 * np.pi / np.sqrt(4.0 * ab - c * c)) ** -0.5
    return (np.pi / np.sqrt(ab)) ** -0.5


@dataclass(frozen=True)
class GaussianSeparabilityResult:
    verdict: str
    witness_entry: tuple = None   # (row, col, magnitude) of the largest cross term


def gaussian_separability(A, bipartition: Bipartition) -> GaussianSeparabilityResult:
    """Exact criterion: separable iff every cross-block entry of the precision
    matrix vanishes (within CROSS_BLOCK_TOL)."""
    state = GaussianPureState(np.asarray(A, dtype=complex))
    if bipartition.n != state.n:
        raise InputError("bipartition size does not match the matrix")
    best = None
    for k in bipartition.members:
        for j in bipartition.complement:
            mag = abs(state.A[k, j])
            if mag > CROSS_BLOCK_TOL and (best is None or mag > best[2]):
                best = (k, j, mag)
    if best is None:
        return GaussianSeparabilityResult("separable")
    return GaussianSeparabilityResult("entangled", witness_entry=best)


def sweep_concurrence(a: float, b: float, branch: str, c_values):
    """Closed-form (c, E^2, norm) rows over a list of coupling values.

    For the real branch, values at or beyond the physical boundary are marked
    with NaN entries rather than aborting the sweep.
    """
    if branch not in ("real", "imag", "real_c", "imag_c"):
        raise InputError(f"unknown branch {branch!r}; use 'real' or 'imag'")
    imag = branch.startswith("imag")
    rows = []
    for value in c_values:
        value = float(value)
        try:
            spec = TwoModeGaussianSpec(a, b, 1j * value if imag else value)
            rows.append((value, closed_form_concurrence(spec), closed_form_normalization(spec)))
        except UnphysicalStateError:
            rows.append((value, float("nan"), float("nan")))
    return rows
