"""State representations: midpoint-discretized wavefunctions, Gaussian pure states,
bipartitions of the degrees of freedom, and the prepared split of a state into
member and complement blocks that every concurrence route reads."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, StateValidityError, TruncationWarning
from .quadrature import ProductRule, _product_weights, _whole_number, midpoint_rule

NORM_TOL = 1e-9
MASS_DEFECT_WARN = 1e-3
CONDITION_FLAG = 1e2


@dataclass(frozen=True)
class GridAxis:
    """One coordinate axis discretized by the midpoint rule.

    Nodes sit at min + (i + 0.5) * delta; every node carries weight delta.
    """

    min: float
    max: float
    points: int

    def __post_init__(self):
        if not (np.isfinite(self.min) and np.isfinite(self.max)):
            raise InputError(f"axis bounds must be finite, got [{self.min}, {self.max}]")
        if not self.max > self.min:
            raise InputError(f"axis requires max > min, got [{self.min}, {self.max}]")
        points = _whole_number(self.points, "axis points")
        if points < 2:
            raise InputError("axis requires at least 2 points")
        object.__setattr__(self, "points", points)

    @property
    def delta(self) -> float:
        return (self.max - self.min) / self.points

    @property
    def nodes(self) -> np.ndarray:
        return self.min + (np.arange(self.points) + 0.5) * self.delta

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.points, self.delta)


@dataclass(frozen=True, eq=False)
class GridState:
    """A dense complex wavefunction sampled on a product of GridAxis nodes.

    Amplitudes are stored row-major with the last axis fastest. The discrete
    squared norm sum(|amp|^2) * prod(delta_k) must equal 1 within NORM_TOL.
    """

    axes: tuple
    amplitudes: np.ndarray
    diagnostics: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(axes) < 1:
            raise InputError("GridState needs at least one axis")
        object.__setattr__(self, "axes", axes)
        shape = tuple(ax.points for ax in axes)
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.size == int(np.prod(shape)):
            amp = np.ascontiguousarray(amp.reshape(shape))
        else:
            raise InputError(
                f"amplitude count {amp.size} does not match grid of {int(np.prod(shape))} nodes"
            )
        if not np.isfinite(amp).all():
            raise InputError("amplitudes must be finite (found NaN or infinity)")
        object.__setattr__(self, "amplitudes", amp)
        nsq = self.norm_squared
        if abs(nsq - 1.0) > NORM_TOL:
            raise StateValidityError(
                f"discrete norm^2 = {nsq:.12g}, must be 1 within {NORM_TOL}"
            )

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def node_weight(self) -> float:
        """Quadrature weight of a single node (product of the axis deltas)."""
        w = 1.0
        for ax in self.axes:
            w *= ax.delta
        return w

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2)) * self.node_weight

    @classmethod
    def from_amplitudes(cls, axes, amplitudes, diagnostics=None) -> "GridState":
        """Build a GridState, renormalizing the sampled amplitudes."""
        axes = tuple(axes)
        amp = np.asarray(amplitudes, dtype=np.complex128)
        w = 1.0
        for ax in axes:
            w *= ax.delta
        mass = float(np.sum(np.abs(amp) ** 2)) * w
        if not np.isfinite(mass):
            raise InputError(f"amplitudes must be finite with a finite norm, got norm^2 = {mass}")
        if mass <= 0.0:
            raise InputError("cannot normalize identically zero amplitudes")
        return cls(axes, amp / np.sqrt(mass), diagnostics or {})


@dataclass(frozen=True, eq=False)
class GaussianPureState:
    """Pure Gaussian wavefunction N * exp(-x^T A x / 2) with complex symmetric
    precision matrix A whose real part is positive-definite."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.complex128)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError("precision matrix must be square")
        if not np.isfinite(A).all():
            raise InputError("precision matrix has non-finite entries")
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12):
            raise InputError("precision matrix must be symmetric (A = A^T)")
        try:
            np.linalg.cholesky(A.real)
        except np.linalg.LinAlgError:
            raise InputError("Re(A) must be positive-definite (normalizable state)")
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def normalization(self) -> float:
        """(det Re(A) / pi^n)^(1/4), the real positive normalization constant."""
        sign, logdet = np.linalg.slogdet(self.A.real)
        return float(np.exp(0.25 * (logdet - self.n * np.log(np.pi))))


def evaluate_gaussian(state: GaussianPureState, x) -> complex:
    """Wavefunction value at coordinates x (vectorized over leading dimensions)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    if x.shape[-1] != state.n:
        raise InputError(f"coordinate vector must have length {state.n}")
    quad = np.einsum("...i,ij,...j->...", x, state.A, x)
    val = state.normalization * np.exp(-0.5 * quad)
    return complex(val) if scalar else val


def _sample(state: GaussianPureState, rule: ProductRule):
    """Amplitudes of a Gaussian pure state at the nodes of a product rule,
    before renormalization, and the mass defect |1 - sum |amp|^2 w|.

    A TruncationWarning is issued when the defect exceeds MASS_DEFECT_WARN
    (domain or rule too narrow).
    """
    if rule.ndim != state.n:
        raise InputError(f"need {state.n} axes, got {rule.ndim}")
    mesh = np.meshgrid(*rule.nodes, indexing="ij")
    amp = evaluate_gaussian(state, np.stack(mesh, axis=-1))
    mass = float(np.sum(np.abs(amp) ** 2 * _product_weights(rule.weights)))
    defect = abs(1.0 - mass)
    if defect > MASS_DEFECT_WARN:
        warnings.warn(
            f"discretization loses probability mass {defect:.3g}; enlarge the domain",
            TruncationWarning,
        )
    return amp, defect


def discretize(state: GaussianPureState, axes) -> GridState:
    """Sample a Gaussian pure state at midpoint nodes and renormalize.

    The pre-renormalization mass defect is recorded in the diagnostics and a
    TruncationWarning is issued when it exceeds MASS_DEFECT_WARN (domain too small).
    """
    axes = tuple(axes)
    amp, defect = _sample(state, midpoint_rule(axes))
    cond = float(np.linalg.cond(state.A.real))
    diagnostics = {
        "mass_defect": defect,
        "precision_condition": cond,
        "ill_conditioned": cond > CONDITION_FLAG,
    }
    return GridState.from_amplitudes(axes, amp, diagnostics)


@dataclass(frozen=True)
class Bipartition:
    """A subset M of the axis indices {0..n-1} with 1 <= |M| <= n-1."""

    n: int
    members: tuple

    def __post_init__(self):
        n = _whole_number(self.n, "bipartition size n")
        members = tuple(sorted({_whole_number(i, "bipartition members") for i in self.members}))
        if n < 2:
            raise InputError("bipartition requires at least two degrees of freedom")
        if any(i < 0 or i >= n for i in members):
            raise InputError(f"members must lie in 0..{n - 1}")
        if not 1 <= len(members) <= n - 1:
            raise InputError("bipartition needs 1 <= |M| <= n-1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

    @cached_property
    def complement(self) -> tuple:
        chosen = set(self.members)
        return tuple(i for i in range(self.n) if i not in chosen)

    @classmethod
    def parse(cls, text: str, n: int) -> "Bipartition":
        try:
            members = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
        except ValueError:
            raise InputError(f"cannot parse bipartition spec {text!r}")
        return cls(n, members)


def _member_major(amplitudes: np.ndarray, bipartition: Bipartition) -> np.ndarray:
    """Amplitudes on a product grid transposed to (member axes, complement
    axes) and flattened to a matrix."""
    if bipartition.n != amplitudes.ndim:
        raise InputError("bipartition size does not match the state")
    members = bipartition.members
    gm = 1
    for k in members:
        gm *= amplitudes.shape[k]
    return np.transpose(amplitudes, members + bipartition.complement).reshape(gm, -1)


def _blocks(amplitudes: np.ndarray, axis_weights, bipartition: Bipartition):
    """The member-major matrix of amplitudes on a product rule, with the
    flattened weights of each block."""
    F = _member_major(amplitudes, bipartition)
    wm = _product_weights([axis_weights[k] for k in bipartition.members]).reshape(-1)
    wrest = _product_weights([axis_weights[k] for k in bipartition.complement]).reshape(-1)
    return F, wm, wrest


def block_matrix(state: GridState, bipartition: Bipartition):
    """Amplitudes reshaped to (member block, complement block).

    Returns (F, w_m, w_rest) where rows of F run over the linearized
    member-axis indices and columns over the complement, with the flattened
    quadrature weights of each block; split weights F into G. Every midpoint
    node of a block carries the product of that block's axis deltas.
    """
    F = _member_major(state.amplitudes, bipartition)
    wm = wrest = 1.0
    for k in bipartition.members:
        wm *= state.axes[k].delta
    for k in bipartition.complement:
        wrest *= state.axes[k].delta
    return F, np.full(F.shape[0], wm), np.full(F.shape[1], wrest)


@dataclass(frozen=True, eq=False)
class Split:
    """A state prepared once for a bipartition; every route and check reads it.

    F holds the raw amplitudes as (member block, complement block), wm and
    wrest the flattened quadrature weights of the two blocks, and G the
    weighted matrix F * sqrt(wm wrest), whose singular values are the Schmidt
    coefficients. F and G are scaled to unit weighted norm, so a state whose
    stored norm is off by round-off gives the routes of the normalized state.

    K = M M^H, for M the side of G with fewer rows (G, or G^T), is the reduced
    density of the smaller block, conjugated when that is the complement, with
    the nonzero spectrum sigma_i^2 of both blocks; schmidt holds the Schmidt
    weights sigma_i^2, descending, from one values-only SVD of G. Both are
    formed on first read, cached on the split and read-only, so every route,
    check and report reads the same arrays. Three readers stay apart on
    purpose: the entangled side's PPT certificate takes its own full SVD for
    the singular vectors, the entropy check takes eigvalsh of K so that it compares an
    independent spectrum with the SVD's, and the Hilbert-Schmidt identity
    check calls route D itself rather than reuse a report's value.

    The split also carries what its state knew: axes, the GridAxis tuple of a
    grid state (None for a split built from another product rule), which the
    witness and the factors need; mass_defect, the probability mass lost when
    a Gaussian was sampled (0 otherwise); and norm_squared, the weighted norm^2
    of the amplitudes before the rescaling above.

    F and G are float64 when every imaginary part of the amplitudes is zero
    (real Gaussians, real product states) and complex128 otherwise; K, schmidt
    and every route and check then keep that dtype, so a real state runs real
    BLAS and LAPACK throughout.
    """

    bipartition: Bipartition
    F: np.ndarray
    wm: np.ndarray
    wrest: np.ndarray
    G: np.ndarray
    axes: tuple = None
    mass_defect: float = 0.0
    norm_squared: float = 1.0

    @classmethod
    def from_blocks(cls, bipartition: Bipartition, F, wm, wrest, mass_defect=0.0, axes=None):
        """The split of the block matrix F with block weights wm and wrest. With
        axes, F holds a grid state, whose every node carries the one weight
        wm[0] wrest[0]; without, each node's weight comes from the two vectors."""
        if not F.imag.any():
            F = F.real
        if axes is not None:
            # In C order, as the product with a weight matrix gives it, so that
            # the norm and every BLAS call read G's elements in the same order.
            G = np.multiply(F, math.sqrt(wm[0] * wrest[0]), order="C")
        else:
            G = F * np.sqrt(np.outer(wm, wrest))
        norm = float(np.linalg.norm(G))
        if not 0.0 < norm < np.inf:
            raise InputError(f"cannot normalize amplitudes of weighted norm {norm}: "
                             "the rule captures no finite mass of the state")
        G /= norm
        return cls(bipartition, F / norm, wm, wrest, G, axes, mass_defect, norm**2)

    @cached_property
    def K(self) -> np.ndarray:
        M = self.G if self.G.shape[0] <= self.G.shape[1] else self.G.T
        K = M @ M.conj().T
        K.flags.writeable = False
        return K

    @cached_property
    def schmidt(self) -> np.ndarray:
        weights = np.linalg.svd(self.G, compute_uv=False) ** 2
        weights.flags.writeable = False
        return weights


def split(state: GridState | Split, bipartition: Bipartition) -> Split:
    """The prepared split of a grid state (one call of block_matrix). A Split
    across the same bipartition is returned as it is, so every function that
    starts here accepts a prepared split in place of the state."""
    if isinstance(state, Split):
        if state.bipartition != bipartition:
            raise InputError(f"split is across {state.bipartition}, not {bipartition}")
        return state
    return Split.from_blocks(bipartition, *block_matrix(state, bipartition),
                             state.diagnostics.get("mass_defect", 0.0), state.axes)
