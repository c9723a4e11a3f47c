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
from .quadrature import _product_weights, _whole_number

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


def _node_weight(axes) -> float:
    """Weight of one midpoint node of the product of axes: the product of
    their deltas, taken left to right."""
    return math.prod(ax.delta for ax in axes)


def _writeable(a: np.ndarray) -> bool:
    """Whether a, or any array whose memory it views, can be written to; an
    array over a buffer that is not a numpy array counts as writeable."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return True
        a = a.base
    return a is not None


@dataclass(frozen=True, eq=False)
class GridState:
    """A dense complex wavefunction sampled on a product of GridAxis nodes.

    Amplitudes are stored row-major with the last axis fastest, read-only. The
    discrete squared norm sum(|amp|^2) * prod(delta_k) must equal 1 within
    NORM_TOL. The array is copied only when it would alias an array the caller
    can still write to, so a state's amplitudes never change after it is built.

    The state holds the last Split that split() built from it, so calls on one
    state across one bipartition share its block matrix, Gram matrix and SVD.
    """

    axes: tuple
    amplitudes: np.ndarray
    diagnostics: dict = field(default_factory=dict, repr=False)
    _split: "Split" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        axes = tuple(self.axes)
        if len(axes) < 1:
            raise InputError("GridState needs at least one axis")
        object.__setattr__(self, "axes", axes)
        shape = tuple(ax.points for ax in axes)
        given = np.asarray(self.amplitudes, dtype=np.complex128)
        if given.size != math.prod(shape):
            raise InputError(
                f"amplitude count {given.size} does not match grid of {math.prod(shape)} nodes"
            )
        amp = np.ascontiguousarray(given.reshape(shape))
        if not np.isfinite(amp).all():
            raise InputError("amplitudes must be finite (found NaN or infinity)")
        # A new array from the conversion is the state's own; the caller's
        # memory is kept only if nothing can write to it.
        borrowed = given is self.amplitudes or given.base is not None
        if borrowed and _writeable(given) and np.may_share_memory(amp, given):
            amp = amp.copy()
        amp.flags.writeable = False
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
        return _node_weight(self.axes)

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real) * self.node_weight

    @classmethod
    def from_amplitudes(cls, axes, amplitudes, diagnostics=None) -> "GridState":
        """Build a GridState, renormalizing the sampled amplitudes."""
        axes = tuple(axes)
        amp = np.array(amplitudes, dtype=np.complex128)  # a copy, scaled in place
        mass = float(np.vdot(amp, amp).real) * _node_weight(axes)
        if not np.isfinite(mass):
            raise InputError(f"amplitudes must be finite with a finite norm, got norm^2 = {mass}")
        if mass <= 0.0:
            raise InputError("cannot normalize identically zero amplitudes")
        amp /= np.sqrt(mass)
        amp.flags.writeable = False
        return cls(axes, amp, diagnostics or {})


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
        # Relative to the largest entry, so the check does not depend on the
        # units of x.
        if np.max(np.abs(A - A.T), initial=0.0) > 1e-12 * np.max(np.abs(A), initial=0.0):
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


def _log_amplitudes(state: GaussianPureState, nodes) -> np.ndarray:
    """log N - x^T A x / 2 at every node of the product grid of the 1-D node
    vectors, as one new array of the grid's shape: float64 when Im A = 0,
    complex128 otherwise.

    The form is a sum of one term per axis pair k < l, the outer product
    -(A_kl + A_lk) / 2 x_k x_l, with each axis's -A_kk x_k^2 / 2 (and log N)
    folded into one of its pairs. The terms are small; the grid takes one
    pass per pair.
    """
    A = state.A if state.A.imag.any() else state.A.real
    n = len(nodes)
    # Axis k's node vector, shaped to broadcast along axis k of the grid.
    x = [v.reshape((-1,) + (1,) * (n - 1 - k)) for k, v in enumerate(nodes)]
    diag = [-0.5 * A[k, k] * (xk * xk) for k, xk in enumerate(x)]
    diag[0] += math.log(state.normalization)
    if n == 1:
        return diag[0]
    terms = {(k, l): -0.5 * (A[k, l] + A[l, k]) * x[k] * x[l]
             for k in range(n) for l in range(k + 1, n)}
    for k in range(n):
        terms[(k, k + 1) if k + 1 < n else (k - 1, k)] += diag[k]
    terms = list(terms.values())
    if len(terms) == 1:
        return terms[0]
    q = np.empty(tuple(v.size for v in nodes), np.result_type(*terms))
    np.add(terms[0], terms[1], out=q)
    for t in terms[2:]:
        q += t
    return q


def _sample(state: GaussianPureState, nodes, weights):
    """Amplitudes of a Gaussian pure state at the nodes of a product rule,
    before renormalization, and the mass defect |1 - sum |amp|^2 w|.

    nodes holds the 1-D node vector of each axis; weights the weight vector
    of each axis (a Gauss-Hermite rule), or one float, the weight of every
    node (a midpoint grid). The amplitudes are exp of _log_amplitudes, taken
    in place: one array of the grid's shape, float64 when A is real. The mass
    is that one weight times sum |amp|^2, or |amp|^2 contracted with each
    axis's weights. A TruncationWarning is issued when the defect exceeds
    MASS_DEFECT_WARN (domain or rule too narrow).
    """
    if len(nodes) != state.n:
        raise InputError(f"need {state.n} axes, got {len(nodes)}")
    amp = _log_amplitudes(state, nodes)
    np.exp(amp, out=amp)
    if isinstance(weights, float):
        mass = float(np.vdot(amp, amp).real) * weights
    else:
        mass = np.abs(amp) ** 2
        for w in reversed(weights):
            mass = mass @ w
        mass = float(mass)
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
    amp, defect = _sample(state, [ax.nodes for ax in axes], _node_weight(axes))
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
    wm = _node_weight(state.axes[k] for k in bipartition.members)
    wrest = _node_weight(state.axes[k] for k in bipartition.complement)
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
    formed on first read and cached on the split. They are read-only, as are
    the F, G, wm and wrest of from_blocks, so every route, check and report
    reads the same arrays. Three readers stay apart on purpose: the entangled
    side's PPT certificate takes its own full SVD for the singular vectors,
    the entropy check takes eigvalsh of K so that it compares an independent
    spectrum with the SVD's, and the Hilbert-Schmidt identity check calls
    route D itself rather than reuse a report's value.

    _family holds, per f preset of family_measure, the family's integrals at
    p = 1 and p = inf before the q-th root, both from one wedge walk over F^T:
    two floats per preset, never an array.

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
    _family: dict = field(default_factory=dict, init=False, repr=False)

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
        F, wm, wrest = F / norm, np.array(wm), np.array(wrest)
        for a in (F, wm, wrest, G):
            a.flags.writeable = False
        return cls(bipartition, F, wm, wrest, G, axes, mass_defect, norm**2)

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
    starts here accepts a prepared split in place of the state.

    A grid state holds the last split built from it: a call across an equal
    bipartition returns that same object, and a call across another one builds
    a new split that replaces it, so a state holds at most one split."""
    if isinstance(state, Split):
        if state.bipartition != bipartition:
            raise InputError(f"split is across {state.bipartition}, not {bipartition}")
        return state
    held = state._split
    if held is not None and held.bipartition == bipartition:
        return held
    sp = Split.from_blocks(bipartition, *block_matrix(state, bipartition),
                           state.diagnostics.get("mass_defect", 0.0), state.axes)
    object.__setattr__(state, "_split", sp)
    return sp
