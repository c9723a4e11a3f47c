"""Squared concurrence across a bipartition by independent routes, the
parametrized measure family, and separability decisions with witnesses."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import spectral, transpose
from .errors import DegenerateStateError, InputError
from .quadrature import ProductRule
from .states import Bipartition, GaussianPureState, GridState, Split, _blocks, _sample, split
from .wedge import _wedge_blocks

DEFAULT_THRESHOLD = 1e-8
# Bytes of minors above which route A walks the side of G with more rows.
_MANY_MINOR_BYTES = 2**23


def _wedge_sum_and_max(G: np.ndarray) -> float:
    """Sum of |G[a,x] G[b,y] - G[a,y] G[b,x]|^2 over all quadruples: the
    direct-integral squared concurrence, every coefficient formed explicitly.

    The a = b and x = y terms vanish and swapping a, b or x, y keeps |D|, so
    the sum runs over the minors a < b, x < y of the wedge kernel, times 4.
    The name stays because bench/tracer.py counts route A's quadruples by it.
    """
    # G and G^T have the same minors. The kernel pays a fixed cost per chunk,
    # about one chunk per row offset, and gathers 2 * rows entries per column
    # pair, 4 / (rows - 1) per minor. Few minors: the fixed cost leads, so
    # walk the side with fewer rows; many: the gathers lead, so walk the side
    # with more rows. The two cross near 8 MiB of minors for float64 and
    # complex128 alike, with the chunk buffers aligned or not; between 7 and
    # 11 MiB the shape decides which side wins, by up to 10 % (timings in
    # ROADMAP item 3).
    rows, cols = G.shape
    many = rows * (rows - 1) * cols * (cols - 1) // 4 * G.itemsize > _MANY_MINOR_BYTES
    if rows != cols and (rows < cols) == many:
        G = G.T
    return 4.0 * sum(np.vdot(d, d).real for _, _, chunks in _wedge_blocks(G) for _, _, d in chunks)


# Every route: name -> (output key, function of a Split). Each entry looks
# its public route function up on the module when it runs, so a wrapper
# installed on that module attribute (bench/tracer.py spans every route and
# counts route A's quadruples this way) sees every call.
ROUTES = {
    "A": ("route_A_wedge", lambda sp: concurrence_route_A(sp, sp.bipartition)),
    "B": ("route_B_overlap", lambda sp: concurrence_route_B(sp, sp.bipartition)),
    "C": ("route_C_purity", lambda sp: spectral.concurrence_route_C(sp, sp.bipartition)),
    "Lambda": ("route_Lambda", lambda sp: concurrence_route_Lambda(sp, sp.bipartition)),
    "D": ("route_D_hilbert_schmidt",
          lambda sp: transpose.concurrence_route_D(sp, sp.bipartition)),
    "E": ("route_E_pt_fourth", lambda sp: transpose.concurrence_route_E(sp, sp.bipartition)),
}
# A report's cross-checks unless others are named: each reads the split's one K.
DEFAULT_ROUTES = ("B", "C", "Lambda")


def _check_routes(routes):
    """Refuse route names outside ROUTES, and a bare string, which would
    otherwise be read letter by letter, before any work."""
    if isinstance(routes, str):
        raise InputError(f"routes must be a sequence of route names, not the string {routes!r}")
    for name in routes:
        if name not in ROUTES:
            raise InputError(f"unknown route {name!r}")


def concurrence_route_A(state: GridState | Split, bipartition: Bipartition) -> float:
    """Direct quadruple integral of the squared wedge coefficients."""
    return _wedge_sum_and_max(split(state, bipartition).G)


def concurrence_route_B(state: GridState | Split, bipartition: Bipartition) -> float:
    """Overlap-kernel form 2 [1 - integral |K(y', y)|^2] on the smaller Gram matrix."""
    K = split(state, bipartition).K
    return 2.0 * (1.0 - float(np.vdot(K, K).real))


def concurrence_route_Lambda(state: GridState | Split, bipartition: Bipartition) -> float:
    """Doubled-coordinate form 2 [1 - Re <Phi, Phi o Lambda>]."""
    # The member-block swap turns the doubled index (a,b,c,d) into (c,b,a,d),
    # so the overlap is sum_ac K[a,c] K[c,a], the same sum on either side's
    # Gram matrix.
    K = split(state, bipartition).K
    return 2.0 * (1.0 - float(np.einsum("ac,ca->", K, K).real))


_PRESET_F = {
    "identity": lambda x: x,
    "two_x_squared": lambda x: 2.0 * x**2,
}


def _resolve_f(f):
    if isinstance(f, str):
        if f in _PRESET_F:
            return _PRESET_F[f]
        raise InputError(f"unknown measure preset {f!r}")
    if isinstance(f, tuple) and len(f) == 2 and f[0] == "power":
        alpha = float(f[1])
        if not (np.isfinite(alpha) and alpha > 0.0):
            raise InputError("power preset needs a positive finite exponent")
        return lambda x: x**alpha
    raise InputError(
        "f must be 'identity', 'two_x_squared' or ('power', alpha); "
        "arbitrary callables cannot be checked for faithfulness"
    )


def family_measure(state: GridState | Split, bipartition: Bipartition, f, p, q) -> float:
    """Member of the faithful measure family: apply f to the p-norm of the
    wedge of every pair of member-block slices, integrate, take the q-th root."""
    q = float(q)
    if not (np.isfinite(q) and q > 0.0):
        raise InputError("q must be positive and finite")
    func = _resolve_f(f)
    sp = split(state, bipartition)
    F, wm, wrest = sp.F, sp.wm, sp.wrest
    if p == 1 or p == np.inf or p == "inf":
        # The column pairs of F^T are the slice pairs a < b, and each block
        # reduces |D| over every complement pair x < y before f sees the norm;
        # rows of (F w_rest)^T weight D by w_x w_y. The pairs b < a double the
        # sum, and a = b adds nothing because every preset has f(0) = 0.
        ufunc = np.add if p == 1 else np.maximum
        integral = 0.0
        for a, b, chunks in _wedge_blocks((F * wrest).T if p == 1 else F.T):
            norms = ufunc.reduce([ufunc.reduce(np.abs(d), axis=0) for _, _, d in chunks])
            integral += 2.0 * float((wm[a] * wm[b]) @ func(norms))
    elif p == 2:
        row_norms = (np.abs(F) ** 2) @ wrest
        overlaps = (F * wrest) @ F.conj().T
        outer = np.outer(row_norms, row_norms)
        norm_sq = outer - np.abs(overlaps) ** 2
        # The Lagrange form cannot resolve a squared wedge norm within
        # round-off of |F_a|^2 |F_b|^2 (a product state's every pair): read it
        # as 0, not as the root of a cancellation. A slice's wedge with itself
        # is 0, though on long rows its round-off can exceed the cutoff.
        norm_sq[norm_sq <= 8.0 * np.finfo(float).eps * outer] = 0.0
        np.fill_diagonal(norm_sq, 0.0)
        integral = float(wm @ func(np.sqrt(norm_sq)) @ wm)
    else:
        raise InputError(f"unsupported p-norm order {p!r}; use 1, 2 or inf")
    return integral ** (1.0 / q)


@dataclass(frozen=True)
class EntanglementWitness:
    """Non-parallel slice pair exhibiting a nonzero wedge coefficient."""

    slice_pair: tuple        # (y, y') multi-indices over the member axes
    basis_pair: tuple        # (x, x') multi-indices over the complement axes
    magnitude_sq: float      # weighted squared coefficient magnitude


@dataclass(frozen=True)
class SeparabilityCertificate:
    verdict: str
    threshold: float
    witness: EntanglementWitness = None
    factor_m: GridState = None
    factor_rest: GridState = None
    reconstruction_error: float = None


def _schmidt_rank(weights: np.ndarray, threshold: float) -> int:
    """Number of Schmidt weights above the threshold, a finite number >= 0: a
    NaN threshold would call every state separable, a negative one entangled."""
    # The verdict is this rank: every wedge coefficient vanishes exactly when
    # G has Schmidt rank 1, so the state is entangled exactly when the second
    # Schmidt weight sigma_2^2 exceeds the threshold, that is when the rank is
    # at least 2. sigma_2^2 does not depend on the grid once the grid resolves
    # the state.
    if not (isinstance(threshold, numbers.Real) and 0.0 <= threshold < np.inf):
        raise InputError(f"threshold must be a finite number >= 0, got {threshold!r}")
    return int(np.count_nonzero(weights > threshold))


def _witness_quadruple(G: np.ndarray):
    """A grid quadruple (a, b, x, y) with a large wedge coefficient and its
    weighted |coefficient|^2, found in O(gm gmbar + gmbar^2) time and the
    wedge kernel's memory.

    a is the row of largest norm; b maximizes the wedge norm
    |G_a|^2 |G_b|^2 - |<G_a, G_b>|^2 (Lagrange identity); (x, y), x < y, is the
    first largest |G[a,x] G[b,y] - G[a,y] G[b,x]|^2 in the kernel's walk over
    the column pairs of [G_a; G_b].
    """
    norms = np.sum(np.abs(G) ** 2, axis=1)
    a = int(np.argmax(norms))
    overlaps = G @ G[a].conj()
    b = int(np.argmax(norms[a] * norms - np.abs(overlaps) ** 2))
    best = -1.0
    for x, y, chunks in _wedge_blocks(G[[a, b]]):
        # One row pair, so the block is one chunk over its column pairs (x, y).
        _, _, d = next(chunks)
        mag = np.abs(d[0]) ** 2
        j = int(np.argmax(mag))
        if mag[j] > best:
            best, quad = float(mag[j]), (a, b, int(x[j]), int(y[j]))
    return quad, best


def decide_separability(
    state: GridState | Split, bipartition: Bipartition, threshold: float = DEFAULT_THRESHOLD
) -> SeparabilityCertificate:
    """Separability decision from the Schmidt weights, with witness or factors.

    Entangled when the second Schmidt weight sigma_2^2 of the weighted block
    matrix exceeds the threshold, which does not depend on the grid. The
    witness is then a real grid quadruple with a large wedge coefficient; its
    weighted squared magnitude shrinks with the grid spacing and may fall
    below the threshold. Otherwise the state is factored against the
    maximal-norm reference slice and both factors are returned renormalized.
    """
    sp = split(state, bipartition)
    if sp.axes is None:
        raise InputError("a split without grid axes has no witness or factor states")
    member_axes = tuple(sp.axes[k] for k in bipartition.members)
    rest_axes = tuple(sp.axes[k] for k in bipartition.complement)
    m_shape = tuple(ax.points for ax in member_axes)
    r_shape = tuple(ax.points for ax in rest_axes)
    if _schmidt_rank(sp.schmidt, threshold) >= 2:
        (a, b, x, y), magnitude_sq = _witness_quadruple(sp.G)
        witness = EntanglementWitness(
            slice_pair=(
                tuple(int(v) for v in np.unravel_index(a, m_shape)),
                tuple(int(v) for v in np.unravel_index(b, m_shape)),
            ),
            basis_pair=(
                tuple(int(v) for v in np.unravel_index(x, r_shape)),
                tuple(int(v) for v in np.unravel_index(y, r_shape)),
            ),
            magnitude_sq=magnitude_sq,
        )
        return SeparabilityCertificate("entangled", threshold, witness=witness)

    F, wrest = sp.F, sp.wrest
    slice_norms_sq = (np.abs(F) ** 2) @ wrest
    yhat = int(np.argmax(slice_norms_sq))
    ref_sq = float(slice_norms_sq[yhat])
    if ref_sq <= 0.0:
        raise DegenerateStateError("all member-block slices are numerically zero")
    ratios = (F * F[yhat].conj()[None, :]) @ wrest / ref_sq
    f_m = ratios * np.sqrt(ref_sq)
    f_rest = F[yhat] / np.sqrt(ref_sq)
    recon_err = float(np.max(np.abs(np.outer(f_m, f_rest) - F)))
    factor_m = GridState.from_amplitudes(member_axes, f_m.reshape(m_shape))
    factor_rest = GridState.from_amplitudes(rest_axes, f_rest.reshape(r_shape))
    return SeparabilityCertificate(
        "separable",
        threshold,
        factor_m=factor_m,
        factor_rest=factor_rest,
        reconstruction_error=recon_err,
    )


@dataclass(frozen=True)
class ConcurrenceReport:
    """E2 = 2 (1 - sum sigma_i^4), entropy, Schmidt rank and verdict from one SVD
    of G; routes (output key -> E^2) cross-check it, and max_pairwise_gap spans
    the routes and E2."""

    E2: float
    entropy: float
    schmidt_rank: int
    routes: dict
    max_pairwise_gap: float
    verdict: str
    threshold: float
    mass_defect: float = 0.0

    def values(self) -> dict:
        return {**self.routes, "E2": self.E2}


def concurrence_report(state: GridState | Split, bipartition: Bipartition,
                       threshold: float = DEFAULT_THRESHOLD,
                       routes=DEFAULT_ROUTES) -> ConcurrenceReport:
    """The answer from one SVD of the split, cross-checked by the named ROUTES."""
    _check_routes(routes)
    sp = split(state, bipartition)
    weights = sp.schmidt
    rank = _schmidt_rank(weights, threshold)
    e2 = 2.0 * (1.0 - float(weights @ weights))
    values = {ROUTES[name][0]: ROUTES[name][1](sp) for name in routes}
    spread = [*values.values(), e2]
    return ConcurrenceReport(
        E2=e2,
        entropy=spectral._entropy(weights),
        schmidt_rank=rank,
        routes=values,
        max_pairwise_gap=max(spread) - min(spread),
        verdict="entangled" if rank >= 2 else "separable",
        threshold=threshold,
        mass_defect=sp.mass_defect,
    )


def concurrence_gaussian_numeric(
    state: GaussianPureState,
    bipartition: Bipartition,
    rule: ProductRule,
    threshold: float = DEFAULT_THRESHOLD,
) -> ConcurrenceReport:
    """Evaluate a Gaussian pure state on a product rule and report it; on the
    midpoint rule of a grid this is the report of the discretized state."""
    amp, defect = _sample(state, rule)
    sp = Split.from_blocks(bipartition, *_blocks(amp, rule.weights, bipartition), defect)
    return concurrence_report(sp, bipartition, threshold)
