"""Squared concurrence across a bipartition by independent routes, the
parametrized measure family, and separability decisions with witnesses."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from . import spectral, transpose, wedge
from .errors import DegenerateStateError, InputError
from .quadrature import ProductRule
from .states import Bipartition, GaussianPureState, GridState, Split, _blocks, _sample, split
from .wedge import _wedge_blocks

DEFAULT_THRESHOLD = 1e-8
# Relative band within which the witness search counts candidates as tied:
# the round-off of the sums it compares, about n eps for n terms, stays inside
# it up to n ~ 10^5, and no witness gains from a larger value that close.
_TIE_BAND = 1e-10
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
    # 11 MiB the shape decides which side wins, by up to 10 %. One BLAS
    # thread, real: 8 x 64 walks in 0.090 ms and 64 x 8 in 0.167 ms, 48 x 2304
    # in 2.59 s and 2304 x 48 in 2.36 s.
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


def _family_integrals(sp: Split, func) -> tuple:
    """The family's integrals at p = 1 and p = inf, before the q-th root, from
    one walk over F^T.

    The column pairs a < b of F^T are the slice pairs, so each minor D is the
    wedge coefficient of a slice pair at a complement pair x < y, a row pair
    of the chunk. Each block reduces |D| over every complement pair, weighted
    by w_x w_y for p = 1 and by its largest value for p = inf, before f sees
    the norm. The pairs b < a double the sum, and a = b adds nothing because
    every preset has f(0) = 0.
    """
    F, wm, wrest = sp.F, sp.wm, sp.wrest
    one = sup = 0.0
    for a, b, chunks in _wedge_blocks(F.T):
        ones = sups = 0.0
        for x, y, d in chunks:
            mag = np.abs(d)
            ones = ones + (wrest[x] * wrest[y]) @ mag
            sups = np.maximum(sups, mag.max(axis=0))
        wab = wm[a] * wm[b]
        one += 2.0 * float(wab @ func(ones))
        sup += 2.0 * float(wab @ func(sups))
    return one, sup


def family_measure(state: GridState | Split, bipartition: Bipartition, f, p, q) -> float:
    """Member of the faithful measure family: apply f to the p-norm of the
    wedge of every pair of member-block slices, integrate, take the q-th root.

    p = 1 and p = inf read the same minors, so one walk over F^T gives both
    integrals, which the split keeps by f preset, two floats each: a later
    call for either p with that f, and any q, reads them without walking
    again. p = 2 takes the Lagrange form of each slice pair's wedge norm and
    walks no minor.
    """
    q = float(q)
    if not (np.isfinite(q) and q > 0.0):
        raise InputError("q must be positive and finite")
    func = _resolve_f(f)
    sp = split(state, bipartition)
    if p == 1 or p == np.inf:
        # The memo's key: the preset's name, or ("power", alpha) with a float alpha.
        key = f if isinstance(f, str) else ("power", float(f[1]))
        integrals = sp._family.get(key)
        if integrals is None:
            # Two threads may both walk; each stores the same two floats.
            integrals = sp._family[key] = _family_integrals(sp, func)
        one, sup = integrals
        integral = one if p == 1 else sup
    elif p == 2:
        # The gm x gm squared wedge norms go in blocks of rows within the wedge
        # kernel's chunk budget, read when the measure runs. A block keeps
        # about 48 bytes per entry alive: the complex overlaps and their
        # squared moduli, or the outer product of the row norms, the squared
        # wedge norms and the cutoff's operands.
        F, wm, wrest = sp.F, sp.wm, sp.wrest
        gm = F.shape[0]
        row_norms = (np.abs(F) ** 2) @ wrest
        Fw, Fh = F * wrest, F.conj().T
        step = max(1, wedge._CHUNK_BUDGET // (48 * gm))
        integral = 0.0
        for r0 in range(0, gm, step):
            r1 = min(r0 + step, gm)
            outer = np.outer(row_norms[r0:r1], row_norms)
            norm_sq = outer - np.abs(Fw[r0:r1] @ Fh) ** 2
            # The Lagrange form cannot resolve a squared wedge norm within
            # round-off of |F_a|^2 |F_b|^2 (a product state's every pair): read
            # it as 0, not as the root of a cancellation. A slice's wedge with
            # itself is 0, though on long rows its round-off can exceed the
            # cutoff; the block's diagonal entries are every (gm + 1)-th from r0.
            norm_sq[norm_sq <= 8.0 * np.finfo(float).eps * outer] = 0.0
            norm_sq.reshape(-1)[r0::gm + 1] = 0.0
            integral += float(wm[r0:r1] @ func(np.sqrt(norm_sq)) @ wm)
    else:
        raise InputError(f"unsupported p-norm order {p!r}; use 1, 2 or np.inf")
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


def _first_at_least(values: np.ndarray, floor: float) -> int:
    """Index of the first of values at or above floor."""
    return int(np.argmax(values >= floor))


def _witness_quadruple(G: np.ndarray):
    """A grid quadruple (a, b, x, y) with a large wedge coefficient and its
    weighted |coefficient|^2, found in O(gm gmbar + gmbar^2) time and the
    wedge kernel's memory.

    a is a row of largest norm; b maximizes the wedge norm
    |G_a|^2 |G_b|^2 - |<G_a, G_b>|^2 (Lagrange identity); (x, y), x < y,
    maximizes |G[a,x] G[b,y] - G[a,y] G[b,x]|^2 over the kernel's walk of the
    column pairs of [G_a; G_b]. Values that tie in exact arithmetic, as a
    mirror-symmetric state's do, differ by round-off, and a bare argmax would
    let the order of a sum (a real or a complex BLAS call) choose among them.
    So each choice takes the first candidate, in row or walk order, within
    _TIE_BAND of the largest, relative to the size of the terms it is formed
    from: the largest norm, |G_a|^2 times it, and the largest |coefficient|^2.
    """
    norms = np.sum(np.abs(G) ** 2, axis=1)
    largest = float(norms.max())
    a = _first_at_least(norms, largest - _TIE_BAND * largest)
    wedge = norms[a] * norms - np.abs(G @ G[a].conj()) ** 2
    b = _first_at_least(wedge, wedge.max() - _TIE_BAND * norms[a] * largest)

    def blocks():
        for x, y, chunks in _wedge_blocks(G[[a, b]]):
            # One row pair, so the block is one chunk over its column pairs (x, y).
            _, _, d = next(chunks)
            yield x, y, np.abs(d[0]) ** 2

    # The largest |coefficient|^2 of each block, and the block of the first
    # candidate as the largest so far places it; when a larger one moves that
    # candidate to an earlier block, that block is walked again at the end.
    maxima, held, top = [], None, 0.0
    for k, (x, y, mag) in enumerate(blocks()):
        maxima.append(float(mag.max()))
        top = max(top, maxima[-1])
        floor = top - _TIE_BAND * top
        if held is None or maxima[held[0]] < floor:
            first = _first_at_least(np.array(maxima), floor) if held else 0
            held = (first, (x, y, mag) if first == k else None)
    first, block = held
    x, y, mag = block or next(itertools.islice(blocks(), first, None))
    j = _first_at_least(mag, floor)
    return (a, b, int(x[j]), int(y[j])), float(mag[j])


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


def _squared_concurrence(weights: np.ndarray) -> float:
    """E^2 = 2 (1 - sum lambda_j^2 / (sum lambda_j)^2) of the Schmidt weights
    lambda_1 >= lambda_2 >= ..., as 2 [2 lambda_1 T + T^2 - sum_{j>=2} lambda_j^2]
    / (sum lambda_j)^2 with T = sum_{j>=2} lambda_j.

    (sum lambda_j)^2 - sum lambda_j^2 expands to the bracket, which subtracts
    nothing close to 1: on a weakly entangled state, where E^2 ~ 4 lambda_2,
    1 - sum lambda_j^2 would cancel to the round-off of lambda_1^2.
    """
    lead, rest = float(weights[0]), weights[1:]
    tail = float(rest.sum())
    total = lead + tail
    return 2.0 * (2.0 * lead * tail + tail * tail - float(rest @ rest)) / (total * total)


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
    e2 = _squared_concurrence(weights)
    # A name given twice runs once; the keys keep the order of first naming.
    values = {ROUTES[name][0]: ROUTES[name][1](sp) for name in dict.fromkeys(routes)}
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
    amp, defect = _sample(state, rule.nodes, rule.weights)
    sp = Split.from_blocks(bipartition, *_blocks(amp, rule.weights, bipartition), defect)
    return concurrence_report(sp, bipartition, threshold)
