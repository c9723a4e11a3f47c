"""Squared concurrence across a bipartition by independent routes, the
parametrized measure family, and separability decisions with witnesses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral, transpose
from .errors import DegenerateStateError, InputError
from .quadrature import ProductRule
from .states import Bipartition, GaussianPureState, GridState, Split, _blocks, _sample, split
from .wedge import _pair_matrix, _wedge_chunks

DEFAULT_THRESHOLD = 1e-8


def _wedge_sum_and_max(G: np.ndarray) -> float:
    """Sum of |G[a,x] G[b,y] - G[a,y] G[b,x]|^2 over all quadruples: the
    direct-integral squared concurrence, every coefficient formed explicitly.

    The a = b and x = y terms vanish and swapping a, b or x, y keeps |D|, so
    the sum runs over the minors a < b, x < y of the wedge kernel, times 4.
    The name stays because bench/tracer.py counts route A's quadruples by it.
    """
    return 4.0 * sum(np.vdot(d, d).real for _, _, d in _wedge_chunks(G))


def _route_b_from_matrix(G: np.ndarray) -> float:
    K = np.einsum("ax,bx->ab", G, G.conj())
    return 2.0 * (1.0 - float(np.sum(np.abs(K) ** 2)))


def _route_lambda_from_matrix(G: np.ndarray) -> float:
    # Doubled-grid overlap <Phi, Phi o Lambda> accumulated one member-row at
    # a time; the member-block swap turns the doubled index (a,b,c,d) into
    # (c,b,a,d).
    Gc = G.conj()
    inner = 0.0 + 0.0j
    for a in range(G.shape[0]):
        m1 = Gc * G[a][None, :]   # m1[c, b] = G[a, b] * conj(G[c, b])
        m2 = G * Gc[a][None, :]   # m2[c, d] = G[c, d] * conj(G[a, d])
        inner += complex(np.sum(m1.sum(axis=1) * m2.sum(axis=1)))
    return 2.0 * (1.0 - inner.real)


# Every route: name -> (output key, function of a Split). Route A looks
# _wedge_sum_and_max up when it runs, so a wrapper installed on that module
# attribute (bench/tracer.py counts quadruples this way) sees every call.
ROUTES = {
    "A": ("route_A_wedge", lambda sp: _wedge_sum_and_max(sp.G)),
    "B": ("route_B_overlap", lambda sp: _route_b_from_matrix(sp.G)),
    "C": ("route_C_purity", spectral._route_c),
    "Lambda": ("route_Lambda", lambda sp: _route_lambda_from_matrix(sp.G)),
    "D": ("route_D_hilbert_schmidt", lambda sp: transpose._route_d(sp.G)),
    "E": ("route_E_pt_fourth", lambda sp: transpose._route_e(sp.G)),
}
REPORT_ROUTES = ("A", "B", "C", "Lambda")


def _route_values(sp: Split, names) -> tuple:
    """{output key: E^2} of the named routes, all on the one split, and the
    largest pairwise gap between them (0 for none)."""
    values = {ROUTES[name][0]: ROUTES[name][1](sp) for name in names}
    return values, max(values.values()) - min(values.values()) if values else 0.0


def concurrence_route_A(state: GridState, bipartition: Bipartition) -> float:
    """Direct quadruple integral of the squared wedge coefficients."""
    return _wedge_sum_and_max(split(state, bipartition).G)


def concurrence_route_B(state: GridState, bipartition: Bipartition) -> float:
    """Overlap-kernel form: 2 [1 - integral of |K(y', y)|^2]."""
    return _route_b_from_matrix(split(state, bipartition).G)


def concurrence_route_Lambda(state: GridState, bipartition: Bipartition) -> float:
    """Doubled-coordinate form 2 [1 - Re <Phi, Phi o Lambda>]."""
    return _route_lambda_from_matrix(split(state, bipartition).G)


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
        if alpha <= 0.0:
            raise InputError("power preset needs a positive exponent")
        return lambda x: x**alpha
    raise InputError(
        "f must be 'identity', 'two_x_squared' or ('power', alpha); "
        "arbitrary callables cannot be checked for faithfulness"
    )


def family_measure(state: GridState, bipartition: Bipartition, f, p, q) -> float:
    """Member of the faithful measure family: apply f to the p-norm of the
    wedge of every pair of member-block slices, integrate, take the q-th root."""
    q = float(q)
    if q <= 0.0:
        raise InputError("q must be positive")
    func = _resolve_f(f)
    sp = split(state, bipartition)
    F, wm, wrest = sp.F, sp.wm, sp.wrest
    if p == 2:
        row_norms = (np.abs(F) ** 2) @ wrest
        overlaps = np.einsum("ax,bx,x->ab", F, F.conj(), wrest)
        norm_sq = np.maximum(np.outer(row_norms, row_norms) - np.abs(overlaps) ** 2, 0.0)
        norms = np.sqrt(norm_sq)
    elif p == 1:
        # Rows of F w_rest weight D by w_x w_y; the kernel sums the pairs y > x.
        norms = _pair_matrix(F * wrest, np.add)
    elif p == np.inf or p == "inf":
        norms = _pair_matrix(F, np.maximum)
    else:
        raise InputError(f"unsupported p-norm order {p!r}; use 1, 2 or inf")
    integral = float(np.einsum("ab,a,b->", func(norms), wm, wm))
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

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict, "threshold": self.threshold}
        if self.witness is not None:
            out["witness"] = {
                "slice_pair": [list(t) for t in self.witness.slice_pair],
                "basis_pair": [list(t) for t in self.witness.basis_pair],
                "magnitude_sq": self.witness.magnitude_sq,
            }
        if self.reconstruction_error is not None:
            out["reconstruction_error"] = self.reconstruction_error
        return out


def _verdict(G: np.ndarray, threshold: float) -> str:
    """Schmidt-rank test on the weighted block matrix G.

    Every wedge coefficient vanishes exactly when G has Schmidt rank 1, so the
    state is entangled exactly when the second Schmidt weight sigma_2^2
    exceeds the threshold. sigma_2^2 does not depend on the grid once the grid
    resolves the state.
    """
    sigma = np.linalg.svd(G, compute_uv=False)
    return "entangled" if float(sigma[1]) ** 2 > threshold else "separable"


def _witness_quadruple(G: np.ndarray):
    """A grid quadruple (a, b, x, y) with a large wedge coefficient and its
    weighted |coefficient|^2, found in O(gm gmbar + gmbar^2).

    a is the row of largest norm; b maximizes the wedge norm
    |G_a|^2 |G_b|^2 - |<G_a, G_b>|^2 (Lagrange identity); (x, y) is the
    largest entry of |G_a (x) G_b - G_b (x) G_a|^2.
    """
    norms = np.sum(np.abs(G) ** 2, axis=1)
    a = int(np.argmax(norms))
    overlaps = G @ G[a].conj()
    b = int(np.argmax(norms[a] * norms - np.abs(overlaps) ** 2))
    T = np.outer(G[a], G[b])
    mag = np.abs(T - T.T) ** 2
    x, y = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return (a, b, int(x), int(y)), float(mag[x, y])


def decide_separability(
    state: GridState, bipartition: Bipartition, threshold: float = DEFAULT_THRESHOLD
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
    member_axes = tuple(state.axes[k] for k in bipartition.members)
    rest_axes = tuple(state.axes[k] for k in bipartition.complement)
    m_shape = tuple(ax.points for ax in member_axes)
    r_shape = tuple(ax.points for ax in rest_axes)
    if _verdict(sp.G, threshold) == "entangled":
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
    """Squared concurrence from every route plus agreement diagnostics."""

    route_A_wedge: float
    route_B_overlap: float
    route_C_purity: float
    route_Lambda: float
    max_pairwise_gap: float
    verdict: str
    threshold: float
    mass_defect: float = 0.0

    def values(self) -> dict:
        return {ROUTES[name][0]: getattr(self, ROUTES[name][0]) for name in REPORT_ROUTES}

    def to_dict(self) -> dict:
        out = self.values()
        out.update(
            max_pairwise_gap=self.max_pairwise_gap,
            verdict=self.verdict,
            threshold=self.threshold,
            mass_defect=self.mass_defect,
        )
        return out


def _report(sp: Split, threshold, mass_defect=0.0) -> ConcurrenceReport:
    values, gap = _route_values(sp, REPORT_ROUTES)
    return ConcurrenceReport(
        **values,
        max_pairwise_gap=gap,
        verdict=_verdict(sp.G, threshold),
        threshold=threshold,
        mass_defect=mass_defect,
    )


def concurrence_report(
    state: GridState, bipartition: Bipartition, threshold: float = DEFAULT_THRESHOLD
) -> ConcurrenceReport:
    """All four routes on a grid state, with their pairwise agreement."""
    return _report(split(state, bipartition), threshold, state.diagnostics.get("mass_defect", 0.0))


def concurrence_gaussian_numeric(
    state: GaussianPureState,
    bipartition: Bipartition,
    rule: ProductRule,
    threshold: float = DEFAULT_THRESHOLD,
) -> ConcurrenceReport:
    """Evaluate a Gaussian pure state on a product rule and run every route;
    on the midpoint rule of a grid this is the report of the discretized state."""
    amp, defect = _sample(state, rule)
    sp = Split.from_blocks(bipartition, *_blocks(amp, rule.weights, bipartition))
    return _report(sp, threshold, mass_defect=defect)
