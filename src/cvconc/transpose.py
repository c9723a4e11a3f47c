"""Doubled-coordinate block-swap machinery, the partial transpose applied
matrix-free, the Hilbert-Schmidt and fourth-power concurrence routes, the PPT
certificate from one SVD, and Wigner-function invariance checks for Gaussian
states. Only build_rho_pt forms a dense operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .quadrature import ProductRule, gauss_hermite_rule, integrate
from .states import Bipartition, GaussianPureState, GridState, Split, split
from . import wedge
from .wedge import _wedge_blocks

# Edge cap of the one dense operator over the linearized grid, the matrix
# build_rho_pt returns; every other check applies the partial transpose
# matrix-free.
_MAX_OPERATOR_DIM = 4096

# Random probes of the square-factorization check: independent unit-modulus
# phases 1, i, -1, -i (zero mean, |V_ij|^2 = 1), drawn from a fixed seed so
# the check is deterministic.
_PROBES = 8
_PROBE_SEED = 1979
_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j])


@dataclass(frozen=True)
class LambdaPermutation:
    """Involutive swap of the member-block coordinates between the two copies
    of an n-tuple stacked into a 2n-vector."""

    bipartition: Bipartition

    @property
    def n(self) -> int:
        return self.bipartition.n

    @property
    def matrix(self) -> np.ndarray:
        n = self.n
        mask = np.zeros((n, n))
        for i in self.bipartition.members:
            mask[i, i] = 1.0
        eye = np.eye(n)
        return np.block([[eye - mask, mask], [mask, eye - mask]])

    def apply(self, X) -> np.ndarray:
        """Swap member components between the two halves of 2n-vectors
        (vectorized over leading dimensions)."""
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != 2 * self.n:
            raise InputError(f"expected vectors of length {2 * self.n}")
        out = X.copy()
        for i in self.bipartition.members:
            out[..., i] = X[..., self.n + i]
            out[..., self.n + i] = X[..., i]
        return out


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Square matrix over linearized grid indices in the symmetric
    sqrt-weight convention, so plain traces equal weighted kernel traces."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m = np.asarray(m, dtype=np.result_type(m, float))  # real operators stay real
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def _check_operator_size(gm: int, gmbar: int):
    if gm * gmbar > _MAX_OPERATOR_DIM:
        raise InputError(
            f"dense operator would have edge {gm * gmbar} > {_MAX_OPERATOR_DIM}; "
            "reduce the grid"
        )


def lambda_invariance_gap(state: GridState | Split, bipartition: Bipartition) -> float:
    """Max-norm of Phi(X) - Phi(Lambda X) over the doubled grid (raw amplitudes)."""
    # Phi[(a,b),(c,d)] = F[a,b] F[c,d]; the swap sends it to F[c,b] F[a,d],
    # so the gap is the largest wedge coefficient over the row pairs of F.
    F = split(state, bipartition).F
    return float(max((np.abs(d).max() for _, _, chunks in _wedge_blocks(F) for _, _, d in chunks),
                     default=0.0))


def _pt_matrix(G: np.ndarray) -> np.ndarray:
    _check_operator_size(*G.shape)
    return np.einsum("ad,cb->abcd", G, G.conj()).reshape(G.size, G.size)


def build_rho_pt(state: GridState | Split, bipartition: Bipartition) -> DiscreteOperator:
    """Partial transpose of the pure density operator: kernel
    phi(x_M, y_rest) phi*(y_M, x_rest) with symmetric weighting."""
    return DiscreteOperator(_pt_matrix(split(state, bipartition).G))


def _pt_matvec(A: np.ndarray, V: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A V^T B over the last two axes of V (gm x gmbar, optionally stacked).

    With A = G, B = conj(G) this is rho_PT V, since
    (rho_PT V)[a,b] = sum_cd G[a,d] conj(G[c,b]) V[c,d]; A = B = G gives
    rho~_PT V and A = B = conj(G) gives rho~_PT^dag V. The product order keeps
    the intermediate at min(gm, gmbar)^2 per probe.
    """
    Vt = V.swapaxes(-1, -2)
    if A.shape[0] <= B.shape[1]:
        return (A @ Vt) @ B
    return A @ (Vt @ B)


def _squared_norm(R: np.ndarray) -> float:
    return float(np.vdot(R, R).real)


def pt_square_factorization_gap(state: GridState | Split, bipartition: Bipartition) -> float:
    """Residual of the partial-transpose square factorization, estimated in
    the Frobenius norm from seeded random probes (Freivalds 1979).

    rho_PT^2 equals rho_M (x) conj(rho_rest) and rho~_PT rho~_PT^dag equals
    rho_M (x) rho_rest; the conjugation on the complement factor comes from
    the transposed kernel ordering and is invisible for real wavefunctions.
    """
    # On gm x gmbar arrays (row-major vec) the right-hand sides act as
    # V -> rho_M V rho_rest and V -> rho_M V conj(rho_rest); they are formed
    # from the smaller Gram matrix K only, independently of _pt_matvec.
    sp = split(state, bipartition)
    G, K = sp.G, sp.K
    real = not np.iscomplexobj(G)
    Gc = G.conj()
    wide = G.shape[0] <= G.shape[1]
    # The probes go in batches within the wedge kernel's chunk budget, read
    # when the check runs: a probe keeps about six complex arrays of G's size
    # alive (V, the two matrix-free applications, left, the target and the
    # residual), 96 bytes per amplitude. Drawn batch by batch from the one
    # generator, they are the probes of a single draw, since PCG64 keeps its
    # spare 32-bit half in its state.
    rng = np.random.default_rng(_PROBE_SEED)
    batch = max(1, wedge._CHUNK_BUDGET // (96 * G.size))
    squares = [0.0, 0.0]
    for start in range(0, _PROBES, batch):
        V = _PHASES[rng.integers(4, size=(min(batch, _PROBES - start), *G.shape))]
        if real:
            # Real operators map Re V and Im V apart, so the probes go as twice
            # as many real ones with the same sum of squared residuals.
            V = np.concatenate((V.real, V.imag))
        left = K @ V if wide else G @ (Gc.T @ V)
        target = (left @ G.T) @ Gc if wide else left @ K
        squares[0] += _squared_norm(_pt_matvec(G, _pt_matvec(G, V, Gc), Gc) - target)
        if not real:  # for real G, Gc is G: the tilde residual would repeat these
            target = (left @ Gc.T) @ G if wide else left @ K.conj()
            squares[1] += _squared_norm(_pt_matvec(G, _pt_matvec(Gc, V, Gc), G) - target)
    # sqrt(mean_k ||R V_k||_F^2); the mean is an unbiased estimate of ||R||_F^2.
    return float(np.sqrt(max(squares) / _PROBES))


def concurrence_route_D(state: GridState | Split, bipartition: Bipartition) -> float:
    """Squared Hilbert-Schmidt distance between rho-tilde and its partial transpose."""
    # rho~[(a,b),(c,d)] = G[a,b] G[c,d] and rho~^Gamma[(a,b),(c,d)] = G[a,d] G[c,b]
    # both have Frobenius norm ||G||_F^2, so the squared distance is
    # 2 ||G||_F^4 - 2 Re <rho~, rho~^Gamma>, where <rho~, rho~^Gamma> is
    # <G, rho~^Gamma conj(G)>. Not clamped at 0, so its round-off shows in the
    # route spread.
    G = split(state, bipartition).G
    norm_sq = np.vdot(G, G).real
    overlap = np.vdot(G, _pt_matvec(G, G.conj(), G)).real
    return float(2.0 * (norm_sq**2 - overlap))


def concurrence_route_E(state: GridState | Split, bipartition: Bipartition) -> float:
    """Fourth-power form 2 [1 - sqrt(Tr rho_PT^4)]."""
    # rho_PT^2 = rho_M (x) conj(rho_rest), so sqrt(Tr rho_PT^4) is the product
    # of the Frobenius norms of the two reduced densities; unlike route C it
    # sees the purities of the two blocks disagree. The smaller Gram matrix is
    # the split's K; the larger one's squared norm is summed over column blocks
    # of M within the wedge kernel's chunk budget.
    sp = split(state, bipartition)
    M = sp.G if sp.G.shape[0] <= sp.G.shape[1] else sp.G.T
    small = np.linalg.norm(sp.K)
    step = max(1, wedge._CHUNK_BUDGET // (M.itemsize * M.shape[1]))
    large = 0.0
    for j in range(0, M.shape[1], step):
        block = M[:, j:j + step].conj().T @ M
        large += np.vdot(block, block).real
    return float(2.0 * (1.0 - small * np.sqrt(large)))


def ppt_min_eigenvalue(state: GridState | Split, bipartition: Bipartition) -> float:
    """Smallest eigenvalue of the partial transpose: the Rayleigh quotient of
    its SVD certificate, -s_1 s_2 to round-off.

    With G = U diag(s) Vh the spectrum is {s_i^2, +-s_i s_j} (Vidal & Werner
    2002), and (u_1 (x) conj(vh_2) - u_2 (x) conj(vh_1)) / sqrt(2) is an
    eigenvector with eigenvalue -s_1 s_2; by Rayleigh-Ritz its quotient under
    _pt_matvec bounds lambda_min from above. With one row or column rho_PT is
    PSD of rank 1, and its minimum is 0.
    """
    G = split(state, bipartition).G
    if min(G.shape) == 1:
        return 0.0
    U, _, Vh = np.linalg.svd(G, full_matrices=False)
    v = (np.outer(U[:, 0], Vh[1].conj()) - np.outer(U[:, 1], Vh[0].conj())) / np.sqrt(2.0)
    return float(np.vdot(v, _pt_matvec(G, v, G.conj())).real)


def wigner_gaussian(state: GaussianPureState, x, p):
    """Phase-space distribution of a Gaussian pure state.

    Completing the square in the defining integral gives
    W(x, p) = pi^-n exp(-x^T R x - (p + I x)^T R^-1 (p + I x))
    with R = Re(A) and I = Im(A).
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    scalar = x.ndim == 1
    if x.shape[-1] != state.n or p.shape != x.shape:
        raise InputError(f"x and p must both have trailing length {state.n}")
    R = state.A.real
    I = state.A.imag
    Rinv = np.linalg.inv(R)
    shifted = p + x @ I.T
    quad = np.einsum("...i,ij,...j->...", x, R, x)
    quad = quad + np.einsum("...i,ij,...j->...", shifted, Rinv, shifted)
    val = np.pi ** (-state.n) * np.exp(-quad)
    return float(val) if scalar else val


def wigner_invariance_gap(state: GaussianPureState, bipartition: Bipartition, samples) -> float:
    """Max gap of the doubled Wigner product under the block-swap of both
    position and momentum doubled vectors, over the given (X, P) samples."""
    n = state.n
    XP = np.array([(np.reshape(X, 2 * n), np.reshape(P, 2 * n)) for X, P in samples],
                  dtype=float).reshape(-1, 2, 2 * n)
    X, P = XP[:, 0], XP[:, 1]
    lam = LambdaPermutation(bipartition)
    Xs, Ps = lam.apply(X), lam.apply(P)
    w = wigner_gaussian(state, X[:, :n], P[:, :n]) * wigner_gaussian(state, X[:, n:], P[:, n:])
    ws = wigner_gaussian(state, Xs[:, :n], Ps[:, :n]) * wigner_gaussian(state, Xs[:, n:], Ps[:, n:])
    return float(np.max(np.abs(w - ws), initial=0.0))


def _wigner_scales(state: GaussianPureState):
    R = state.A.real
    Rinv = np.linalg.inv(R)
    sx = 1.0 / np.sqrt(np.diag(R))
    sp = 1.0 / np.sqrt(np.diag(Rinv))
    return sx, sp


def wigner_normalization(state: GaussianPureState, points_per_axis: int = 40) -> float:
    """Quadrature of W over the full phase space; 1 for a normalized state."""
    sx, sp = _wigner_scales(state)
    rx = gauss_hermite_rule(points_per_axis, sx)
    rp = gauss_hermite_rule(points_per_axis, sp)
    n = state.n
    rule = ProductRule(rx.nodes + rp.nodes, rx.weights + rp.weights)
    return integrate(rule, lambda *xp: wigner_gaussian(
        state, np.stack(xp[:n], axis=-1), np.stack(xp[n:], axis=-1))).real


def wigner_pt_fourth_moment_concurrence(
    state: GaussianPureState, bipartition: Bipartition, points_per_axis: int = 48
) -> float:
    """Squared concurrence of a two-mode Gaussian from the partially
    transposed Wigner function by quadrature.

    W_PT(x1, p1, x2, p2) = W(x1, p1, x2, -p2); its square factorizes through
    the reduced-state marginals, and with the phase-space trace rule
    Tr(rho_PT^4) = (2 pi)^2 * int W_M^2 * int W_Mbar^2 for two modes.
    """
    if state.n != 2:
        raise InputError("the momentum-flip form is implemented for two modes only")
    sx, sp = _wigner_scales(state)
    rx = gauss_hermite_rule(points_per_axis, sx)
    rp = gauss_hermite_rule(points_per_axis, sp)
    x1, p1, x2, p2 = np.meshgrid(rx.nodes[0], rp.nodes[0], rx.nodes[1], rp.nodes[1],
                                 indexing="ij")
    x = np.stack([x1, x2], axis=-1)
    p = np.stack([p1, -p2], axis=-1)
    w_pt = wigner_gaussian(state, x, p)
    wx1, wp1 = rx.weights[0], rp.weights[0]
    wx2, wp2 = rx.weights[1], rp.weights[1]
    marg_m = np.einsum("ijkl,k,l->ij", w_pt, wx2, wp2)
    marg_rest = np.einsum("ijkl,i,j->kl", w_pt, wx1, wp1)
    int_m = float(np.einsum("ij,i,j->", marg_m**2, wx1, wp1))
    int_rest = float(np.einsum("kl,k,l->", marg_rest**2, wx2, wp2))
    tr4 = (2.0 * np.pi) ** 2 * int_m * int_rest
    if tr4 < 0.0:
        raise NumericError("negative fourth-moment estimate")
    return 2.0 * (1.0 - np.sqrt(tr4))
