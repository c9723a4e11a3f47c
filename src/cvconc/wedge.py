"""Wedge product on discretized function spaces, the extended Lagrange
identity, and `_wedge_chunks`, the one kernel forming the wedge coefficients
of row pairs for routes A and D, the measure family and the Lambda gap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Complex elements of the kernel's two reused chunk buffers together (512 KiB)
# unless one row pair needs more. On one BLAS thread twice this was slower on
# 8^3 states, and half of it slowed route A at 64^2 by about 10 %.
_CHUNK_BUDGET = 32_768


def _wedge_chunks(M: np.ndarray):
    """Yield (rows_a, rows_b, D) over the row pairs a < b of M, chunk by chunk:
    D[p, x, y] = M[a,x] M[b,y] - M[a,y] M[b,x] for a, b = rows_a[p], rows_b[p].
    D is a buffer the next chunk overwrites; reduce it before the next."""
    rows, cols = M.shape
    rows_a, rows_b = np.triu_indices(rows, k=1)
    pairs = max(1, min(rows_a.size, _CHUNK_BUDGET // (2 * cols * cols)))
    D = np.empty((pairs, cols, cols), dtype=complex)
    P = np.empty_like(D)
    for p0 in range(0, rows_a.size, pairs):
        a, b = rows_a[p0:p0 + pairs], rows_b[p0:p0 + pairs]
        Ma, Mb = M[a], M[b]
        d, p = D[:a.size], P[:a.size]
        np.multiply(Ma[:, :, None], Mb[:, None, :], out=d)
        np.multiply(Mb[:, :, None], Ma[:, None, :], out=p)
        d -= p
        yield a, b, d


def _pair_matrix(M: np.ndarray, reduce) -> np.ndarray:
    """Symmetric matrix of reduce(|D|) (np.sum or np.max) per row pair of M."""
    out = np.zeros((M.shape[0], M.shape[0]))
    for a, b, d in _wedge_chunks(M):
        out[a, b] = out[b, a] = reduce(np.abs(d), axis=(1, 2))
    return out


@dataclass(frozen=True)
class Bivector:
    """Antisymmetric grade-2 coefficients over strictly ordered index pairs.

    Only pairs (i, j) with j > i in the linear order are stored; the diagonal
    vanishes identically and swapped pairs follow by sign flip. pair_weights
    holds the product w_i * w_j of the constituent quadrature weights.
    """

    size: int
    coefficients: np.ndarray
    pair_weights: np.ndarray

    def __post_init__(self):
        npairs = self.size * (self.size - 1) // 2
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        pw = np.asarray(self.pair_weights, dtype=float)
        if coeffs.shape != (npairs,) or pw.shape != (npairs,):
            raise InputError("coefficient and pair-weight arrays must cover the j > i triangle")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "pair_weights", pw)

    @property
    def pair_indices(self):
        return np.triu_indices(self.size, k=1)


def _as_vectors(f, g, weights):
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    g = np.asarray(g, dtype=np.complex128).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if not (f.size == g.size == w.size):
        raise InputError("vectors and weights must have equal length")
    if np.any(w <= 0.0):
        raise InputError("weights must be strictly positive")
    return f, g, w


def wedge(f, g, weights) -> Bivector:
    """Coefficients f_i g_j - f_j g_i over ordered pairs j > i."""
    f, g, w = _as_vectors(f, g, weights)
    i, j = np.triu_indices(f.size, k=1)
    coeffs = f[i] * g[j] - f[j] * g[i]
    return Bivector(size=f.size, coefficients=coeffs, pair_weights=w[i] * w[j])


def bivector_p_norm(b: Bivector, p) -> float:
    """Weighted p-norm over ordered pairs; p = inf is the plain coefficient max."""
    mag = np.abs(b.coefficients)
    if p == 1:
        return float(np.sum(mag * b.pair_weights))
    if p == 2:
        return float(np.sqrt(np.sum(mag**2 * b.pair_weights)))
    if p == np.inf or p == "inf":
        return float(mag.max(initial=0.0))
    raise InputError(f"unsupported p-norm order {p!r}; use 1, 2 or inf")


def lagrange_identity_gap(f, g, weights) -> float:
    """LHS minus RHS of the weighted Lagrange identity (zero in exact arithmetic).

    LHS = ||f||^2 ||g||^2 - |<f, g>|^2, RHS = sum_{j>i} |f_i g_j - f_j g_i|^2 w_i w_j.
    """
    f, g, w = _as_vectors(f, g, weights)
    nf = float(np.sum(np.abs(f) ** 2 * w))
    ng = float(np.sum(np.abs(g) ** 2 * w))
    ip = complex(np.sum(f * np.conj(g) * w))
    lhs = nf * ng - abs(ip) ** 2
    i, j = np.triu_indices(f.size, k=1)
    rhs = float(np.sum(np.abs(f[i] * g[j] - f[j] * g[i]) ** 2 * w[i] * w[j]))
    return lhs - rhs
