"""Wedge product on discretized function spaces, the extended Lagrange
identity, and `_wedge_chunks`, the one kernel forming each 2x2 minor of a matrix
once, for routes A and D, the family, the Lambda gap and the identity's check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Complex elements of the kernel's three chunk buffers together (768 KiB) unless
# one offset needs more. Routes A + D, one BLAS thread: 1.75 ms on 32^2, 50 ms on
# 324 x 18 (2.36, 58 ms at 32768); 65536 slowed 10 x 100 from 2.0 to 3.2 ms.
_CHUNK_BUDGET = 49_152
_LONG_RUN = 1024  # minors an offset's row pairs need to go as slices


def _pairs(n: int, start: int, stop: int):
    """Index arrays (i, j), i < j < n, of the pairs numbered start..stop-1 row
    by row, without the other pairs: row i starts at number i (2n - 1 - i) / 2."""
    i = np.arange(n - 1)
    first = i * (2 * n - 1 - i) // 2
    p = np.arange(start, stop)
    i = np.searchsorted(first, p, side="right") - 1
    return i, p - first[i] + i + 1


def _minors(buf, X, Y, a, b, n):
    """X[a] Y[b] - Y[a] X[b] for n row pairs in buf[0]; a, b: slices or gathered indices
    (take mode "clip", as "raise" buffers the output)."""
    d, p, g = buf[:, :n * X.shape[1]].reshape(3, n, X.shape[1])
    if isinstance(a, slice):
        np.multiply(X[a], Y[b], out=d)
        np.multiply(Y[a], X[b], out=p)
    else:
        np.multiply(X.take(a, 0, d, "clip"), Y.take(b, 0, g, "clip"), out=d)
        np.multiply(Y.take(a, 0, p, "clip"), X.take(b, 0, g, "clip"), out=p)
    d -= p
    return d


def _wedge_chunks(M: np.ndarray):
    """Yield (a, b, D), D[p, k] = M[a_p, x_k] M[b_p, y_k] - M[a_p, y_k] M[b_p, x_k]:
    every 2x2 minor of M (rows a < b, columns x < y) once, in column-pair blocks
    X = M[:, x], Y = M[:, y]. Row pairs (a, a + s) of one offset s are the slices
    X[:-s], Y[s:] while many; the far offsets go as gathered index arrays. A row
    pair meets its column pairs x < y row by row, the Bivector order. D is a
    buffer the next chunk overwrites; reduce it before the next."""
    M = np.asarray(M, dtype=complex)  # the gathers write into complex buffers
    rows, cols = M.shape
    ncp = cols * (cols - 1) // 2
    if rows < 2 or ncp == 0:
        return
    size = max(_CHUNK_BUDGET // 3, rows - 1)
    # Equal blocks, each small enough that the offset-1 slice fills one buffer.
    blocks = -(-ncp // (size // (rows - 1)))
    width = -(-ncp // blocks)
    buf = np.empty((3, min(size, rows * (rows - 1) // 2 * width)), dtype=complex)
    idx = np.arange(rows)
    for c0 in range(0, ncp, width):
        x, y = _pairs(cols, c0, min(c0 + width, ncp))
        X, Y = np.take(M, x, axis=1), np.take(M, y, axis=1)
        # Offsets below near have at least _LONG_RUN / x.size row pairs.
        near = max(1, rows + 1 - -(-_LONG_RUN // x.size))
        for s in range(1, near):
            yield idx[:-s], idx[s:], _minors(buf, X, Y, slice(-s), slice(s, None), rows - s)
        # The offsets s >= near: pairs a < b' of rows - near + 1, b = b' + near - 1.
        far = (rows - near + 1) * (rows - near) // 2
        for q0 in range(0, far, size // x.size):
            a, b = _pairs(rows - near + 1, q0, min(q0 + size // x.size, far))
            b += near - 1
            yield a, b, _minors(buf, X, Y, a, b, a.size)


def _pair_matrix(M: np.ndarray, ufunc) -> np.ndarray:
    """Symmetric matrix of ufunc.reduce(|D|) (np.add or np.maximum) over the
    column pairs x < y, per row pair of M, combined across column blocks."""
    out = np.zeros((M.shape[0], M.shape[0]))
    for a, b, d in _wedge_chunks(M):
        out[a, b] = ufunc(out[a, b], ufunc.reduce(np.abs(d), axis=1))
    return out + out.T


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
    # The one row pair of [f; g] sqrt(w) has the minors (f_i g_j - f_j g_i) sqrt(w_i w_j).
    rows = np.stack([f, g]) * np.sqrt(w)
    rhs = float(sum(np.vdot(d, d).real for _, _, d in _wedge_chunks(rows)))
    return lhs - rhs
