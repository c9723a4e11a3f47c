"""Wedge coefficients on discretized function spaces: `_wedge_blocks`, the one
kernel forming each 2x2 minor of a matrix once, block of column pairs by block,
for route A, the family, the Lambda gap, the witness and the Lagrange check."""

from __future__ import annotations

import numpy as np

from .errors import InputError

# Complex elements of the kernel's three chunk buffers together (768 KiB) unless
# one offset needs more. Timed as two kernel passes, on G and on G^T, one BLAS
# thread: 1.75 ms on 32^2, 50 ms on 324 x 18 (2.36, 58 ms at 32768); 65536
# slowed 10 x 100 from 2.0 to 3.2 ms.
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


def _wedge_blocks(M: np.ndarray):
    """Yield (x, y, chunks) per block of column pairs x < y of M, numbered as in
    _pairs; chunks yields (a, b, D), D[p, k] = M[a_p, x_k] M[b_p, y_k] - M[a_p, y_k] M[b_p, x_k],
    for every row pair a < b before the next block starts: each 2x2 minor once.
    Row pairs (a, a + s) of one offset s are the slices X[:-s], Y[s:] of
    X = M[:, x], Y = M[:, y] while many; the far offsets go as gathered index
    arrays. D is a buffer the next chunk overwrites; reduce it before the next."""
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

    def chunks(x, y):
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

    for c0 in range(0, ncp, width):
        x, y = _pairs(cols, c0, min(c0 + width, ncp))
        yield x, y, chunks(x, y)


def lagrange_identity_gap(f, g, weights) -> float:
    """LHS minus RHS of the weighted Lagrange identity (zero in exact arithmetic).

    LHS = ||f||^2 ||g||^2 - |<f, g>|^2, RHS = sum_{j>i} |f_i g_j - f_j g_i|^2 w_i w_j.
    """
    f = np.asarray(f, dtype=np.complex128).reshape(-1)
    g = np.asarray(g, dtype=np.complex128).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if not (f.size == g.size == w.size):
        raise InputError("vectors and weights must have equal length")
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        raise InputError("vectors must be finite")
    if not np.all((w > 0.0) & np.isfinite(w)):
        raise InputError("weights must be strictly positive and finite")
    nf = float(np.sum(np.abs(f) ** 2 * w))
    ng = float(np.sum(np.abs(g) ** 2 * w))
    ip = complex(np.sum(f * np.conj(g) * w))
    lhs = nf * ng - abs(ip) ** 2
    # The one row pair of [f; g] sqrt(w) has the minors (f_i g_j - f_j g_i) sqrt(w_i w_j).
    rows = np.stack([f, g]) * np.sqrt(w)
    rhs = float(sum(np.vdot(d, d).real
                    for _, _, chunks in _wedge_blocks(rows) for _, _, d in chunks))
    return lhs - rhs
